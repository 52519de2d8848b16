"""Pure-Python compute kernel.

Two hot loops, both walking powers of the companion matrix
[[k,-1],[1,0]] modulo N: order_pm stops when a power hits +/-Id, and
order_and_reduction also spots the first power equal to one of a small
set of target matrices.  The compiled kernel in _corec.pyx mirrors this
module function for function; keep the two in lockstep.

This version works for arbitrary N (Python integers), so it also serves
as the overflow-safe path for moduli past the compiled kernel's 2**32
limit.
"""

from __future__ import annotations

CAP_MESSAGE = "power walk exceeded its cap; this is a bug, not a bad input"


def order_pm(N: int, k: int, cap: int) -> tuple[int, int]:
    """Smallest r >= 1 with [[k,-1],[1,0]]**r = +/-Id mod N, and the sign.

    The walk is the companion recurrence: multiplying by [[k,-1],[1,0]]
    on the left costs two modular multiplications.  `cap` bounds the
    number of steps; hitting it raises RuntimeError (the order always
    exists, so the cap only trips on an implementation bug).
    """
    k %= N
    a, b, c, d = k, N - 1, 1, 0
    t = 1
    while True:
        if b == 0 and c == 0:
            if a == 1 and d == 1:
                return t, 1
            if a == N - 1 and d == N - 1:
                return t, -1
        if t > cap:
            raise RuntimeError(CAP_MESSAGE)
        a, b, c, d = (k * a - c) % N, (k * b - d) % N, a, b
        t += 1


def order_and_reduction(
    N: int, k: int, roots: tuple[int, ...], cap: int
) -> tuple[int, int, int, int, int]:
    """One walk that finds both the order of [[k,-1],[1,0]] and the first
    power matching +/-(M(x)**2)**-1 for any candidate x in `roots`.

    A match at step t means (x, k, ..., k, x) of length t+2 multiplies
    out to sign * Id.  Candidates must be sorted ascending and exclude
    0 and k (those two can only ever match at steps >= r-2 and are
    useless to callers looking for lengths <= r-1).

    Returns (r, eps, t0, x0, s0); t0 = 0 when no candidate matched
    before the walk ended.
    """
    k %= N
    targets = []
    for x in roots:
        x %= N
        # (M(x)**-1)**2 = [[-1, x], [-x, x*x - 1]]
        ta, tb, tc, td = N - 1, x, (N - x) % N, (x * x - 1) % N
        targets.append((x, ta, tb, tc, td, (N - ta) % N, (N - tb) % N,
                        (N - tc) % N, (N - td) % N))

    a, b, c, d = k, N - 1, 1, 0
    t = 1
    t0 = x0 = s0 = 0
    while True:
        if b == 0 and c == 0:
            if a == 1 and d == 1:
                return t, 1, t0, x0, s0
            if a == N - 1 and d == N - 1:
                return t, -1, t0, x0, s0
        if t0 == 0:
            for x, ta, tb, tc, td, na, nb, nc, nd in targets:
                if a == ta and b == tb and c == tc and d == td:
                    t0, x0, s0 = t, x, 1
                    break
                if a == na and b == nb and c == nc and d == nd:
                    t0, x0, s0 = t, x, -1
                    break
        if t > cap:
            raise RuntimeError(CAP_MESSAGE)
        a, b, c, d = (k * a - c) % N, (k * b - d) % N, a, b
        t += 1
