"""The compute kernel: two walks over powers of M = [[k,-1],[1,0]] mod N.

order_pm stops when a power hits +/-Id, and order_and_reduction also
spots the first power equal to a bordered target s*(M(x)**-1)**2.
Both use Python integers, so they are exact for every N.

The walk keeps one sequence.  With a_{-1} = 0, a_0 = 1 and
a_t = k*a_{t-1} - a_{t-2},

    M**t = [[a_t, -a_{t-1}], [a_{t-1}, a_t - k*a_{t-1}]],

so the state is (a, c) = (a_t, a_{t-1}) and each step costs one modular
multiplication.  M**t = +/-Id exactly when c = 0 and a = +/-1.

For the reduction search, (M(x)**-1)**2 = [[-1, x], [-x, x*x - 1]], and
M**t = s*(M(x)**-1)**2 compares four entries.  The top-left one gives
a = -s; with a*a = 1 the bottom-left one then gives x = a*c (so x = c
when a = 1 and x = -c when a = -1), and the top-right one follows from
it.  The bottom-right one asks a - k*c = s*(x*x - 1), which reduces to
x*(x-k) = 0 and already holds: det M**t = 1 reads a*(a - k*c) + c*c = 1,
i.e. c*c = k*a*c, i.e. x*x = k*x.  So a step can match only when
a = +/-1, and then only the one border x = a*c with s = -a.  The walk
tests that x against a frozenset of the candidates instead of comparing
every target on every step.  For N > 2, +1 and -1 differ, so at most one
(x, s) matches per step and the first match in t is the first witness in
(length, x) order.  For N = 2 the two signs coincide and the walk reads
s = +1, as the four-entry comparison with +1 tried first did.

A walk that only needs the witness may stop at its first match.  Say
step t0 matches border x, not 0 or k, with sign s, so a_{t0} = -s and
c = a_{t0-1} = -s*x.  The order r is not t0, since that needs c = 0,
i.e. x = 0.  It is not t0+1: the bottom-left entry of M**(t0+1) is
a_{t0} = -s, not 0.  It is not t0+2: that entry of M**(t0+2) is
a_{t0+1} = k*a_{t0} - c = s*(x - k), not 0.  And r < t0 is impossible,
because the walk ends at r.  So r >= t0 + 3 on every match: the bordered
length t0+2 is at most r-1 and the witness needs no check against r.
"""

from __future__ import annotations

# Benchmark records and the benchmark's run guard read this name.
BACKEND = "py"

CAP_MESSAGE = "power walk exceeded its cap; this is a bug, not a bad input"


def order_pm(N: int, k: int, cap: int) -> tuple[int, int]:
    """Smallest r >= 1 with [[k,-1],[1,0]]**r = +/-Id mod N, and the sign.

    One modular multiplication per step (see the module docstring).
    `cap` bounds the number of steps; hitting it raises RuntimeError
    (the order always exists, so the cap only trips on an
    implementation bug).
    """
    k %= N
    a, c = k, 1
    t = 1
    while True:
        if c == 0:
            if a == 1:
                return t, 1
            if a == N - 1:
                return t, -1
        if t > cap:
            raise RuntimeError(CAP_MESSAGE)
        a, c = (k * a - c) % N, a
        t += 1


def order_and_reduction(
    N: int, k: int, roots: tuple[int, ...], cap: int, *, stop_at_match: bool = False
) -> tuple[int, int, int, int, int]:
    """One walk that finds both the order of [[k,-1],[1,0]] and the first
    power matching +/-(M(x)**2)**-1 for any candidate x in `roots`.

    A match at step t means (x, k, ..., k, x) of length t+2 multiplies
    out to sign * Id, and t <= r-3 (see the module docstring).
    Candidates must be roots of x*(x-k) = 0 and exclude 0 and k (those
    two can only ever match at steps >= r-2 and are useless to callers
    looking for lengths <= r-1).  Each step costs one modular
    multiplication; only steps with a power's top-left entry equal to
    +/-1 look at the candidates, with one set lookup.

    Returns (r, eps, t0, x0, s0); t0 = 0 when no candidate matched
    before the walk ended.  With stop_at_match the walk ends at the
    first match instead and returns (t0, 0, t0, x0, s0): the first entry
    is then the number of steps walked, and eps = 0 says r is unknown.
    """
    k %= N
    targets = frozenset(x % N for x in roots)
    m = N - 1
    a, c = k, 1
    t = 1
    t0 = x0 = s0 = 0
    while True:
        if a == 1 or a == m:
            if c == 0:
                return t, 1 if a == 1 else -1, t0, x0, s0
            if t0 == 0:
                x = c if a == 1 else N - c
                if x in targets:
                    t0, x0, s0 = t, x, 1 if a == m else -1
                    if stop_at_match:
                        return t, 0, t0, x0, s0
        if t > cap:
            raise RuntimeError(CAP_MESSAGE)
        a, c = (k * a - c) % N, a
        t += 1
