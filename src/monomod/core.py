"""The compute kernel: two walks and one power of M = [[k,-1],[1,0]] mod N,
all on one state.

order_pm finds the least power at +/-Id, and order_and_reduction also
spots the first power equal to a bordered target s*(M(x)**-1)**2.  Both
stop halfway, at the centre of a palindrome (see below).
power_state jumps straight to one power by repeated squaring, and
power_pm reads +/-Id from it.  All use Python integers, so they are
exact for every N.

The walk keeps one sequence.  With a_{-1} = 0, a_0 = 1 and
a_t = k*a_{t-1} - a_{t-2},

    M**t = [[a_t, -a_{t-1}], [a_{t-1}, a_t - k*a_{t-1}]],

whose bottom-right entry is -a_{t-2}.  So the state is
(a, c) = (a_t, a_{t-1}) and each step costs one modular multiplication.
M**t = +/-Id exactly when c = 0 and a = +/-1.  Squaring M**t gives the
state (a*a - c*c, c*(2*a - k*c)) of M**(2t).

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
because the walk stops before r.  So r >= t0 + 3 on every match: the
bordered length t0+2 is at most r-1 and the witness needs no check
against r.

No walk needs to reach r itself: the sequence is a palindrome about
the middle of the order.  With M**r = eps*Id, M**(r-t) = eps*M**-t,
and the bottom-left entries (M**-t is the adjugate of M**t) give

    a_{r-2-j} = -eps*a_j    for every j.

The recurrence reads the same backwards, so two consecutive terms that
fit such a mirror force the whole sequence to fit it.  Carrying
b = a_{t-2} beside (a, c), step t sees the centre of the mirror by one
of these rules:

    a = -c           r = 2t+1, eps = +1   (a_t = -a_{t-1})
    a = c            r = 2t+1, eps = -1
    c = 0            r = 2t,   eps = +1   (then a = -b)
    c = N/2          r = 2t,   eps = +1   (N and k both even, a = -b)
    a = b            r = 2t,   eps = -1

Each rule makes j -> 2t-1-j (odd r) or j -> 2t-2-j (even r) a mirror
of the sequence, whose ends j = -1, 0 put M**(2t+1) or M**(2t) at the
named sign times Id; so r divides 2t+1 or 2t, and while t < r that
leaves only the value named.  Conversely the mirror holds at t = r//2
and meets one rule there, so every walk stops at exactly t = r//2.  A
walk never reaches r, so c = 0 at a step always means a = -b is a
square root of 1 other than +/-1, and r = 2t.  The +1 rules are read
first: for N = 2 the signs coincide and the walks read eps = +1.

No match is lost by stopping there.  A match at step t with border x
and sign s pairs with one at step r-2-t with border k-x and sign
-eps*s, since a_{r-2-t} = -eps*a_t = eps*s and
a_{r-3-t} = -eps*a_{t+1} = eps*s*(k - x).  The candidate borders are
closed under x -> k-x (x*(x-k) is symmetric under it, and 0, k swap),
so the first match has t0 <= (r-2)//2 < r//2: it comes before the
centre.
"""

from __future__ import annotations

# Benchmark records and the benchmark's run guard read this name.
BACKEND = "py"

CAP_MESSAGE = "power walk exceeded its cap; this is a bug, not a bad input"


def order_pm(N: int, k: int, cap: int) -> tuple[int, int]:
    """Smallest r >= 1 with [[k,-1],[1,0]]**r = +/-Id mod N, and the sign.

    One modular multiplication per step, stopping at the centre t = r//2
    (see the module docstring).  `cap` bounds the power t the walk
    reaches; passing it raises RuntimeError (the order always exists, so
    the cap only trips on an implementation bug).
    """
    k %= N
    # c = N/2 marks a centre only for N and k even; else h repeats c = 0
    h = N // 2 if N % 2 == 0 and k % 2 == 0 else 0
    a, c, b = k, 1, 0
    t = 1
    while True:
        if t > cap:
            raise RuntimeError(CAP_MESSAGE)
        if c == 0 or c == h:
            return 2 * t, 1
        if a + c == N:
            return 2 * t + 1, 1
        if a == c:
            return 2 * t + 1, -1
        if a == b:
            return 2 * t, -1
        a, c, b = (k * a - c) % N, a, c
        t += 1


def power_state(N: int, k: int, t: int) -> tuple[int, int]:
    """(a_t, a_{t-1}) mod N, the state of [[k,-1],[1,0]]**t; t >= 0.

    Binary powering on the walks' state: from M itself, the leading bit
    of t, then per further bit one squaring and, for a 1 bit, one step of
    the walk.  A bordered witness at step t has x = a_t*a_{t-1}, which
    the class deciders read from here.
    """
    if t == 0:
        return 1, 0
    k %= N
    a, c = k, 1
    for bit in bin(t)[3:]:
        a, c = (a * a - c * c) % N, c * (2 * a - k * c) % N
        if bit == "1":
            a, c = (k * a - c) % N, a
    return a, c


def power_pm(N: int, k: int, t: int) -> int:
    """+1 or -1 when [[k,-1],[1,0]]**t = +/-Id mod N, else 0; t >= 0.

    Read from power_state.  N = 2 reads +1, as the walks do.
    """
    a, c = power_state(N, k, t)
    if c or a not in (1, N - 1):
        return 0
    return 1 if a == 1 else -1


def order_and_reduction(
    N: int, k: int, roots: tuple[int, ...], cap: int, *, stop_at_match: bool = False
) -> tuple[int, int, int, int, int]:
    """One walk that finds both the order of [[k,-1],[1,0]] and the first
    power matching +/-(M(x)**2)**-1 for any candidate x in `roots`.

    A match at step t means (x, k, ..., k, x) of length t+2 multiplies
    out to sign * Id, and t <= (r-2)//2 (see the module docstring).
    Candidates must be roots of x*(x-k) = 0, exclude 0 and k (those two
    can only ever match at steps >= r-2 and are useless to callers
    looking for lengths <= r-1), and be closed under x -> k-x: the walk
    stops at the centre t = r//2, and only that closure puts the first
    match before it.  Each step costs one modular multiplication; only
    steps with a power's top-left entry equal to +/-1 look at the
    candidates, with one set lookup.  `cap` bounds t as in order_pm.

    Returns (r, eps, t0, x0, s0); t0 = 0 when no candidate matched
    before the walk ended.  With stop_at_match the walk ends at the
    first match instead and returns (t0, 0, t0, x0, s0): the first entry
    is then the number of steps walked, and eps = 0 says r is unknown.
    """
    k %= N
    targets = frozenset(x % N for x in roots)
    m = N - 1
    # c = N/2 marks a centre only for N and k even; else h repeats c = 0
    h = N // 2 if N % 2 == 0 and k % 2 == 0 else 0
    a, c, b = k, 1, 0
    t = 1
    t0 = x0 = s0 = 0
    while True:
        if t > cap:
            raise RuntimeError(CAP_MESSAGE)
        if (a == 1 or a == m) and t0 == 0:
            x = c if a == 1 else N - c
            if x in targets:
                t0, x0, s0 = t, x, 1 if a == m else -1
                if stop_at_match:
                    return t, 0, t0, x0, s0
        if c == 0 or c == h:
            return 2 * t, 1, t0, x0, s0
        if a + c == N:
            return 2 * t + 1, 1, t0, x0, s0
        if a == c:
            return 2 * t + 1, -1, t0, x0, s0
        if a == b:
            return 2 * t, -1, t0, x0, s0
        a, c, b = (k * a - c) % N, a, c
        t += 1
