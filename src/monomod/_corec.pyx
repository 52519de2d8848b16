# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled compute kernel; mirrors _corepy.py function for function.

Both walks keep only (a, c) = (a_t, a_{t-1}) of
M**t = [[a_t, -a_{t-1}], [a_{t-1}, a_t - k*a_{t-1}]] and test a border
only where a = +/-1; _corepy.py derives this.

Arithmetic is done in uint64 with a reduction after every product, which
is exact for moduli up to 2**32 (the dispatcher in core.py routes larger
moduli to the pure kernel).
"""

from libc.stdint cimport uint64_t

CAP_MESSAGE = "power walk exceeded its cap; this is a bug, not a bad input"


def order_pm(N_py, k_py, cap_py):
    """Smallest r >= 1 with [[k,-1],[1,0]]**r = +/-Id mod N, and the sign."""
    cdef uint64_t N = N_py
    cdef uint64_t k = k_py % N_py
    cdef uint64_t cap = min(cap_py, 2 ** 63)
    cdef uint64_t a = k, c = 1
    cdef uint64_t t = 1, na
    while True:
        if c == 0:
            if a == 1:
                return t, 1
            if a == N - 1:
                return t, -1
        if t > cap:
            raise RuntimeError(CAP_MESSAGE)
        na = (k * a + (N - c)) % N
        c = a
        a = na
        t += 1


def order_and_reduction(N_py, k_py, roots, cap_py):
    """One walk finding the order r plus the first power equal to
    +/-(M(x)**2)**-1 for a candidate x; see the pure twin for the contract.

    Returns (r, eps, t0, x0, s0); t0 = 0 when nothing matched.
    """
    cdef uint64_t N = N_py
    cdef uint64_t k = k_py % N_py
    cdef uint64_t cap = min(cap_py, 2 ** 63)
    targets = frozenset(x % N_py for x in roots)
    cdef uint64_t m = N - 1
    cdef uint64_t a = k, c = 1
    cdef uint64_t t = 1, na, x
    cdef uint64_t t0 = 0, x0 = 0
    cdef int s0 = 0
    while True:
        if a == 1 or a == m:
            if c == 0:
                return t, (1 if a == 1 else -1), t0, x0, s0
            if t0 == 0:
                x = c if a == 1 else N - c
                if x in targets:
                    t0 = t
                    x0 = x
                    s0 = 1 if a == m else -1
        if t > cap:
            raise RuntimeError(CAP_MESSAGE)
        na = (k * a + (N - c)) % N
        c = a
        a = na
        t += 1
