# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled compute kernel; mirrors _corepy.py function for function.

Arithmetic is done in uint64 with a reduction after every product, which
is exact for moduli up to 2**32 (the dispatcher in core.py routes larger
moduli to the pure kernel).
"""

from libc.stdint cimport uint64_t
from libc.stdlib cimport free, malloc

CAP_MESSAGE = "power walk exceeded its cap; this is a bug, not a bad input"


def order_pm(N_py, k_py, cap_py):
    """Smallest r >= 1 with [[k,-1],[1,0]]**r = +/-Id mod N, and the sign."""
    cdef uint64_t N = N_py
    cdef uint64_t k = k_py % N_py
    cdef uint64_t cap = min(cap_py, 2 ** 63)
    cdef uint64_t a = k, b = N - 1, c = 1, d = 0
    cdef uint64_t t = 1, na, nb
    while True:
        if b == 0 and c == 0:
            if a == 1 and d == 1:
                return t, 1
            if a == N - 1 and d == N - 1:
                return t, -1
        if t > cap:
            raise RuntimeError(CAP_MESSAGE)
        na = (k * a + (N - c)) % N
        nb = (k * b + (N - d)) % N
        d = b
        c = a
        a = na
        b = nb
        t += 1


def order_and_reduction(N_py, k_py, roots, cap_py):
    """One walk finding the order r plus the first power equal to
    +/-(M(x)**2)**-1 for a candidate x; see the pure twin for the contract.

    Returns (r, eps, t0, x0, s0); t0 = 0 when nothing matched.
    """
    cdef uint64_t N = N_py
    cdef uint64_t k = k_py % N_py
    cdef uint64_t cap = min(cap_py, 2 ** 63)
    cdef Py_ssize_t m = len(roots)
    cdef Py_ssize_t j
    # per candidate: x, the four entries of the target, then of its negation
    cdef uint64_t *tg = <uint64_t *> malloc(9 * m * sizeof(uint64_t))
    if tg == NULL and m > 0:
        raise MemoryError()
    cdef uint64_t x, td
    for j in range(m):
        x = roots[j] % N_py
        td = (x * x + N - 1) % N
        tg[9 * j + 0] = x
        tg[9 * j + 1] = N - 1
        tg[9 * j + 2] = x
        tg[9 * j + 3] = (N - x) % N
        tg[9 * j + 4] = td
        tg[9 * j + 5] = 1
        tg[9 * j + 6] = (N - x) % N
        tg[9 * j + 7] = x
        tg[9 * j + 8] = (N - td) % N

    cdef uint64_t a = k, b = N - 1, c = 1, d = 0
    cdef uint64_t t = 1, na, nb
    cdef uint64_t t0 = 0, x0 = 0
    cdef int s0 = 0
    try:
        while True:
            if b == 0 and c == 0:
                if a == 1 and d == 1:
                    return t, 1, t0, x0, s0
                if a == N - 1 and d == N - 1:
                    return t, -1, t0, x0, s0
            if t0 == 0:
                for j in range(m):
                    if (a == tg[9 * j + 1] and b == tg[9 * j + 2]
                            and c == tg[9 * j + 3] and d == tg[9 * j + 4]):
                        t0 = t
                        x0 = tg[9 * j]
                        s0 = 1
                        break
                    if (a == tg[9 * j + 5] and b == tg[9 * j + 6]
                            and c == tg[9 * j + 7] and d == tg[9 * j + 8]):
                        t0 = t
                        x0 = tg[9 * j]
                        s0 = -1
                        break
            if t > cap:
                raise RuntimeError(CAP_MESSAGE)
            na = (k * a + (N - c)) % N
            nb = (k * b + (N - d)) % N
            d = b
            c = a
            a = na
            b = nb
            t += 1
    finally:
        free(tg)
