"""Elementary integer arithmetic shared by the other modules.

Primality and factoring are deterministic trial division, O(sqrt(N)):
about sqrt(N)/3 divisions for a prime N, or for one with two prime
factors near sqrt(N).  That is about 1 ms for N = 1e9 + 7 and 0.6 s
for a prime near 1e14 (one core of a shared 2-core machine), tenfold
more per factor 100 in N.
"""

from __future__ import annotations

import math


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b)."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def inv_mod(a: int, n: int) -> int:
    """Inverse of a modulo n; raises ValueError if gcd(a, n) != 1."""
    g, x, _ = egcd(a % n, n)
    if g != 1:
        raise ValueError(f"{a} is not invertible modulo {n}")
    return x % n


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit by Eratosthenes."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i, f in enumerate(flags) if f]


def is_prime(n: int) -> bool:
    """Deterministic trial division; fine for n <= ~1e10."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    d = 5
    while d * d <= n:
        if n % d == 0 or n % (d + 2) == 0:
            return False
        d += 6
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} by trial division."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisor_phis(n: int) -> list[tuple[int, int]]:
    """(d, phi(d)) for every positive divisor d of n, ascending,
    from one factorization of n."""
    out = [(1, 1)]
    for p, e in factorize(n).items():
        powers = [(1, 1)] + [(p**i, p**i - p ** (i - 1)) for i in range(1, e + 1)]
        out = [(d * f, phi * g) for d, phi in out for f, g in powers]
    return sorted(out)


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, e) if n = p**e with e >= 1, else None."""
    if n < 2:
        return None
    fac = factorize(n)
    if len(fac) != 1:
        return None
    return next(iter(fac.items()))
