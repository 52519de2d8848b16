"""Closed-form reduction witnesses for structured moduli.

Each builder returns a ConstructedWitness: a modulus N, a residue k
whose minimal monomial solution is reducible, the exact minimal size,
and an explicit shorter bordered solution (x, k, ..., k, x) that
reduces it.  verify() re-derives every claim from scratch, so a
witness object is self-checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from ._numbers import egcd, factorize, inv_mod, is_prime
from .modring import ResidueRing
from .monomial import minimal_size, report
from .solutions import ModTuple, solution_sign

__all__ = [
    "ConstructedWitness",
    "reducible_k_prop34",
    "witness_lemma41",
    "witness_prop34",
    "witness_prop36",
    "witness_prop51",
]


@dataclass(frozen=True)
class ConstructedWitness:
    """A reducibility certificate: the k-monomial minimal solution over
    the modulus has the stated size and is reduced by the reducer."""

    modulus: int
    k: int
    size: int
    reducer: ModTuple
    source: str

    def verify(self) -> bool:
        """Recompute everything the certificate asserts."""
        ring = self.reducer.ring
        n = self.modulus
        if ring.modulus != n:
            return False
        k = ring.canon(self.k)
        if k == 0:
            return False
        r, _ = minimal_size(ring, k)
        if r != self.size:
            return False
        length = len(self.reducer)
        if not 3 <= length <= self.size - 1:
            return False
        entries = self.reducer.entries
        x = entries[0]
        if entries[-1] != x or any(e != k for e in entries[1:-1]):
            return False
        if x * (x - k) % n != 0:
            return False
        return solution_sign(self.reducer) is not None


def _bordered(ring: ResidueRing, x: int, k: int, length: int) -> ModTuple:
    return ModTuple(ring, (x,) + (k,) * (length - 2) + (x,))


def witness_prop36(n: int, m: int) -> ConstructedWitness:
    """Reducible unit over N = n*m, n and m coprime, n >= 2, m odd,
    3 does not divide m.

    With am + bn = 1, the residue k = am + 2bn (k = 1 mod n, 2 mod m)
    has minimal size 6m (3m when n = 2).  The reducer border and length
    depend on m mod 3: for m = 1 mod 3 take x = am and length m+2, for
    m = 2 mod 3 take x = 2bn and length m.
    """
    if n < 2 or m < 2:
        raise ValueError("both factors must be >= 2")
    if gcd(n, m) != 1:
        raise ValueError("factors must be coprime")
    if m % 2 == 0 or m % 3 == 0:
        raise ValueError("m must be odd and not divisible by 3")
    big = n * m
    ring = ResidueRing(big)
    _, a, b = egcd(m, n)
    k = ring.canon(a * m + 2 * b * n)
    if m % 3 == 1:
        x, length = ring.canon(a * m), m + 2
    else:
        x, length = ring.canon(2 * b * n), m
    size = 6 * m if n > 2 else 3 * m
    return ConstructedWitness(big, k, size, _bordered(ring, x, k, length), "prop36")


def witness_prop51(n: int, m: int) -> ConstructedWitness:
    """Reducible unit over N = n*m, n and m odd, coprime, 2 <= n < m.

    With am + bn = 1, the residue k = 2(am - bn) (k = 2 mod n, -2 mod m)
    has minimal size 2nm.  Writing m = qn + r0 and picking the odd
    w in [1, 2n-1] with r0*w + 2 = 0 mod n, the bordered tuple with
    border x = 2am and length 2 + m*w reduces it.
    """
    if n < 2 or m < 2:
        raise ValueError("both factors must be >= 2")
    if n % 2 == 0 or m % 2 == 0:
        raise ValueError("both factors must be odd")
    if gcd(n, m) != 1:
        raise ValueError("factors must be coprime")
    if m <= n:
        raise ValueError("need n < m")
    big = n * m
    ring = ResidueRing(big)
    _, a, b = egcd(m, n)
    k = ring.canon(2 * (a * m - b * n))
    r0 = m % n
    v = -2 * inv_mod(r0, n) % n
    w = v if v % 2 == 1 else v + n
    length = 2 + m * w
    x = ring.canon(2 * a * m)
    return ConstructedWitness(big, k, 2 * n * m, _bordered(ring, x, k, length), "prop51")


def witness_lemma41(p: int, n: int, t: int, a: int = 1) -> ConstructedWitness:
    """Reducible non-unit over N = p**n, p an odd prime, n >= 2.

    k = a * p**t (1 <= t <= n-1, a coprime to p) has minimal size
    2 * p**(n-t) with sign -1; the border x = k - 2a*p**(n-1) at length
    4 * p**(n-t-1) reduces it.
    """
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 1 <= t <= n - 1:
        raise ValueError("need 1 <= t <= n-1")
    if a % p == 0:
        raise ValueError("a must be coprime to p")
    big = p**n
    ring = ResidueRing(big)
    k = ring.canon(a * p**t)
    x = ring.canon(a * p**t - 2 * a * p ** (n - 1))
    length = 4 * p ** (n - t - 1)
    return ConstructedWitness(big, k, 2 * p ** (n - t), _bordered(ring, x, k, length), "lemma41")


def reducible_k_prop34(n: int) -> int | None:
    """A closed-form reducible k for composite-enough N: N/4 when 16
    divides N, else N/p for the smallest odd prime with p*p dividing N.
    None when neither pattern applies."""
    if n < 2:
        raise ValueError("modulus must be >= 2")
    if n % 16 == 0:
        return n // 4
    for p in sorted(factorize(n)):
        if p != 2 and n % (p * p) == 0:
            return n // p
    return None


def witness_prop34(n: int) -> ConstructedWitness | None:
    """Certificate for the reducible_k_prop34 residue, with the reducer
    found by the generic search; None when no pattern applies."""
    k = reducible_k_prop34(n)
    if k is None:
        return None
    ring = ResidueRing(n)
    rep = report(ring, k)  # one walk gives both the size and the witness
    if rep.witness is None:
        raise RuntimeError(f"expected k={k} to be reducible mod {n}")
    reducer = _bordered(ring, rep.witness.x, k, rep.witness.length)
    return ConstructedWitness(n, k, rep.size, reducer, "prop34")
