"""Exact arithmetic in Z/NZ and on 2x2 matrices over it.

The whole package revolves around products of the elementary matrices
M(k) = [[k, -1], [1, 0]]: a tuple (a_1, ..., a_n) is mapped to
M(a_n) * M(a_{n-1}) * ... * M(a_1), indices descending left to right.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ._numbers import factorize, inv_mod

__all__ = [
    "Mat2",
    "ResidueRing",
    "chain",
    "elementary",
    "identity",
    "monomial_power",
    "pm_id",
]


@dataclass(frozen=True)
class ResidueRing:
    """The modulus N >= 2; residues are kept canonical in [0, N-1]."""

    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")

    def canon(self, v: int) -> int:
        return v % self.modulus

    @cached_property
    def crt_idempotents(self) -> tuple[tuple[int, int, int], ...]:
        """(p, e, idempotent) for each prime power p**e exactly dividing
        N, p ascending.  The idempotent is 1 mod p**e and 0 mod N/p**e,
        so the residue with components r_i mod p_i**e_i is
        sum(r_i * idempotent_i) mod N.  Computed on first use and kept
        with the ring, so a scan factors each modulus once."""
        n = self.modulus
        out = []
        for p, e in sorted(factorize(n).items()):
            q = p**e
            rest = n // q
            out.append((p, e, rest * inv_mod(rest, q) % n))
        return tuple(out)


@dataclass(frozen=True)
class Mat2:
    """Row-major [[a, b], [c, d]] over a ResidueRing, determinant 1.

    Every matrix this package produces is a product of the determinant-1
    generators, so the constructor rejects anything else.
    """

    ring: ResidueRing
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        n = self.ring.modulus
        if not all(0 <= v < n for v in (self.a, self.b, self.c, self.d)):
            raise ValueError("matrix entries must be canonical residues")
        if (self.a * self.d - self.b * self.c) % n != 1:
            raise ValueError("determinant must be 1")

    def __mul__(self, other: "Mat2") -> "Mat2":
        if self.ring != other.ring:
            raise ValueError("matrices live in different rings")
        n = self.ring.modulus
        return Mat2(
            self.ring,
            (self.a * other.a + self.b * other.c) % n,
            (self.a * other.b + self.b * other.d) % n,
            (self.c * other.a + self.d * other.c) % n,
            (self.c * other.b + self.d * other.d) % n,
        )


def identity(ring: ResidueRing) -> Mat2:
    return Mat2(ring, 1, 0, 0, 1)


def elementary(ring: ResidueRing, k: int) -> Mat2:
    """The generator M(k) = [[k, -1], [1, 0]]."""
    return Mat2(ring, ring.canon(k), ring.modulus - 1, 1, 0)


def chain(ring: ResidueRing, values: tuple[int, ...] | list[int]) -> Mat2:
    """M(a_n) * M(a_{n-1}) * ... * M(a_1) for values = (a_1, ..., a_n)."""
    if len(values) == 0:
        raise ValueError("chain needs at least one value")
    acc = elementary(ring, values[0])
    for v in values[1:]:
        acc = elementary(ring, v) * acc
    return acc


def monomial_power(ring: ResidueRing, k: int, n: int) -> Mat2:
    """M(k)**n by binary exponentiation; n = 0 gives the identity."""
    if n < 0:
        raise ValueError("exponent must be >= 0")
    acc = identity(ring)
    base = elementary(ring, k)
    while n:
        if n & 1:
            acc = base * acc
        base = base * base
        n >>= 1
    return acc


def pm_id(m: Mat2) -> int | None:
    """+1 if m = Id, -1 if m = -Id, None otherwise.

    For N = 2 the two coincide and +1 is returned; callers must not
    branch on the sign there.
    """
    n = m.ring.modulus
    if m.b != 0 or m.c != 0:
        return None
    if m.a == 1 and m.d == 1:
        return 1
    if m.a == n - 1 and m.d == n - 1:
        return -1
    return None
