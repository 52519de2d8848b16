"""Exact arithmetic in Z/NZ and on 2x2 matrices over it.

The whole package revolves around products of the elementary matrices
M(k) = [[k, -1], [1, 0]]: a tuple (a_1, ..., a_n) is mapped to
M(a_n) * M(a_{n-1}) * ... * M(a_1), indices descending left to right.
"""

from __future__ import annotations

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


class _Value:
    """Base of the package's immutable value classes: equality, hash,
    repr, pickling and copying over the fields named by _fields, as a
    frozen dataclass has them.  A subclass's __init__ sets its fields
    once, through _set; assigning or deleting an attribute afterwards
    raises AttributeError.  They are not dataclasses because the
    dataclasses module, with inspect beneath it, takes a CLI query
    longer to import than most queries take to compute."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values: object) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self is other or self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class ResidueRing(_Value):
    """The modulus N >= 2; residues are kept canonical in [0, N-1]."""

    # no __slots__: crt_idempotents is cached in the instance __dict__
    _fields = ("modulus",)

    def __init__(self, modulus: int) -> None:
        if modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        self._set(modulus)

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


class Mat2(_Value):
    """Row-major [[a, b], [c, d]] over a ResidueRing, determinant 1.

    Every matrix this package produces is a product of the determinant-1
    generators, so the constructor rejects anything else.
    """

    __slots__ = _fields = ("ring", "a", "b", "c", "d")

    def __init__(self, ring: ResidueRing, a: int, b: int, c: int, d: int) -> None:
        n = ring.modulus
        if not (0 <= a < n and 0 <= b < n and 0 <= c < n and 0 <= d < n):
            raise ValueError("matrix entries must be canonical residues")
        if (a * d - b * c) % n != 1:
            raise ValueError("determinant must be 1")
        self._set(ring, a, b, c, d)

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
