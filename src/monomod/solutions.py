"""Tuples over Z/NZ: the border-merging sum, equivalence up to rotation
and reversal, and membership in the equation M_n(a_1,...,a_n) = +/-Id."""

from __future__ import annotations

from dataclasses import dataclass

from .modring import ResidueRing, chain, pm_id

__all__ = [
    "ModTuple",
    "bordered_constraint_roots",
    "equivalent",
    "oplus",
    "solution_sign",
]


@dataclass(frozen=True)
class ModTuple:
    """An ordered tuple of canonical residues, length >= 1."""

    ring: ResidueRing
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.entries) == 0:
            raise ValueError("tuple must have at least one entry")
        object.__setattr__(
            self, "entries", tuple(self.ring.canon(v) for v in self.entries)
        )

    def __len__(self) -> int:
        return len(self.entries)


def oplus(u: ModTuple, v: ModTuple) -> ModTuple:
    """(a_1+b_m, a_2, ..., a_{n-1}, a_n+b_1, b_2, ..., b_{m-1}).

    Both operands need length >= 2; the result has length n+m-2.  When v
    solves the equation, u (+) v solves it iff u does.
    """
    if u.ring != v.ring:
        raise ValueError("operands live in different rings")
    if len(u) < 2 or len(v) < 2:
        raise ValueError("both operands need length >= 2")
    a, b = u.entries, v.entries
    merged = (a[0] + b[-1],) + a[1:-1] + (a[-1] + b[0],) + b[1:-1]
    return ModTuple(u.ring, merged)


def equivalent(u: ModTuple, v: ModTuple) -> bool:
    """True iff v is a cyclic rotation of u or of u reversed."""
    if u.ring != v.ring:
        raise ValueError("operands live in different rings")
    if len(u) != len(v):
        return False

    def is_rotation(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
        n = len(a)
        doubled = a + a
        return any(doubled[i : i + n] == b for i in range(n))

    return is_rotation(u.entries, v.entries) or is_rotation(
        tuple(reversed(u.entries)), v.entries
    )


def solution_sign(t: ModTuple) -> int | None:
    """+1 / -1 when the tuple solves the equation with that sign, else None."""
    return pm_id(chain(t.ring, t.entries))


def _valuation(p: int, e: int, k: int) -> int:
    """a = min(v_p(k), e)."""
    a = 0
    while a < e and k % p == 0:
        k //= p
        a += 1
    return a


def _prime_power_roots(p: int, e: int, k: int) -> list[int]:
    """Roots of x*(x-k) mod p**e.

    With a = min(v_p(k), e): if 2a >= e every multiple of p**ceil(e/2)
    works and nothing else does; otherwise the roots split into the two
    classes x = 0 and x = k mod p**(e-a).
    """
    q = p**e
    k %= q
    if k % p:  # a = 0: the two classes are 0 and k themselves
        return [0, k]
    a = _valuation(p, e, k)
    if 2 * a >= e:
        step = p ** ((e + 1) // 2)
        return list(range(0, q, step))
    step = p ** (e - a)
    roots = set(range(0, q, step))
    roots.update((k + i * step) % q for i in range(p**a))
    return sorted(roots)


def _prime_power_root_count(p: int, e: int, k: int) -> int:
    """len(_prime_power_roots(p, e, k)) from the same valuation: the
    multiples of p**ceil(e/2) number p**floor(e/2), and otherwise the
    two classes mod p**(e-a) hold p**a roots each and do not meet."""
    a = _valuation(p, e, k)
    return p ** (e // 2) if 2 * a >= e else 2 * p**a


def bordered_root_count(ring: ResidueRing, k: int) -> int:
    """len(bordered_constraint_roots(ring, k)), without building the roots.

    The roots always include 0 and k, so for k != 0 a count <= 2 means
    there is no other candidate border.
    """
    k = ring.canon(k)
    count = 1
    for p, e, _ in ring.crt_idempotents:
        count *= _prime_power_root_count(p, e, k)
    return count


def bordered_constraint_roots(ring: ResidueRing, k: int) -> list[int]:
    """All x with x*(x-k) = 0 mod N, ascending; always contains 0 and k.

    Any solution of the bordered form (x, k, ..., k, x) forces this
    constraint on x, so these are the only candidate border values.
    They are solved per prime power of N and recombined with the ring's
    CRT idempotents.
    """
    k = ring.canon(k)
    sums = [0]
    for p, e, idempotent in ring.crt_idempotents:
        lifted = [r * idempotent for r in _prime_power_roots(p, e, k)]
        sums = [s + v for s in sums for v in lifted]
    return sorted(s % ring.modulus for s in sums)
