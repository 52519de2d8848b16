"""Classify moduli by which monomial minimal solutions are irreducible.

Three nested families over N >= 2:

  * monomially irreducible: every k != 0 gives an irreducible minimal
    solution;
  * quasi monomially irreducible: every invertible k does;
  * semi monomially irreducible: every doubled unit k = 2a does, where
    a runs over residues invertible mod N (mod N/2 when N = 2 mod 4,
    otherwise the candidate set would be empty for half the units).

Deciders walk their candidate list in ascending order and stop at the
first reducible k; predictors give the closed-form characterizations
the deciders are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Callable, Iterable

from ._numbers import euler_phi, is_prime, prime_power
from .modring import ResidueRing
from .monomial import (
    ReductionWitness,
    find_reduction,
    minimal_size_prime_fast,
)

__all__ = [
    "DECIDERS",
    "PREDICTORS",
    "ClassVerdict",
    "Counterexample",
    "decide_monomial",
    "decide_quasi",
    "decide_semi",
    "euler_phi",
    "omega_count",
    "predict_monomial",
    "predict_quasi",
    "predict_reducible_set_2x3m",
    "predict_semi",
    "semi_candidates",
    "semi_family",
    "sizes_table",
    "units_only",
]

MONOMIAL_SPORADIC = frozenset({4, 6, 8, 12, 24})

# Odd primes whose nonzero minimal sizes all avoid 2 mod 4; the building
# blocks of the product closure for semi irreducibility.
SEMI_CLOSURE_PRIMES = frozenset({3, 5, 7, 17, 31, 127})


@dataclass(frozen=True)
class Counterexample:
    """A reducible candidate k together with its reduction witness."""

    k: int
    witness: ReductionWitness


@dataclass(frozen=True)
class ClassVerdict:
    """Outcome of one irreducibility class decision for one modulus.
    checked_k lists the candidates examined, in order, including the
    failing one when the verdict is negative."""

    modulus: int
    kind: str  # a key of DECIDERS
    verdict: bool
    counterexample: Counterexample | None
    checked_k: tuple[int, ...]


def _decide(ring: ResidueRing, kind: str, candidates: Iterable[int]) -> ClassVerdict:
    checked: list[int] = []
    for k in candidates:
        checked.append(k)
        witness = find_reduction(ring, k)
        if witness is not None:
            return ClassVerdict(
                ring.modulus, kind, False, Counterexample(k, witness), tuple(checked)
            )
    return ClassVerdict(ring.modulus, kind, True, None, tuple(checked))


def decide_monomial(ring: ResidueRing) -> ClassVerdict:
    """Is every nonzero minimal monomial solution irreducible?"""
    return _decide(ring, "monomial", range(1, ring.modulus))


def decide_quasi(ring: ResidueRing) -> ClassVerdict:
    """Is every invertible k irreducible?"""
    n = ring.modulus
    units = (k for k in range(1, n) if gcd(k, n) == 1)
    return _decide(ring, "quasi", units)


def semi_candidates(ring: ResidueRing) -> list[int]:
    """Ascending doubled units 2a, a invertible mod N (mod N/2 when
    N = 2 mod 4).  0 can only appear for N = 2 and is dropped: the
    0-monomial solution is handled by the k = 0 convention, not here."""
    n = ring.modulus
    base = n // 2 if n % 4 == 2 else n
    doubled = {2 * a % n for a in range(1, n) if gcd(a, base) == 1}
    doubled.discard(0)
    return sorted(doubled)


def decide_semi(ring: ResidueRing) -> ClassVerdict:
    """Is every doubled unit irreducible?  (True vacuously for N = 2.)"""
    return _decide(ring, "semi", semi_candidates(ring))


def predict_monomial(n: int) -> bool:
    """Closed form: primes and the five sporadic values 4, 6, 8, 12, 24."""
    if n < 2:
        raise ValueError("modulus must be >= 2")
    return is_prime(n) or n in MONOMIAL_SPORADIC


def predict_quasi(n: int) -> bool:
    """Closed form: prime powers and 2**a * 3**b with a, b >= 1."""
    if n < 2:
        raise ValueError("modulus must be >= 2")
    if prime_power(n) is not None:
        return True
    if n % 6 != 0:
        return False
    m = n
    for p in (2, 3):
        while m % p == 0:
            m //= p
    return m == 1


def semi_family(n: int) -> str | None:
    """Name of the proven-irreducible family containing n, if any.

    "odd_prime_power": odd n = p**e.  "twice_prime_power": n = 2*p**e.
    "product_closure": either 4 | n with odd part built from
    SEMI_CLOSURE_PRIMES ({3,5,7,17,31,127}), or n = 2 * (a product of
    3s and 5s).  Families overlap; the first match wins.
    """
    if n % 2 == 1:
        pe = prime_power(n)
        return "odd_prime_power" if pe is not None and pe[0] != 2 else None
    if prime_power(n // 2) is not None:
        return "twice_prime_power"
    if n % 4 == 0:
        m = n
        for p in (2, *SEMI_CLOSURE_PRIMES):
            while m % p == 0:
                m //= p
        if m == 1:
            return "product_closure"
    else:
        m = n // 2
        for p in (3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return "product_closure"
    return None


def predict_semi(n: int) -> bool | None:
    """Closed form where one is proven: odd n is semi irreducible iff it
    is an odd prime power, and even n in a semi_family is; other even n
    have no characterization (None)."""
    family = semi_family(n)
    if n % 2 == 1:
        return family == "odd_prime_power"
    return True if family is not None else None


def predict_reducible_set_2x3m(m: int) -> list[int]:
    """Over N = 2 * 3**m (m >= 2): the k in [0, N) with reducible
    minimal solution are exactly the multiples of 3 other than
    3**(m-1), 3**m and 5 * 3**(m-1)."""
    if m < 2:
        raise ValueError("m must be >= 2")
    n = 2 * 3**m
    kept = {3 ** (m - 1), 3**m, 5 * 3 ** (m - 1)}
    return [k for k in range(0, n, 3) if k not in kept]


# The classes, in the order the CLI lists them: each kind's decider and
# the closed form its verdicts are checked against (None where a modulus
# has no proven characterization).
DECIDERS: dict[str, Callable[[ResidueRing], ClassVerdict]] = {
    "monomial": decide_monomial,
    "quasi": decide_quasi,
    "semi": decide_semi,
}
PREDICTORS: dict[str, Callable[[int], bool | None]] = {
    "monomial": predict_monomial,
    "quasi": predict_quasi,
    "semi": predict_semi,
}


def omega_count(ring: ResidueRing) -> int:
    """Number of k in [1, N) whose minimal solution is irreducible."""
    return sum(
        1 for k in range(1, ring.modulus) if find_reduction(ring, k) is None
    )


def units_only(ring: ResidueRing) -> bool:
    """Does irreducibility coincide exactly with invertibility?
    (Holds precisely for N = 2 and odd prime powers.)"""
    n = ring.modulus
    return all(
        (find_reduction(ring, k) is None) == (gcd(k, n) == 1)
        for k in range(1, n)
    )


def sizes_table(p: int) -> list[tuple[int, int]]:
    """Rows (k, size) for k = 1 .. (p-1)//2 over a prime modulus;
    k and -k always share a size, so half the range is the whole story."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return [
        (k, minimal_size_prime_fast(p, k)[0]) for k in range(1, (p - 1) // 2 + 1)
    ]
