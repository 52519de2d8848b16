"""Classify moduli by which monomial minimal solutions are irreducible.

Three nested families over N >= 2:

  * monomially irreducible: every k != 0 gives an irreducible minimal
    solution;
  * quasi monomially irreducible: every invertible k does;
  * semi monomially irreducible: every doubled unit k = 2a does, where
    a runs over residues invertible mod N (mod N/2 when N = 2 mod 4,
    otherwise the candidate set would be empty for half the units).

Deciders walk their candidate list in ascending order and stop at the
first reducible k, except that decide_semi on an even N past a measured
crossover first counts the irreducible candidates by the fold of the
components module and returns a True verdict without walking; only a
False verdict walks, to find its first reducible k.  For an odd N, 2 is
a unit, so the doubled units are the units and decide_semi is the walk
of decide_quasi, labelled semi.  Predictors give the closed-form
characterizations the deciders are checked against.  sizes_table reads
the prime order rule of the monomial module; modulo a prime power p**e
the order descent is a test oracle (tests/oracles.py), and the counts
read the closed-form tables of the components module instead.

The mirror k -> N - k halves every decision.  With D = diag(1, -1),
M(-k) = -D M(k) D, so M(-k)**t = (-1)**t D M(k)**t D: the two residues
have the same size r, and the signs satisfy eps(-k) = (-1)**r eps(k).
Likewise (x, k, ..., k, x) of length l solves with sign s iff
(-x, -k, ..., -k, -x) solves with sign (-1)**l s, so k and N - k are
reducible together.  All three candidate sets are closed under
k -> N - k, so the first reducible candidate in ascending order is at
most N/2: deciders and counts call find_reduction only for 2k <= N.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import gcd, prod
from typing import Callable, Iterable, Iterator

from . import components
from ._numbers import is_prime, prime_power
from .modring import ResidueRing
from .monomial import ReductionWitness, _prime_size, find_reduction

__all__ = [
    "DECIDERS",
    "PREDICTORS",
    "ClassVerdict",
    "Counterexample",
    "decide_monomial",
    "decide_quasi",
    "decide_semi",
    "omega_count",
    "predict_conjecture",
    "predict_monomial",
    "predict_quasi",
    "predict_reducible_set_2x3m",
    "predict_semi",
    "quasi_family",
    "reducible_set",
    "semi_candidates",
    "semi_family",
    "sizes_table",
]

MONOMIAL_SPORADIC = frozenset({4, 6, 8, 12, 24})

# Odd primes whose nonzero minimal sizes all avoid 2 mod 4; the building
# blocks of the product closure for semi irreducibility.
SEMI_CLOSURE_PRIMES = frozenset({3, 5, 7, 17, 31, 127})

# Even N from here on decide semi by the fold first (decide_semi).  With
# the class tables in closed form the loop below it saves no time: an
# in-process semi scan of 4..800 took the same median time, within 5%
# and in no fixed order, with this bound at 4, 12, 60 or 120 (2
# processes of 6 alternated passes, 2-core machine).  It stays at 120
# while perfbench/test_perfbench.py needs decide_semi(ResidueRing(10))
# to call find_reduction.
SEMI_FOLD_FROM = 120


@dataclass(frozen=True)
class Counterexample:
    """A reducible candidate k together with its reduction witness."""

    k: int
    witness: ReductionWitness


@dataclass(frozen=True)
class ClassVerdict:
    """Outcome of one irreducibility class decision for one modulus.
    checked_k lists the candidates decided, in order, those above N/2 by
    the mirror (see the module docstring), including the failing one
    when the verdict is negative."""

    modulus: int
    kind: str  # a key of DECIDERS
    verdict: bool
    counterexample: Counterexample | None
    checked_k: tuple[int, ...]


def _decide(ring: ResidueRing, kind: str, candidates: Iterable[int]) -> ClassVerdict:
    """candidates ascend and are closed under k -> N - k."""
    n = ring.modulus
    checked: list[int] = []
    for k in candidates:
        checked.append(k)
        if 2 * k > n:
            continue  # decided by its mirror N - k, found irreducible
        witness = find_reduction(ring, k)
        if witness is not None:
            return ClassVerdict(
                n, kind, False, Counterexample(k, witness), tuple(checked)
            )
    return ClassVerdict(n, kind, True, None, tuple(checked))


def decide_monomial(ring: ResidueRing) -> ClassVerdict:
    """Is every nonzero minimal monomial solution irreducible?"""
    return _decide(ring, "monomial", range(1, ring.modulus))


def _units(n: int) -> Iterator[int]:
    """The units mod n in [1, n), ascending and lazily, so a decider
    that stops early tests no further gcd."""
    return (k for k in range(1, n) if gcd(k, n) == 1)


def decide_quasi(ring: ResidueRing) -> ClassVerdict:
    """Is every invertible k irreducible?"""
    return _decide(ring, "quasi", _units(ring.modulus))


def semi_candidates(ring: ResidueRing) -> list[int]:
    """Ascending doubled units 2a, a invertible mod N (mod N/2 when
    N = 2 mod 4).  0 can only appear for N = 2 and is dropped: the
    0-monomial solution is handled by the k = 0 convention, not here."""
    n = ring.modulus
    if n % 2:  # 2 is a unit, so doubling permutes the units
        return list(_units(n))
    # 2a mod N depends on a mod N/2 alone, so a in [1, N/2) coprime to
    # N/2 gives each value once, ascending; N/2 has the primes of N, but
    # 2 only when 4 | N.  A sieve strikes each prime's multiples.
    half = n // 2
    coprime = bytearray([1]) * half
    coprime[0] = 0
    for p, _, _ in ring.crt_idempotents:
        if p > 2 or n % 4 == 0:
            coprime[::p] = bytes(len(range(0, half, p)))
    return [2 * a for a in compress(range(half), coprime)]


def decide_semi(ring: ResidueRing) -> ClassVerdict:
    """Is every doubled unit irreducible?  (True vacuously for N = 2.)
    For an odd N the candidates are the units, so this is the walk of
    decide_quasi, labelled semi.  An even N >= SEMI_FOLD_FROM first
    counts the irreducible candidates by the component fold; only when
    one is reducible does the loop walk, to find the first."""
    n = ring.modulus
    if n % 2:  # 2 is a unit, so the doubled units are the units
        return _decide(ring, "semi", _units(n))
    candidates = semi_candidates(ring)
    if n >= SEMI_FOLD_FROM:
        # per component, the candidates are the units mod each odd q and
        # the k with v_2(k) = 1 mod 2**a (k = 0 when a = 1)
        classes = [(p, e, (1,) if p == 2 else (0,)) for p, e, _ in ring.crt_idempotents]
        if components.irreducible_count(classes) == len(candidates):
            return ClassVerdict(n, "semi", True, None, tuple(candidates))
    return _decide(ring, "semi", candidates)


def predict_monomial(n: int) -> bool:
    """Closed form: primes and the five sporadic values 4, 6, 8, 12, 24."""
    if n < 2:
        raise ValueError("modulus must be >= 2")
    return is_prime(n) or n in MONOMIAL_SPORADIC


def _built_from(n: int, primes: Iterable[int]) -> bool:
    """Is n a product of the given primes?"""
    for p in primes:
        while n % p == 0:
            n //= p
    return n == 1


def quasi_family(n: int) -> str | None:
    """Name of the quasi irreducible family containing n, if any:
    "prime", "prime_power" (p**e with e >= 2), or "two_three"
    (2**a * 3**b with a, b >= 1)."""
    if n < 2:
        raise ValueError("modulus must be >= 2")
    pe = prime_power(n)
    if pe is not None:
        return "prime" if pe[1] == 1 else "prime_power"
    # not a prime power, so built from 2 and 3 means both divide n
    return "two_three" if _built_from(n, (2, 3)) else None


def predict_quasi(n: int) -> bool:
    """Closed form: prime powers and 2**a * 3**b with a, b >= 1."""
    return quasi_family(n) is not None


def semi_family(n: int) -> str | None:
    """Name of the proven-irreducible family containing n, if any.

    "odd_prime_power": odd n = p**e.  "twice_prime_power": n = 2*p**e.
    "product_closure": either 4 | n with odd part built from
    SEMI_CLOSURE_PRIMES ({3,5,7,17,31,127}), or n = 2 * (a product of
    3s and 5s).  Families overlap; the first match wins.
    """
    if n < 2:
        raise ValueError("modulus must be >= 2")
    if n % 2 == 1:
        pe = prime_power(n)
        return "odd_prime_power" if pe is not None and pe[0] != 2 else None
    if prime_power(n // 2) is not None:
        return "twice_prime_power"
    closure = SEMI_CLOSURE_PRIMES if n % 4 == 0 else (3, 5)
    return "product_closure" if _built_from(n, (2, *closure)) else None


def predict_semi(n: int) -> bool | None:
    """Closed form where one is proven: odd n is semi irreducible iff it
    is an odd prime power, and even n in a semi_family is; other even n
    have no characterization (None)."""
    family = semi_family(n)
    if n % 2 == 1:
        return family == "odd_prime_power"
    return True if family is not None else None


def predict_conjecture(p: int) -> bool:
    """Closed form of the prime survey (scan.scan_conjecture): an odd
    prime p has no nonzero minimal size = 2 mod 4 iff p - 1 or p + 1 is
    a power of two, i.e. iff p is a Fermat or a Mersenne prime.

    Proof sketch.  Let e be the order of lambda = (k + sqrt(k**2-4))/2;
    then r = 2 mod 4 iff e = 4 mod 8 (r = e for odd e, e/2 for even e).
    Every divisor e > 2 of p - 1 or p + 1 is the order of some lambda,
    in F_p* or in the norm-1 torus of F_{p**2}, with k = lambda +
    1/lambda != +/-2; k = +/-2 gives r = p, which is odd.  One of p -+ 1
    is = 2 mod 4 and has no divisor = 4 mod 8.  The other is 2**a * m
    with a >= 2 and m odd, and it has such a divisor, 4 * d with d > 1
    odd, iff m > 1; e = 4 itself is lambda**2 = -1, i.e. k = 0, which
    the survey leaves out.
    """
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    return any(q & (q - 1) == 0 for q in (p - 1, p + 1))


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


def _phi(ring: ResidueRing) -> int:
    """Euler's phi of N, from the factorization the ring keeps."""
    return prod((p - 1) * p ** (e - 1) for p, e, _ in ring.crt_idempotents)


def reducible_set(ring: ResidueRing) -> list[int]:
    """Ascending k in [1, N) whose minimal solution is reducible.
    find_reduction runs on k <= N/2 only; N - k shares k's verdict (see
    the module docstring)."""
    n = ring.modulus
    low = [k for k in range(1, n // 2 + 1) if find_reduction(ring, k) is not None]
    return sorted({m for k in low for m in (k, n - k)})


def omega_count(ring: ResidueRing) -> int:
    """Number of k in [1, N) whose minimal solution is irreducible,
    counted per signature class of the prime-power components of N (see
    the components module); the k-loop of reducible_set is the oracle.
    For an odd N = p**e with e >= 2 the count is phi(N), as the paper's
    Lemma 4.1 shows: a unit k is irreducible, since x*(x-k) = 0 mod p**e
    forces x in {0, k}, and every nonzero non-unit k = a*p**t is
    reducible (construct.witness_lemma41)."""
    classes = [(p, e, range(e + 1)) for p, e, _ in ring.crt_idempotents]  # every valuation
    return components.irreducible_count(classes) - 1  # k = 0


def sizes_table(p: int) -> list[tuple[int, int]]:
    """Rows (k, size) for k = 1 .. (p-1)//2 over a prime modulus;
    k and -k always share a size, so half the range is the whole story."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    factors: dict[int, dict[int, int]] = {}  # p -+ 1 factored once for all rows
    return [(k, _prime_size(p, k, factors)[0]) for k in range(1, (p - 1) // 2 + 1)]
