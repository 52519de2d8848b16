"""Classify moduli by which monomial minimal solutions are irreducible.

Three nested families over N >= 2:

  * monomially irreducible: every k != 0 gives an irreducible minimal
    solution;
  * quasi monomially irreducible: every invertible k does;
  * semi monomially irreducible: every doubled unit k = 2a does, where
    a runs over residues invertible mod N (mod N/2 when N = 2 mod 4,
    otherwise the candidate set would be empty for half the units).

All three deciders share one rule, _decide.  When N = p**e and every
candidate is a unit, the verdict is True by the paper's Lemma 4.1, with
no call per candidate: x*(x-k) = 0 mod p**e with k a unit forces x in
{0, k}, so no border but 0 and k exists.  That covers quasi for every
prime power, semi for an odd one and monomial for a prime.  On an even
N from FOLD_FROM on, the quasi and semi classes first ask the fold of
the components module whether any residue of their candidate classes is
reducible: the units of each odd prime power of N, and mod 2**a the
units (quasi) or the k with v_2(k) = 1 (semi).  If none is, the verdict
is True and nothing walks.  Otherwise, and for every other modulus and
class, the candidates are taken in ascending order, and each k <= N/2
is decided with no walk: irreducible when 0 and k are its only border
roots (solutions.bordered_root_count), and otherwise by the component
signatures of k, merged as the fold merges them
(components.residue_reducible).  find_reduction walks once, on the
first k they call reducible, for its witness; a walk that finds none
contradicts the signatures and raises RuntimeError.  Only an even
quasi or semi N below FOLD_FROM keeps the older loop, one find_reduction
per candidate.  Odd N and the monomial class have no fold: an odd True
verdict is an odd prime power, which the lemma settles, and no even N
from 120 on is monomially irreducible, so a fold there would only add
its cost.  For an odd N, 2 is a unit, so the doubled units are the
units and decide_semi is the search of decide_quasi, labelled semi.

Predictors give the closed-form characterizations the deciders are
checked against.  sizes_table reads the order descent of the monomial
module, monomial._prime_size, which also gives the signature of a unit
k mod p**e; the counts read the closed-form tables of the components
module.

The mirror k -> N - k halves every decision.  With D = diag(1, -1),
M(-k) = -D M(k) D, so M(-k)**t = (-1)**t D M(k)**t D: the two residues
have the same size r, and the signs satisfy eps(-k) = (-1)**r eps(k).
Likewise (x, k, ..., k, x) of length l solves with sign s iff
(-x, -k, ..., -k, -x) solves with sign (-1)**l s, so k and N - k are
reducible together.  All three candidate sets are closed under
k -> N - k, so the first reducible candidate in ascending order is at
most N/2: deciders and counts decide only the k with 2k <= N.
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
from .solutions import bordered_root_count

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

# Even N from here on decide quasi and semi by the fold first, and below
# it by one find_reduction per candidate.  With the class tables in
# closed form the loop below it saves no time: an in-process semi scan
# of 4..800 took the same median time, within 5% and in no fixed order,
# with this bound at 4, 12, 60 or 120 (2 processes of 6 alternated
# passes, 2-core machine), and a quasi scan of 2..800 did with it at 4
# or 120 (0.104 and 0.102 s, medians of 6 alternated runs, same
# machine); both were measured before the per-k signatures.  It stays
# at 120 while perfbench/test_perfbench.py needs
# decide_semi(ResidueRing(10)) to call find_reduction.
FOLD_FROM = 120

# The classes that fold first, each with v_2(k) of its candidates mod
# 2**a; mod every odd prime power of N they are the units.
_TWO_VALUATION = {"quasi": 0, "semi": 1}


@dataclass(frozen=True)
class Counterexample:
    """A reducible candidate k together with its reduction witness."""

    k: int
    witness: ReductionWitness


@dataclass(frozen=True)
class ClassVerdict:
    """Outcome of one irreducibility class decision for one modulus.
    checked_k lists the candidates decided, in order, including the
    failing one when the verdict is negative: one by one, those above
    N/2 by the mirror (see the module docstring), or all of them at once
    by the lemma or the fold of a True verdict."""

    modulus: int
    kind: str  # a key of DECIDERS
    verdict: bool
    counterexample: Counterexample | None
    checked_k: tuple[int, ...]


def _decide(ring: ResidueRing, kind: str, candidates: Iterable[int]) -> ClassVerdict:
    """The one class decider (see the module docstring): Lemma 4.1 when
    N is a prime power and the candidates are units, the fold for a kind
    of _TWO_VALUATION on an even N >= FOLD_FROM, then the candidates in
    order: each k <= N/2 by the skip test and its component signatures,
    with one find_reduction for the first reducible k, or by
    find_reduction alone for an even quasi or semi N < FOLD_FROM.
    candidates ascend and are closed under k -> N - k."""
    n = ring.modulus
    # parity first: an even semi N has non-unit candidates and reads nothing
    if kind != "semi" or n % 2:
        (_, e, _), *others = ring.crt_idempotents
        if not others and (kind != "monomial" or e == 1):
            return ClassVerdict(n, kind, True, None, tuple(candidates))
    two = _TWO_VALUATION.get(kind)
    folds = two is not None and n % 2 == 0
    parts = ring.crt_idempotents
    if folds and n >= FOLD_FROM:
        classes = [(p, e, (two if p == 2 else 0,)) for p, e, _ in parts]
        if not any(components.reducible_counts(classes)):
            return ClassVerdict(n, kind, True, None, tuple(candidates))
    walk_each = folds and n < FOLD_FROM
    checked: list[int] = []
    for k in candidates:
        checked.append(k)
        if 2 * k > n:
            continue  # decided by its mirror N - k, found irreducible
        if not walk_each and (
            bordered_root_count(ring, k) <= 2 or not components.residue_reducible(k, parts)
        ):
            continue  # irreducible by its signatures, with no walk
        witness = find_reduction(ring, k)
        if witness is not None:
            return ClassVerdict(
                n, kind, False, Counterexample(k, witness), tuple(checked)
            )
        if not walk_each:
            raise RuntimeError(
                f"N={n}, k={k}: the signatures say reducible, "
                f"but find_reduction finds no witness"
            )
    return ClassVerdict(n, kind, True, None, tuple(checked))


def decide_monomial(ring: ResidueRing) -> ClassVerdict:
    """Is every nonzero minimal monomial solution irreducible?  A prime
    by Lemma 4.1, any other N by the signatures of its candidates (see
    the module docstring)."""
    return _decide(ring, "monomial", range(1, ring.modulus))


def _units(n: int) -> Iterator[int]:
    """The units mod n in [1, n), ascending and lazily, so a decider
    that stops early tests no further gcd."""
    return (k for k in range(1, n) if gcd(k, n) == 1)


def decide_quasi(ring: ResidueRing) -> ClassVerdict:
    """Is every invertible k irreducible?  A prime power by Lemma 4.1;
    any other even N >= FOLD_FROM asks the fold first; then the units,
    lazily, by their signatures (one find_reduction each below
    FOLD_FROM for an even N)."""
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
    For an odd N the candidates are the units, so this is decide_quasi's
    decision, labelled semi: Lemma 4.1 for an odd prime power, the
    signatures otherwise; an even N is decided as decide_quasi decides
    one, the fold first from FOLD_FROM on."""
    n = ring.modulus
    # 2 is a unit for an odd N, so the doubled units are the units
    return _decide(ring, "semi", _units(n) if n % 2 else semi_candidates(ring))


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

    Such a k is built from any k0 whose lambda has order 2**a * d,
    d > 1, in the group of order 2**a * m: tr M**(2n) = (tr M**n)**2 - 2
    in SL_2, so a - 2 steps of k -> k*k - 2 from k0 give k = mu + 1/mu
    with mu = lambda**(2**(a-2)) of order e = 4d.  The full 2-part 2**a
    of its order makes lambda a non-square of the group, which holds iff
    k0 + 2 is not a square mod p, since (lambda + 1)**2 = lambda *
    (k0 + 2).  The survey tries these k first (monomial._built_2_mod_4).
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
    # k = 0 is irreducible and not counted
    return ring.modulus - 1 - sum(components.reducible_counts(classes))


def sizes_table(p: int) -> list[tuple[int, int]]:
    """Rows (k, size) for k = 1 .. (p-1)//2 over a prime modulus;
    k and -k always share a size, so half the range is the whole story."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    factors: dict[int, dict[int, int]] = {}  # p -+ 1 factored once for all rows
    return [(k, _prime_size(p, 1, k, factors)[0]) for k in range(1, (p - 1) // 2 + 1)]
