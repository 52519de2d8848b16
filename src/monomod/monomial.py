"""Minimal monomial solutions: size, sign, and the irreducibility
decision with witness extraction.

For a residue k, the k-monomial minimal solution is (k, ..., k) of
length r, where r is the least n >= 1 with M(k)**n = +/-Id, i.e. the
order of M(k) = [[k,-1],[1,0]] in PSL_2(Z/NZ).  It is reducible exactly
when some bordered solution (x, k, ..., k, x) of length 3 <= l <= r-1
exists; the complementary summand (k-x, k, ..., k, k-x) of length
r-l+2 is then automatically a solution, so one bordered tuple is a
complete witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import core
from ._numbers import factorize, is_prime
from .modring import ResidueRing
from .solutions import bordered_constraint_roots, bordered_root_count

__all__ = [
    "MonomialReport",
    "ReductionWitness",
    "find_reduction",
    "minimal_size",
    "minimal_size_prime_fast",
    "report",
]


@dataclass(frozen=True)
class ReductionWitness:
    """A bordered solution (x, k, ..., k, x) of the given length and sign."""

    x: int
    length: int
    sign: int


@dataclass(frozen=True)
class MonomialReport:
    """Everything about one (N, k): minimal size r, the sign of
    M(k)**r, the irreducibility verdict, and a witness when reducible."""

    modulus: int
    k: int
    size: int
    sign: int
    irreducible: bool
    witness: ReductionWitness | None


def _cap(n: int) -> int:
    # |SL_2(Z/NZ)| < N**3, so any order fits well below this; the cap
    # exists to turn a broken walk into a loud failure.
    return n**3 + 1


def minimal_size(ring: ResidueRing, k: int) -> tuple[int, int]:
    """(r, eps): least r >= 1 with M(k)**r = eps * Id."""
    n = ring.modulus
    return core.order_pm(n, ring.canon(k), _cap(n))


def _walk(
    ring: ResidueRing, k: int, *, stop_at_match: bool = False
) -> tuple[int, int, ReductionWitness | None]:
    """Shared engine for a canonical k with a border candidate besides 0
    and k: order, sign, and the tie-broken first witness.  With
    stop_at_match only the witness is meaningful; r and eps are what
    core.order_and_reduction returns for a walk cut short."""
    n = ring.modulus
    # 0 and k satisfy the border constraint trivially but can only match
    # at lengths r and r+2 (x=0) or multiples of r (x=k), never <= r-1.
    roots = tuple(x for x in bordered_constraint_roots(ring, k) if x not in (0, k))
    r, eps, t0, x0, s0 = core.order_and_reduction(
        n, k, roots, _cap(n), stop_at_match=stop_at_match
    )
    # a match always has t0 <= r - 3 (see the core module docstring)
    witness = ReductionWitness(x0, t0 + 2, s0) if t0 else None
    return r, eps, witness


def find_reduction(ring: ResidueRing, k: int) -> ReductionWitness | None:
    """First bordered witness in (length, x) order, or None.

    Only border values x with x*(x-k) = 0 mod N are examined; any
    bordered solution satisfies that constraint, so nothing is missed.
    When 0 and k are the only such values there is nothing to walk for,
    and otherwise the walk stops at its first match.  k = 0 is rejected:
    the 0-monomial minimal solution (0, 0) is outside the reducibility
    question.
    """
    k = ring.canon(k)
    if k == 0:
        raise ValueError("k must be nonzero")
    if bordered_root_count(ring, k) <= 2:
        return None
    return _walk(ring, k, stop_at_match=True)[2]


def report(ring: ResidueRing, k: int) -> MonomialReport:
    """Assemble size, sign, verdict and witness for one (N, k).

    k = 0 short-circuits: the minimal solution (0, 0) has size 2, sign
    -Id, and does not count as irreducible, with no witness attached.
    """
    n = ring.modulus
    k = ring.canon(k)
    if k == 0:
        r, eps = minimal_size(ring, 0)
        return MonomialReport(n, 0, r, eps, False, None)
    if bordered_root_count(ring, k) <= 2:
        # no border besides 0 and k, so no witness: only the order is walked
        r, eps = minimal_size(ring, k)
        return MonomialReport(n, k, r, eps, True, None)
    r, eps, witness = _walk(ring, k)
    return MonomialReport(n, k, r, eps, witness is None, witness)


def _multiple(p: int, k: int) -> int:
    """A multiple g of the order of M(k) in SL_2(F_p), for k not +/-2
    mod an odd p.  |SL_2(F_2)| = 6.  For odd p the eigenvalues
    (k +/- sqrt(k*k-4))/2 are distinct and, by Euler's criterion, lie in
    F_p* (order p - 1) or in the norm-1 torus of F_{p**2} (order p + 1)."""
    if p == 2:
        return 6
    return p - 1 if pow(k * k - 4, (p - 1) // 2, p) == 1 else p + 1


def _size_is_2_mod_4(p: int, k: int) -> bool:
    """Is minimal_size_prime_fast(p, k)[0] = 2 (mod 4)?  p must be an
    odd prime; it is not checked.

    Over F_p a determinant-1 matrix whose square is Id is +/-Id, so an
    even r has eps = -1, and r = 2 mod 4 iff M(k) has order 4d, d odd, in
    SL_2(F_p).  With g = 2**a * m (see _multiple), m odd, that holds iff
    a >= 2 and M(k)**(2m) = -Id: the order divides 4m but not 2m.  One
    power instead of the full order; k = +/-2 gives r = p, which is odd.
    """
    k %= p
    if k in (2, p - 2):
        return False
    g = _multiple(p, k)
    return g % 4 == 0 and core.power_pm(p, k, 2 * g // (g & -g)) == -1


def minimal_size_prime_fast(p: int, k: int) -> tuple[int, int]:
    """minimal_size over a prime modulus, from a few powers of M(k).

    The t with M(k)**t = +/-Id are the multiples of r, so r comes from a
    multiple (see _multiple) by dividing out one prime at a time while
    the power stays +/-Id, one core.power_pm each; no walk runs.  k = +/-2
    mod an odd p gives r = p.  When only r mod 4 matters, as in the prime
    survey, _size_is_2_mod_4 answers with one power.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _prime_size(p, k, {})


def _prime_size(p: int, k: int, factors: dict[int, dict[int, int]]) -> tuple[int, int]:
    """minimal_size_prime_fast(p, k) for a prime p, which is not checked.
    factors maps each multiple already factored to its factorization and
    gains the one this k needs, so a table of sizes over one prime that
    passes the same dict for every k factors each of p -+ 1 at most once."""
    k %= p
    if p > 2 and k in (2, p - 2):
        return (p, 1) if k == 2 else (p, -1)
    g = _multiple(p, k)
    if g not in factors:
        factors[g] = factorize(g)
    r, eps = g, 1  # M(k)**g = Id
    for q in factors[g]:
        while r % q == 0 and (s := core.power_pm(p, k, r // q)):
            r, eps = r // q, s
    return r, eps
