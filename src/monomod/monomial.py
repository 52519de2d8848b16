"""Minimal monomial solutions: size, sign, and the irreducibility
decision with witness extraction.

For a residue k, the k-monomial minimal solution is (k, ..., k) of
length r, where r is the least n >= 1 with M(k)**n = +/-Id, i.e. the
order of M(k) = [[k,-1],[1,0]] in PSL_2(Z/NZ).  It is reducible exactly
when some bordered solution (x, k, ..., k, x) of length 3 <= l <= r-1
exists; the complementary summand (k-x, k, ..., k, k-x) of length
r-l+2 is then automatically a solution, so one bordered tuple is a
complete witness.

Over a prime modulus, minimal_size_prime_fast finds the order from a
few powers of M(k) instead of a walk.  _prime_size is the one descent:
modulo a prime power p**e it starts from g*p**(e-1), and it gives the
class deciders the signature of one unit k mod p**e (see the components
module) with no walk.  For the prime survey, _size_is_2_mod_4 tells
r = 2 (mod 4) from one power, and _built_2_mod_4 builds the k that have
it from traces of powers of M(k0), so the survey need not search for
them.  The class deciders of the classify module read a False
verdict's witness from the component signatures and one power of M(k),
with no walk; they call find_reduction once per candidate only for an
even quasi or semi N below classify.FOLD_FROM, and the tests check
every signature witness against it.
"""

from __future__ import annotations

from typing import Iterator

from . import core
from ._numbers import factorize, is_prime
from .modring import ResidueRing, _Value
from .solutions import bordered_constraint_roots, bordered_root_count

__all__ = [
    "MonomialReport",
    "ReductionWitness",
    "find_reduction",
    "minimal_size",
    "minimal_size_prime_fast",
    "report",
]


class ReductionWitness(_Value):
    """A bordered solution (x, k, ..., k, x) of the given length and sign."""

    __slots__ = _fields = ("x", "length", "sign")

    def __init__(self, x: int, length: int, sign: int) -> None:
        self._set(x, length, sign)


class MonomialReport(_Value):
    """Everything about one (N, k): minimal size r, the sign of
    M(k)**r, the irreducibility verdict, and a witness when reducible."""

    __slots__ = _fields = ("modulus", "k", "size", "sign", "irreducible", "witness")

    def __init__(
        self,
        modulus: int,
        k: int,
        size: int,
        sign: int,
        irreducible: bool,
        witness: ReductionWitness | None,
    ) -> None:
        self._set(modulus, k, size, sign, irreducible, witness)


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
    """A multiple g of the order of M(k) in SL_2(F_p), so M(k)**g = Id
    mod p.  Mod 2, M(k) is M(0), of order 2, or M(1), of order 3.  For
    odd p and k = +/-2, M = +/-(Id + A) with A nilpotent, so M**p = +/-Id:
    g = p for k = 2 and 2p for k = -2.  Otherwise the eigenvalues
    (k +/- sqrt(k*k-4))/2 are distinct and, by Euler's criterion, lie in
    F_p* (order p - 1) or in the norm-1 torus of F_{p**2} (order p + 1)."""
    k %= p
    if p == 2:
        return 3 if k else 2
    if k == 2 or k == p - 2:
        return p if k == 2 else 2 * p
    return p - 1 if pow(k * k - 4, (p - 1) // 2, p) == 1 else p + 1


def _size_is_2_mod_4(p: int, k: int) -> bool:
    """Is minimal_size_prime_fast(p, k)[0] = 2 (mod 4)?  p must be an
    odd prime; it is not checked.

    Over F_p a determinant-1 matrix whose square is Id is +/-Id, so an
    even r has eps = -1, and r = 2 mod 4 iff M(k) has order 4d, d odd, in
    SL_2(F_p).  With g = 2**a * m (see _multiple), m odd, that holds iff
    a >= 2 and M(k)**(2m) = -Id: the order divides 4m but not 2m.  One
    power instead of the full order; g = p or 2p (k = +/-2) is never
    0 mod 4, and r = p there.  scan.scan_conjecture asks it first about
    the k of _built_2_mod_4, which all pass, and then about [1, (p-1)/2]
    in ascending order, which only a prime with no k built needs.
    """
    g = _multiple(p, k)
    return g % 4 == 0 and core.power_pm(p, k, 2 * g // (g & -g)) == -1


def _built_2_mod_4(p: int) -> Iterator[int]:
    """The k in [1, (p-1)/2] with r = 2 (mod 4) over an odd prime p, which
    is not checked, that the proof of classify.predict_conjecture
    builds, lazily.

    Let s = 2**a * m, m odd, be whichever of p -+ 1 is 0 mod 4.  Each k0
    with _multiple(p, k0) = s has its eigenvalue lam in a cyclic group
    of order s.  Then k1 = tr M(k0)**(2**(a-2)) = mu + 1/mu with
    mu = lam**(2**(a-2)): a - 2 steps of k -> k*k - 2, since
    tr M**(2n) = (tr M**n)**2 - 2 in SL_2.  When lam has order 2**a * d,
    the full 2-part, with d > 1, mu has order 4d, so M(k1)**(2d) = -Id
    and r(k1) = 2d.  The full 2-part means that lam is not a square in
    its group.  Now (lam + 1)**2 = lam * (k0 + 2), so the square roots of
    lam are +/-(lam + 1)/sqrt(k0 + 2), and they lie in lam's group (F_p*,
    or the norm-1 torus, where N(lam + 1) = k0 + 2) iff k0 + 2 is a
    square mod p: only the other k0 are used.  d = 1 gives k1 = 0, which
    is left out (r = 2, but the survey leaves k = 0 out).  So every k
    given has r = 2 mod 4.  -k0 has eigenvalue -lam, a non-square with
    lam since -1 = lam**(s/2) is a square, and gives k1 up to sign; so
    k0 runs over [3, (p-1)/2] and k1 is folded to min(k1, p - k1).  For
    m = 1, a Fermat or a Mersenne prime, nothing is built.  The survey
    still tests each k given with _size_is_2_mod_4.
    """
    s = p - 1 if p % 4 == 1 else p + 1
    if s == s & -s:  # m = 1
        return
    steps = (s & -s).bit_length() - 3  # a - 2
    for k0 in range(3, (p + 1) // 2):
        if _multiple(p, k0) == s and pow(k0 + 2, (p - 1) // 2, p) != 1:
            k = k0
            for _ in range(steps):
                k = (k * k - 2) % p
            if k:
                yield min(k, p - k)


def minimal_size_prime_fast(p: int, k: int) -> tuple[int, int]:
    """minimal_size over a prime modulus, from a few powers of M(k):
    _prime_size, so no walk runs.  When only r mod 4 matters, as in the
    prime survey, _size_is_2_mod_4 answers with one power, and
    _built_2_mod_4 builds the k to ask about.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _prime_size(p, 1, k, {})


def _prime_size(
    p: int, e: int, k: int, factors: dict[int, dict[int, int]]
) -> tuple[int, int]:
    """minimal_size(p**e, k) for a prime p, which is not checked, by
    descent from a known multiple of the order.

    The kernel of SL_2(Z/p**e) -> SL_2(Z/p) has exponent p**(e-1), since
    (Id + p**i*A)**p = Id + p**(i+1)*A' for i >= 1, p = 2 included; so
    M(k)**(g*p**(e-1)) = Id with g from _multiple.  The t with
    M(k)**t = +/-Id are the multiples of r, so r comes from that
    multiple by dividing out one prime at a time while the power stays
    +/-Id, one core.power_pm each: the primes of g, then p when e >= 2.
    For g = 2, 3, p or 2p only 2 can leave of g itself: that g is the
    order of M(k) mod p, so r is g or g/2 when e = 1.  factors
    maps each g = p -+ 1 already factored to its factorization and gains
    the one this k needs, so classify.sizes_table, which passes the same
    dict for every k, factors each of p -+ 1 at most once.  The
    components module reads the descent for the signature of one unit
    k mod p**e (components.residue_signature); its class tables are in
    closed form and reach no power.
    """
    g = _multiple(p, k)
    if p > 2 and g % p:  # p -+ 1
        if g not in factors:
            factors[g] = factorize(g)
        primes = list(factors[g])
    else:
        primes = [2]
    if e > 1 and p > 2:  # 2 is listed already
        primes.append(p)
    q = p**e
    r, eps = g * p ** (e - 1), 1  # M(k)**r = Id
    for f in primes:
        # r // f = 1 needs no power: M(k) itself is never +/-Id
        while r % f == 0 and r > f and (s := core.power_pm(q, k, r // f)):
            r, eps = r // f, s
    return r, eps
