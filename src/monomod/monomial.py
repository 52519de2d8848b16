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


def find_reduction_naive(ring: ResidueRing, k: int) -> ReductionWitness | None:
    """Oracle twin of find_reduction: tries every x in [0, N), not just
    the constraint roots, and multiplies the bordered product out
    directly.  Quadratic in N; intended for N <= 200."""
    n = ring.modulus
    k = ring.canon(k)
    if k == 0:
        raise ValueError("k must be nonzero")
    r, _ = minimal_size(ring, k)
    # prefix[t] = M(k)**t as entry tuples, t = 1 .. r-3
    prefix = []
    a, b, c, d = k, n - 1, 1, 0
    for _ in range(max(r - 3, 0)):
        prefix.append((a, b, c, d))
        a, b, c, d = (k * a - c) % n, (k * b - d) % n, a, b
    for t, (pa, pb, pc, pd) in enumerate(prefix, start=1):
        for x in range(n):
            # M(x) * P * M(x) with M(x) = [[x,-1],[1,0]]
            qa, qb = (x * pa - pc) % n, (x * pb - pd) % n
            wb = (n - qa) % n
            if wb != 0:
                continue
            wa = (qa * x + qb) % n
            qc, qd = pa, pb
            wc = (qc * x + qd) % n
            wd = (n - qc) % n
            if wc == 0 and wa == wd and wa in (1, n - 1):
                sign = 1 if wa == 1 else -1
                if n == 2:
                    sign = 1
                return ReductionWitness(x, t + 2, sign)
    return None


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


def _ext_pow(u: int, v: int, e: int, disc: int, p: int) -> tuple[int, int]:
    """(u + v*theta)**e in F_p[theta]/(theta**2 - disc)."""
    ru, rv = 1, 0
    while e:
        if e & 1:
            ru, rv = (ru * u + rv * v % p * disc) % p, (ru * v + rv * u) % p
        u, v = (u * u + v * v % p * disc) % p, 2 * u * v % p
        e >>= 1
    return ru, rv


def minimal_size_prime_fast(p: int, k: int) -> tuple[int, int]:
    """minimal_size over a prime modulus via the eigenvalue order.

    The eigenvalues of M(k) are (k +/- sqrt(k**2-4))/2, living in F_p or
    F_{p**2}.  With e the order of lambda = (k+theta)/2 in
    F_p[theta]/(theta**2-(k**2-4)): r = e and eps = +1 when e is odd,
    r = e/2 and eps = -1 when e is even.  k = +/-2 mod p is the repeated
    eigenvalue case with r = p; k = 0 gives M(0)**2 = -Id.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    k %= p
    if p == 2:
        return core.order_pm(2, k, 9)
    if k == 0:
        return 2, -1
    disc = (k * k - 4) % p
    if disc == 0:
        return (p, 1) if k == 2 else (p, -1)
    # Euler's criterion: split => lambda in F_p* of order dividing p-1;
    # inert => lambda has norm 1, order dividing p+1.
    group = p - 1 if pow(disc, (p - 1) // 2, p) == 1 else p + 1
    inv2 = (p + 1) // 2
    lu, lv = k * inv2 % p, inv2
    e = group
    for q in factorize(group):
        while e % q == 0 and _ext_pow(lu, lv, e // q, disc, p) == (1, 0):
            e //= q
    if e % 2 == 1:
        return e, 1
    return e // 2, -1
