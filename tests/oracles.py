"""Slow twins of library answers, kept as test oracles.

Each one recomputes an answer the library gives by a shorter path, by
brute force or by a second method, so the tests can compare the two:

  * find_reduction_naive: every border x in [0, N), products multiplied
    out, against monomial.find_reduction;
  * units_only: the full reducible set of one modulus, against the
    theorem that irreducibility is invertibility exactly for N = 2 and
    the odd prime powers;
  * survey_spot_check: the generic walk on a sample of the prime
    survey's (p, k) pairs, against its powers of M(k);
  * semi_candidates_by_gcd: one gcd per a < N/2, against the sieve of
    classify.semi_candidates;
  * euler_phi: Euler's totient from a fresh factorization, against the
    phi that classify and scan read from a ring's prime powers;
  * walk_signature: the (O, hits) signature of one k mod q from a walk
    of M(k), against the closed-form class tables of the components
    module and its merge;
  * prime_power_size: the minimal size mod p**e by descent from a known
    multiple, against the walk and the closed-form unit classes.
"""

from __future__ import annotations

from math import gcd

from monomod import core, scan
from monomod._numbers import factorize, sieve_primes
from monomod.classify import reducible_set
from monomod.components import Signature
from monomod.modring import ResidueRing
from monomod.monomial import ReductionWitness, _multiple, minimal_size


def find_reduction_naive(ring: ResidueRing, k: int) -> ReductionWitness | None:
    """Twin of find_reduction: tries every x in [0, N), not just the
    constraint roots, and multiplies the bordered product out directly.
    Quadratic in N; intended for N <= 200."""
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
                return ReductionWitness(x, t + 2, 1 if wa == 1 else -1)
    return None


def euler_phi(n: int) -> int:
    """Euler's totient via the factorization of n."""
    if n < 1:
        raise ValueError("euler_phi expects a positive integer")
    out = n
    for p in factorize(n):
        out = out // p * (p - 1)
    return out


def walk_signature(q: int, k: int) -> Signature:
    """(O, hits) of k mod q, from one walk of M(k) to its order r up to
    sign.  When M**r = -Id, O = 2r and M**(t+r) = -M**t repeats each hit
    (s, t, ...) as (-s, t + r, ...) with the same border."""
    k %= q
    m = q - 1
    hits = set()
    a, c, t = 1, 0, 0  # (a_t, a_{t-1})
    while True:
        if a == 1 or a == m:
            x = c if a == 1 else -c % q
            if a == 1:
                hits.add((-1, t, x == 0, x == k))
            if a == m:  # also for q = 2, where 1 = -1
                hits.add((1, t, x == 0, x == k))
        a, c = (k * a - c) % q, a
        t += 1
        if c == 0 and (a == 1 or a == m):
            break
    if a == 1:
        return t, frozenset(hits)
    return 2 * t, frozenset(hits | {(-s, u + t, z, w) for s, u, z, w in hits})


def prime_power_size(p: int, e: int, k: int) -> tuple[int, int]:
    """minimal_size(p**e, k) for a prime p by descent from a known
    multiple, with no walk.

    The kernel of SL_2(Z/p**e) -> SL_2(Z/p) has exponent p**(e-1), since
    (Id + p**i*A)**p = Id + p**(i+1)*A' for i >= 1, p = 2 included; so
    M(k)**(g*p**(e-1)) = Id with g from monomial._multiple.  The t with
    M(k)**t = +/-Id are the multiples of r, so r comes from that
    multiple by dividing out each of its primes while the power stays
    +/-Id, one core.power_pm each."""
    q = p**e
    r, eps = _multiple(p, k) * p ** (e - 1), 1  # M(k)**r = Id
    for f in factorize(r):
        # r // f = 1 needs no power: M(k) itself is never +/-Id
        while r % f == 0 and r > f and (s := core.power_pm(q, k, r // f)):
            r, eps = r // f, s
    return r, eps


def units_only(ring: ResidueRing) -> bool:
    """Does irreducibility coincide exactly with invertibility?
    (Holds precisely for N = 2 and odd prime powers.)"""
    n = ring.modulus
    return reducible_set(ring) == [k for k in range(1, n) if gcd(k, n) != 1]


def semi_candidates_by_gcd(n: int) -> list[int]:
    """Twin of semi_candidates: the doubled units 2a, a in [1, N/2)
    coprime to N (to N/2 when N = 2 mod 4), by one gcd each; for odd N
    the units themselves."""
    if n % 2:
        return [k for k in range(1, n) if gcd(k, n) == 1]
    base = n // 2 if n % 4 == 2 else n
    return [2 * a for a in range(1, n // 2) if gcd(a, base) == 1]


def survey_spot_check(max_prime: int, sample_den: int) -> tuple[list[int], list[dict]]:
    """The prime survey's survivors and the anomalies of a deterministic
    spot check.

    Walks the (p, k) pairs scan.scan_conjecture examines, stopping each
    prime at its first k with r = 2 mod 4.  A pair with
    (p*1009 + k*101) % sample_den == 0 is recomputed with the generic
    walk, and reported when the walk's (r, eps) differs from
    minimal_size_prime_fast's or its r = 2 mod 4 verdict from
    _size_is_2_mod_4's.  Both are read from scan, the survey's own
    bindings, so a fault patched in there shows here.  The survivors
    must equal scan_conjecture(max_prime)'s."""
    survivors = []
    anomalies: list[dict] = []
    for p in sieve_primes(max_prime)[1:]:  # the odd primes
        for k in range(1, (p - 1) // 2 + 1):
            hit = scan._size_is_2_mod_4(p, k)
            if (p * 1009 + k * 101) % sample_den == 0:
                fast = scan.minimal_size_prime_fast(p, k)
                walked = minimal_size(ResidueRing(p), k)
                if walked != fast or hit != (walked[0] % 4 == 2):
                    anomalies.append(
                        {"p": p, "k": k, "fast": list(fast), "walk": list(walked)}
                    )
            if hit:
                break
        else:
            survivors.append(p)
    assert survivors == scan.scan_conjecture(max_prime), max_prime
    return survivors, anomalies
