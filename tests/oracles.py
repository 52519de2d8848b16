"""Slow twins of library answers, kept as test oracles.

Each one recomputes an answer the library gives by a shorter path, by
brute force or by a second method, so the tests can compare the two:

  * find_reduction_naive: every border x in [0, N), products multiplied
    out, against monomial.find_reduction;
  * units_only: the full reducible set of one modulus, against the
    theorem that irreducibility is invertibility exactly for N = 2 and
    the odd prime powers;
  * survey_by_scan: the prime survey by the ascending scan of every k
    alone, against scan.scan_conjecture, which tries first the k that
    the proof of classify.predict_conjecture builds;
  * survey_spot_check: the generic walk on a sample of the (p, k) pairs
    of survey_by_scan, against the survey's powers of M(k);
  * semi_candidates_by_gcd: one gcd per a < N/2, against the sieve of
    classify.semi_candidates;
  * euler_phi: Euler's totient from a fresh factorization, against the
    phi that classify and scan read from a ring's prime powers;
  * walk_signature: the (O, hits) signature of one k mod q from a walk
    of M(k), against the closed-form class tables of the components
    module and its merge;
  * decide_by_loop: a class verdict by the ascending candidate loop
    alone, one find_reduction per candidate, against classify's
    deciders, which ask the fold and the per-k signatures first.

The minimal size mod p**e has no twin here: the library's one descent,
monomial._prime_size, is checked against the walk and against the
closed-form unit classes of the components module.
"""

from __future__ import annotations

from math import gcd
from typing import Callable

from monomod import scan
from monomod._numbers import factorize, sieve_primes
from monomod.classify import ClassVerdict, Counterexample, reducible_set
from monomod.components import Signature
from monomod.modring import ResidueRing
from monomod.monomial import ReductionWitness, find_reduction, minimal_size


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


def decide_by_loop(ring: ResidueRing, kind: str) -> ClassVerdict:
    """Twin of the class deciders with no lemma, fold or signature, for
    any kind and any N, odd or even: the candidates (by gcd for quasi and
    semi), ascending, each k <= N/2 by find_reduction and each k > N/2
    by its mirror N - k, up to the first reducible one."""
    n = ring.modulus
    if kind == "monomial":
        candidates = list(range(1, n))
    elif kind == "semi":
        candidates = semi_candidates_by_gcd(n)
    else:
        candidates = [k for k in range(1, n) if gcd(k, n) == 1]
    checked = []
    for k in candidates:
        checked.append(k)
        witness = find_reduction(ring, k) if 2 * k <= n else None
        if witness is not None:
            return ClassVerdict(n, kind, False, Counterexample(k, witness), tuple(checked))
    return ClassVerdict(n, kind, True, None, tuple(checked))


def survey_by_scan(
    max_prime: int, size_is_2_mod_4: Callable[[int, int], bool] | None = None
) -> list[int]:
    """Twin of scan.scan_conjecture with nothing built: each odd prime
    p scans k = 1, 2, ... up to (p-1)/2 and stops at its first k with
    r = 2 mod 4, which minimal_size_prime_fast must confirm, as the
    survey did before it built its k.  The 2-part test is
    size_is_2_mod_4, scan's own binding when None; both it and the
    confirmation are read from scan, so a fault patched in there shows
    here too."""
    test = size_is_2_mod_4 or scan._size_is_2_mod_4
    survivors = []
    for p in sieve_primes(max_prime)[1:]:  # the odd primes
        for k in range(1, (p - 1) // 2 + 1):
            if test(p, k):
                r, _ = scan.minimal_size_prime_fast(p, k)
                if r % 4 != 2:
                    raise RuntimeError(f"p={p}, k={k}: r={r} is not 2 mod 4")
                break
        else:
            survivors.append(p)
    return survivors


def survey_spot_check(max_prime: int, sample_den: int) -> tuple[list[int], list[dict]]:
    """The prime survey's survivors and the anomalies of a deterministic
    spot check.

    Runs survey_by_scan, whose ascending scan reaches every k up to each
    prime's first k with r = 2 mod 4.  A pair with
    (p*1009 + k*101) % sample_den == 0 is recomputed with the generic
    walk, and reported when the walk's (r, eps) differs from
    minimal_size_prime_fast's or its r = 2 mod 4 verdict from
    _size_is_2_mod_4's.  Both are read from scan, the survey's own
    bindings, so a fault patched in there shows here.  The survivors
    must equal scan_conjecture(max_prime)'s."""
    anomalies: list[dict] = []

    def sampled(p: int, k: int) -> bool:
        hit = scan._size_is_2_mod_4(p, k)
        if (p * 1009 + k * 101) % sample_den == 0:
            fast = scan.minimal_size_prime_fast(p, k)
            walked = minimal_size(ResidueRing(p), k)
            if walked != fast or hit != (walked[0] % 4 == 2):
                anomalies.append({"p": p, "k": k, "fast": list(fast), "walk": list(walked)})
        return hit

    survivors = survey_by_scan(max_prime, sampled)
    assert survivors == scan.scan_conjecture(max_prime), max_prime
    return survivors, anomalies
