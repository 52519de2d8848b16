"""Irreducible residues counted by a fold over the prime-power
components of N.

Whether k is reducible mod N depends only on k mod each q = p**e
exactly dividing N, through a small signature; residues with equal
signatures are counted together, so a count costs a few tables per
component and one product of them, not one walk per k.  One fold,
irreducible_count, counts over any classes given per component:
omega(N) over every residue (for classify.omega_count, whose oracle is
the k-loop of classify.reducible_set), and the semi candidates of an
even N over the units of each odd q and the k with v_2(k) = 1 mod 2**a
(for classify.decide_semi, whose oracle is its own candidate loop).

Hits.  With M = M(k) and a_t as in the core module (a_{-1} = 0,
a_0 = 1, M**t = [[a_t, -a_{t-1}], [a_{t-1}, ...]]), the core match rule
says M**t = s*(M(x)**-1)**2 exactly when a_t = -s and x = a_t*a_{t-1}.
Call such a t a hit with sign s and border x.  k is reducible mod N iff
some hit has x not 0 and not k: a hit at t is one at t mod r with the
same x (M**(t+r) = eps*M**t flips a_t and a_{t-1} together), a hit at
t = 0 mod r has x = 0 (M**t = +/-Id, a_{t-1} = 0), t = -1 mod r is no
hit (a_t = 0) and a hit at t = -2 mod r has x = k (M**t = eps*M**-2);
so every other hit lies in [1, r-3], a bordered witness of length t+2.
M**t depends on t mod O, the order of M in SL_2(Z/NZ), so the hits in
[0, O) are all of them.

Signature of k mod q: (O, hits), O the least t >= 1 with M**t = Id
mod q and hits the set of (s, t, x = 0?, x = k?) over the hits t in
[0, O) mod q.  For q = 2 the signs coincide and each hit is listed
with both.

Merge.  By the CRT, M**t = Id mod q1*q2 iff it is mod both, so the
order of a merged part is lcm(O1, O2); t is a hit mod q1*q2 with sign
s iff t mod O1 and t mod O2 are hits with sign s, i.e. a pair of hits
of equal sign with t1 = t2 mod gcd(O1, O2), whose t is their
generalised CRT solution; and x = 0 (or x = k) mod q1*q2 iff it is mod
both, so the flags are ANDed.  A flag can still turn false in a later
merge and a hit can still find no partner, so no part is judged before
the last merge, and that one only asks whether some pair of hits
leaves both flags false.  The empty product is the part
(1, {(+1, 0, T, T), (-1, 0, T, T)}), which every merge leaves as it is.

k = 0 is never reducible: consecutive a_t of M(0) are 1, 0, -1, 0, so
every hit has x = 0 = k in each component.  So omega is the number of
irreducible residues mod N, minus one.

Tables.  class_table(p, e, v) holds the (signature, count) pairs
over the k mod q = p**e of p-adic valuation v, 0 <= v <= e: v = 0 is
the units, read from the orders of M, and each v >= 1 is one walk.  A
question names the classes it counts per component: omega all of
them, v = 0 .. e, and the semi candidates v = 0 of each odd q and
v = 1 of 2**a.

  * Unit k mod q, q > 2: p cannot divide both x and x - k, whose
    difference is k, so x*(x-k) = 0 mod p**e forces x = 0 or x = k,
    and the hits are exactly where M**t or M**(t+2) is +/-Id:
    (-1, 0, T, F) and (+1, O-2, F, T), and with M**(O/2) = -Id also
    (+1, O/2, T, F) and (-1, O/2-2, F, T).  The signature is fixed by
    O and whether -Id is a power of M.  For q = 2, 1 = -1 makes every
    hit one of both signs, so both residues mod 2 are walked.
  * Odd p, unit k not +/-2 mod p: M mod p has distinct eigenvalues
    lambda, 1/lambda in F_p* or in the norm-1 torus of F_{p**2}, of
    order d dividing p - 1 or p + 1, and the phi(d)/2 pairs of order
    d give the k of order d; d = 1, 2 is k = +/-2 and d = 4 is k = 0,
    so d > 2, d != 4 (d dividing both p -+ 1 divides 2).  Mod p**e the
    eigenvalues live in a cyclic group of order (p -+ 1)*p**(e-1),
    Hensel's lemma lifts them (the discriminant k*k - 4 is a unit),
    and the p**(e-1) lifts of lambda are lambda*u for u in the cyclic
    p-part, of order d*ord(u).  The lifts of k and of lambda pair up
    one to one (the other eigenvalue is a different residue mod p), so
    each class of order d lifts to 1 residue of order d and
    p**j - p**(j-1) of order d*p**j, 1 <= j < e.  The cyclic group
    holds one element of order 2, -1, so -Id is a power iff d is even.
  * The ladder: odd p with k = +/-2 mod p, and p = 2 with k odd,
    e >= 2.  Here the order of M mod p**e is not fixed by the class of
    k mod p, so each residue takes its minimal size (r, eps) from
    monomial._prime_power_size, a descent from a known multiple of the
    order (proved there) by a few core.power_pm.  <M> is cyclic and
    -Id != Id as q > 2, so -Id is a power iff eps = -1, and O = r for
    eps = +1, 2r for eps = -1.
  * Non-units: k = p**v * u, u a unit, 1 <= v <= e - 1 (so e >= 2),
    y = k*k.  The signature depends on v alone, so k = p**v is walked
    once for the (p-1)*p**(e-v-1) residues of valuation v, and k = 0
    once for itself.  Proof: a_t is a polynomial in k of the parity of
    t, and with C the binomial coefficient,
        a_{2j} = (-1)**j * (1 + A_j),  a_{2j-1} = (-1)**(j-1) * k * B_j,
        A_j = sum_{i>=1} (-1)**i * C(j+i, 2i) * y**i,
        B_j = sum_{i>=0} (-1)**i * C(j+i, 2i+1) * y**i.
    An odd t is no hit, as p | k | a_t.  v_p(A_j) >= 2v >= 2 rules out
    A_j = -2 mod p**e, so t = 2j is a hit iff v_p(A_j) >= e, with sign
    s = -(-1)**j; there x = a_{2j}*a_{2j-1} = -k*B_j, so x = 0 iff
    v + v_p(B_j) >= e and x = k iff v + v_p(B_j + 1) >= e; and
    M**(2j) = Id iff moreover x = 0 and j is even (A_j = -2 again
    being impossible).  Each valuation depends on j and v only:
        v_p(A_j) = v_p(j*(j+1)/2) + 2v,  v_p(B_j) = v_p(j),
        v_p(B_j + 1) = v_p(j+1).
    Against the leading terms (i = 1 in A_j, i = 0 in B_j), the term i
    gains at least 2(i-1)v + v_p(2) - v_p((2i)!) in A_j, and
    2iv - v_p((2i+1)!) in B_j and B_j + 1, since the numerators of
    C(j+i, 2i) and C(j+i, 2i+1) hold the factors j and j + 1.  With
    v >= 1, v_p(n!) <= (n-1)/(p-1) and v_2((2i+1)!) = v_2((2i)!), that
    gain is positive, except in A_j for p = 2, where it can be 0; there
    the numerator also holds j - 1 and j + 2, and one of them is even.

Cache.  A table depends on (p, e, v) alone and a pair test on its two
signatures alone, so class_table is cached by its arguments and merge
and reducible by their pair, each in a bounded least-recently-used
cache (TABLE_CACHE tables, PAIR_CACHE pairs per test).  A table is a
tuple, so every caller may share the cached one.  scan.run_scan
empties the caches at its start, through clear_caches, so a scan does
the same work whatever ran before it.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import gcd
from typing import Iterable

from ._numbers import divisor_phis, inv_mod
from .monomial import _prime_power_size

# classify.omega_count and classify.decide_semi are the callers, so
# nothing here is public.
__all__: list[str] = []

Hit = tuple[int, int, bool, bool]  # (s, t, x = 0?, x = k?)
Signature = tuple[int, frozenset[Hit]]  # (O, hits)
Table = tuple[tuple[Signature, int], ...]  # (signature, count) pairs

EMPTY_PRODUCT: Signature = (1, frozenset({(1, 0, True, True), (-1, 0, True, True)}))

# Entries kept per cache (see the module docstring).  An omega scan of
# 2..400 needs 226 class tables, 147 merges and 3,128 pair tests, so it
# fits whole.  Of 2..5000 (1,524, 1,539 and 57,226) in one process,
# these bounds give a peak RSS of 20 MB and 1.3-1.6 s (3 runs on a
# shared 2-core machine); pair tests beyond PAIR_CACHE are rebuilt.
TABLE_CACHE = 512  # (p, e, v)
PAIR_CACHE = 4096  # signature pairs


def clear_caches() -> None:
    """Empty the caches of the tables and of the pair tests, so the work
    that follows does not depend on what ran before it."""
    for cached in (class_table, merge, reducible):
        cached.cache_clear()


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


def unit_signature(order: int, minus_id: bool) -> Signature:
    """The signature of a unit k mod any q > 2 whose M(k) has this
    order, with -Id among its powers or not."""
    hits = {(-1, 0, True, False), (1, order - 2, False, True)}
    if minus_id:
        half = order // 2
        hits |= {(1, half, True, False), (-1, half - 2, False, True)}
    return order, frozenset(hits)


@lru_cache(maxsize=TABLE_CACHE)
def class_table(p: int, e: int, v: int) -> Table:
    """(signature, count) pairs over the k mod p**e of p-adic valuation
    v, 0 <= v <= e (see the module docstring): k = 0 alone for v = e;
    one walk of k = p**v for the other non-units, and for the one unit
    mod 2; the units of q > 2 in closed form per class of k mod p, and
    on the ladder from each residue's minimal size."""
    q = p**e
    if v == e:
        return ((walk_signature(q, 0), 1),)
    if v or q == 2:  # for q = 2, 1 = -1, so unit_signature does not apply
        return ((walk_signature(q, p**v), (p - 1) * p ** (e - v - 1)),)
    table: Counter[Signature] = Counter()
    for side in (p - 1, p + 1) if p > 2 else ():  # mod 2**e every unit is on the ladder
        for d, phi in divisor_phis(side):
            if d <= 2 or d == 4:
                continue
            classes = phi // 2
            table[unit_signature(d, d % 2 == 0)] += classes
            for j in range(1, e):
                lifts = classes * (p**j - p ** (j - 1))
                table[unit_signature(d * p**j, d % 2 == 0)] += lifts
    for base in (1,) if p == 2 else (2, p - 2):  # the ladder
        for k in range(base, q, p):
            r, eps = _prime_power_size(p, e, k, {})
            table[unit_signature(r if eps == 1 else 2 * r, eps == -1)] += 1
    return tuple(table.items())


@lru_cache(maxsize=PAIR_CACHE)
def merge(one: Signature, two: Signature) -> Signature:
    """The signature of a residue of two coprime parts (see the module
    docstring)."""
    (o1, hits1), (o2, hits2) = one, two
    g = gcd(o1, o2)
    m = o2 // g
    u = inv_mod(o1 // g, m)  # o1/g * u = 1 mod o2/g
    hits = set()
    for s, t1, z1, w1 in hits1:
        for s2, t2, z2, w2 in hits2:
            if s2 == s and (t2 - t1) % g == 0:
                # generalised CRT: t = t1 + o1*y with o1*y = t2 - t1 mod o2
                t = t1 + o1 * ((t2 - t1) // g * u % m)
                hits.add((s, t, z1 and z2, w1 and w2))
    return o1 * m, frozenset(hits)


@lru_cache(maxsize=PAIR_CACHE)
def reducible(one: Signature, two: Signature) -> bool:
    """Does merge(one, two) have a hit with both flags false?"""
    (o1, hits1), (o2, hits2) = one, two
    g = gcd(o1, o2)
    for s, t1, z1, w1 in hits1:
        for s2, t2, z2, w2 in hits2:
            if s2 == s and (t2 - t1) % g == 0 and not (z1 and z2) and not (w1 and w2):
                return True
    return False


def irreducible_count(classes: Iterable[tuple[int, int, Iterable[int]]]) -> int:
    """Number of residues k mod N with irreducible minimal solution
    among the classes named, one (p, e, valuations) per prime-power
    component of N: a k is counted when v_p(k mod p**e) is one of the
    valuations of each component.  The largest table comes last, where
    each pair is only tested, not merged."""
    tables = sorted(
        (
            [pair for v in valuations for pair in class_table(p, e, v)]
            for p, e, valuations in classes
        ),
        key=len,
    )
    folded = Counter({EMPTY_PRODUCT: 1})
    for table in tables[:-1]:
        merged: Counter[Signature] = Counter()
        for one, count in folded.items():
            for two, times in table:
                merged[merge(one, two)] += count * times
        folded = merged
    return sum(
        count * times
        for one, count in folded.items()
        for two, times in tables[-1]
        if not reducible(one, two)
    )
