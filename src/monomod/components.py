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
(for classify.decide_semi, whose oracle is its own candidate loop; an
odd N has its units as semi candidates and decides them by the quasi
walk, with no fold).  The tables are the library's only answer modulo
p**e: the order descent from a known multiple that checks their units
is a test oracle (tests/oracles.py).

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
over the k mod q = p**e of p-adic valuation v, 0 <= v <= e, in closed
form: no walk and no power of M runs, so a table costs its classes and
hits, not q.  A question names the classes it counts per component:
omega all of them, v = 0 .. e, and the semi candidates v = 0 of each
odd q and v = 1 of 2**a.

  * q = 2: 1 = -1 makes every hit one of both signs.  k = 0 has O = 2
    and the hit t = 0, x = 0 = k; k = 1 has O = 3 and the hits t = 0,
    x = 0 and t = 1, x = 1 = k.
  * Unit k mod q, q > 2: p cannot divide both x and x - k, whose
    difference is k, so x*(x-k) = 0 mod p**e forces x = 0 or x = k,
    and the hits are exactly where M**t or M**(t+2) is +/-Id:
    (-1, 0, T, F) and (+1, O-2, F, T), and with M**(O/2) = -Id also
    (+1, O/2, T, F) and (-1, O/2-2, F, T).  The signature is fixed by
    O and whether -Id is a power of M.  <M> is cyclic and -Id != Id,
    so for the minimal size (r, eps) of k, O = r and -Id is no power
    when eps = +1, and O = 2r and -Id is a power when eps = -1.  The
    mirror k -> -k (see the classify module) keeps r and multiplies
    eps by (-1)**r.  The next three rules give each unit class's O,
    whether -Id is a power, and its count.
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
  * p >= 5, k = +/-2 mod p: with C the binomial coefficient,
        a_{n-1} = sum_{i>=0} C(n+i, 2i+1) * (k-2)**i,
    and the numerator of C(n+i, 2i+1) holds the factor n, so the term
    i gains at least i - v_p((2i+1)!) >= i - 2i/(p-1) > 0 over the
    term i = 0, which is n: v_p(a_{n-1}) = v_p(n).  M**n = +/-Id iff
    a_{n-1} = 0 (then a_n = -a_{n-2} and det M**n = a_n**2 = 1), so
    r = p**e for each of the p**(e-1) residues of either class.  For
    k = 2 mod p, M = M(2) mod p and M(2)**n = [[n+1, -n], [n, 1-n]],
    so M**(p**e) = Id mod p gives eps = +1: O = p**e, -Id no power.
    The mirror gives k = -2 mod p eps = -1: O = 2*p**e, -Id a power.
  * p = 3 with k = +/-1 mod 3 (that is, -/+2), and p = 2 with k odd,
    e >= 2: M**3 - Id = (k+1) * [[k*k-k-1, 1-k], [k-1, -1]], whose
    second factor is not 0 mod p, so M**3 = Id + p**w * B with
    w = v_p(k+1) (capped at e) and B != 0 mod p.  For w >= 1 (p = 3:
    cube it) or w >= 2 (p = 2: square it), (Id + p**w * B)**p =
    Id + p**(w+1) * B' with B' = B mod p, so M**3 has order p**(e-w)
    and M, of order 3 mod p, has order 3*p**(e-w).  For p = 3 and
    k = -1 mod 3 the order is odd, so -Id is no power, and
    v_3(k+1) = w holds for 1 residue (w = e) or 2*3**(e-w-1): the
    rule of the previous case with d = 3, and by the mirror with d = 6
    for k = 1 mod 3.  For p = 2 and k = -1 mod 4, M**(3m) = Id mod 4
    and M**(3m +/- 1) = M**(+/-1) mod 4, so -Id is no power: O = 3
    for k = -1 and O = 3*2**j for the 2**(j-1) residues with
    v_2(k+1) = e - j, 1 <= j <= e - 2.  The mirror gives k = 1 mod 4
    the same r and eps = (-1)**r: O = 6 with -Id a power for k = 1,
    and O = 3*2**j, -Id no power, for 2**(j-1) more residues.
  * Non-units: k = p**v * u, u a unit, 1 <= v <= e, q > 2, y = k*k.
    The signature depends on v alone, so it counts the (p-1)*p**(e-v-1)
    residues of valuation v (1 for k = 0, v = e).  Proof: a_t is a
    polynomial in k of the parity of t, and
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
    (For k = 0, A_j = 0 and B_j = j exactly.)  As p divides at most
    one of j and j + 1, the hits are the j = 0 or -1 mod p**c,
    c = max(e - 2v + [p = 2], 0), and O is 2j for the least even
    j > 0 among them with v_p(j) >= e - v >= c: O = 4*p**(e-v) for odd
    p and 2*2**max(e-v, 1) for p = 2.

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
from .solutions import _valuation

# classify.omega_count and classify.decide_semi are the callers, so
# nothing here is public.
__all__: list[str] = []

Hit = tuple[int, int, bool, bool]  # (s, t, x = 0?, x = k?)
Signature = tuple[int, frozenset[Hit]]  # (O, hits)
Table = tuple[tuple[Signature, int], ...]  # (signature, count) pairs

EMPTY_PRODUCT: Signature = (1, frozenset({(1, 0, True, True), (-1, 0, True, True)}))

# Entries kept per cache (see the module docstring).  An omega scan of
# 2..400 needs 242 class tables, 147 merges and 3,153 pair tests, so it
# fits whole.  Of 2..5000 (1,546, 1,539 and 57,305) in one process,
# these bounds give a peak RSS of 22 MB and 1.7-1.9 s (3 runs on a
# shared 2-core machine); entries beyond a bound are rebuilt.
TABLE_CACHE = 512  # (p, e, v)
PAIR_CACHE = 4096  # signature pairs


def clear_caches() -> None:
    """Empty the caches of the tables and of the pair tests, so the work
    that follows does not depend on what ran before it."""
    for cached in (class_table, merge, reducible):
        cached.cache_clear()


def unit_signature(order: int, minus_id: bool) -> Signature:
    """The signature of a unit k mod any q > 2 whose M(k) has this
    order, with -Id among its powers or not."""
    hits = {(-1, 0, True, False), (1, order - 2, False, True)}
    if minus_id:
        half = order // 2
        hits |= {(1, half, True, False), (-1, half - 2, False, True)}
    return order, frozenset(hits)


def unit_orders(p: int, e: int) -> list[tuple[int, bool, int]]:
    """(O, -Id a power?, count) per class of units mod p**e > 2 (see
    the module docstring)."""
    if p == 2:  # k = -1, k = 1, then both signs of each v_2(k +/- 1) < e
        return [(3, False, 1), (6, True, 1)] + [(3 * 2**j, False, 2**j) for j in range(1, e - 1)]
    # (d, classes mod p) of the k whose M(k) has order d mod p and whose
    # lifts have orders d*p**j
    bases = [
        (d, phi // 2)
        for side in (p - 1, p + 1)
        for d, phi in divisor_phis(side)
        if d > 2 and d != 4
    ]
    if p == 3:  # k = -1 and k = 1 mod 3
        bases += [(3, 1), (6, 1)]
        rows = []
    else:  # k = 2 and k = -2 mod p
        rows = [(p**e, False, p ** (e - 1)), (2 * p**e, True, p ** (e - 1))]
    lifts = [(j, p**j - p ** (j - 1) if j else 1) for j in range(e)]
    return rows + [(d * p**j, d % 2 == 0, classes * n) for d, classes in bases for j, n in lifts]


def valuation_signature(p: int, e: int, v: int) -> Signature:
    """The signature of every k mod p**e > 2 of valuation v >= 1: hits
    at t = 2j for j = 0 or -1 mod p**c (see the module docstring)."""
    half = 2 * p ** (e - v) if p > 2 else 2 ** max(e - v, 1)  # O/2
    step = p ** max(e - 2 * v + (p == 2), 0)
    hits = frozenset(
        (1 if j % 2 else -1, 2 * j, v + _valuation(p, e, j) >= e, v + _valuation(p, e, j + 1) >= e)
        for i in range(0, half, step)
        for j in (i, i + step - 1)
    )
    return 2 * half, hits


@lru_cache(maxsize=TABLE_CACHE)
def class_table(p: int, e: int, v: int) -> Table:
    """(signature, count) pairs over the k mod p**e of p-adic valuation
    v, 0 <= v <= e, in closed form (see the module docstring)."""
    if p**e == 2:  # k = 0 (O = 2) or k = 1 (O = 3); as 1 = -1, each hit has both signs
        hits = [(0, True, True)] if v else [(0, True, False), (1, False, True)]
        return (((3 - v, frozenset((s, *hit) for hit in hits for s in (1, -1))), 1),)
    if v:
        return ((valuation_signature(p, e, v), (p - 1) * p ** (e - v - 1) if v < e else 1),)
    return tuple((unit_signature(order, minus_id), n) for order, minus_id, n in unit_orders(p, e))


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
