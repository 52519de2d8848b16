"""The component fold behind omega_count: its closed-form class tables
checked against walked signatures and brute-force matrix products, and
its counts against the k-loop of reducible_set."""

from __future__ import annotations

from collections import Counter

import pytest

from monomod import _numbers, components, core, modring, monomial
from monomod._numbers import factorize, is_prime, prime_power
from monomod.classify import omega_count, reducible_set
from monomod.modring import Mat2, ResidueRing, elementary, identity
from monomod.scan import ScanJob, run_scan
from oracles import euler_phi, walk_signature


@pytest.fixture(autouse=True)
def cold_caches():
    """Each test starts with empty table and pair caches, so a spy sees
    the work of a cold build."""
    components.clear_caches()


def brute_signature(q: int, k: int) -> components.Signature:
    """(O, hits) by comparing each power M(k)**t, t in [0, O), with
    s*(M(x)**-1)**2 for every x and both signs, as Mat2 products."""
    ring = ResidueRing(q)
    targets: dict[Mat2, list[tuple[int, int]]] = {}
    for x in range(q):
        inverse = Mat2(ring, 0, 1, q - 1, x)  # M(x)**-1
        square = inverse * inverse
        for s in (1, -1):
            entries = (s * v % q for v in (square.a, square.b, square.c, square.d))
            targets.setdefault(Mat2(ring, *entries), []).append((s, x))
    m, power, hits, t = elementary(ring, k), identity(ring), set(), 0
    while t == 0 or power != identity(ring):
        for s, x in targets.get(power, ()):
            hits.add((s, t, x == 0, x == k % q))
        power, t = m * power, t + 1
    return t, frozenset(hits)


@pytest.mark.parametrize("q", range(2, 41))
def test_walk_hits_equal_matrix_products(q):
    for k in range(q):
        assert walk_signature(q, k) == brute_signature(q, k), k


# every prime power to 200, and past it every p**e with e >= 2 to 1100,
# where the non-unit classes and the ladders have several levels
TABLE_MODULI = [
    q
    for q in range(2, 1101)
    if (pe := prime_power(q)) is not None and (q <= 200 or pe[1] >= 2)
]


@pytest.mark.parametrize("q", TABLE_MODULI)
def test_closed_form_table_equals_walked_signatures(q):
    p, e = prime_power(q)
    walked = Counter(walk_signature(q, k) for k in range(q))
    built: Counter = Counter()
    for v in range(e + 1):
        for signature, count in components.class_table(p, e, v):
            built[signature] += count
    assert built == walked


def valuation(q: int, p: int, k: int) -> int:
    """v_p(k) for k mod q = p**e, with v_p(0) = e."""
    v = 0
    while p ** (v + 1) <= q and k % p ** (v + 1) == 0:
        v += 1
    return v


@pytest.mark.parametrize("q", [q for q in range(2, 201) if prime_power(q) is not None])
def test_unit_and_valuation_parts_equal_walked_signatures(q):
    p, e = prime_power(q)

    def walked(v: int) -> Counter:
        return Counter(walk_signature(q, k) for k in range(q) if valuation(q, p, k) == v)

    total = 0
    for v in range(e + 1):
        part = components.class_table(p, e, v)
        # one pair per signature, so the pairs read as a {signature: count}
        assert len(dict(part)) == len(part), v
        assert Counter(dict(part)) == walked(v), v
        total += sum(count for _, count in part)
    assert total == q


@pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (2, 7), (3, 1), (3, 5), (5, 3), (7, 2)])
def test_a_table_takes_no_walk_and_no_power(monkeypatch, p, e):
    calls = []

    def spy(name, function):
        def counted(*args):
            calls.append(name)
            return function(*args)

        return counted

    for module, name in (
        (core, "order_pm"),
        (core, "order_and_reduction"),
        (core, "power_pm"),
        (monomial, "_prime_size"),
    ):
        monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    for v in range(e + 1):
        components.class_table(p, e, v)
    assert calls == []
    # nor can a table reach them under a name bound at import
    assert not {"core", "monomial", "_prime_size"} & vars(components).keys()


def test_merge_equals_the_walk_of_the_product():
    for n in range(6, 121):
        fac = factorize(n)
        if len(fac) < 2:
            continue
        p, e = min(fac.items())
        q1, q2 = p**e, n // p**e
        for k in range(n):
            merged = components.merge(walk_signature(q1, k), walk_signature(q2, k))
            assert merged == walk_signature(n, k), (n, k)
            assert components.merge(components.EMPTY_PRODUCT, merged) == merged


def loop_omega(n: int) -> int:
    return n - 1 - len(reducible_set(ResidueRing(n)))


@pytest.mark.parametrize("lo", range(2, 801, 100))
def test_omega_equals_the_k_loop(lo):
    for n in range(lo, min(lo + 100, 801)):
        assert omega_count(ResidueRing(n)) == loop_omega(n), n


@pytest.mark.parametrize(
    "n", [1458, 2048, 2187, 2401, 2500, 2916, 3072, 3125, 4096, 4374, 4802, 6144]
)
def test_omega_of_seeded_composites_equals_the_k_loop(n):
    assert omega_count(ResidueRing(n)) == loop_omega(n)


def test_omega_far_past_the_tables():
    # the k-loop takes about 14 s for this one, so its value is pinned
    assert omega_count(ResidueRing(75600)) == 40903
    # primes are monomially irreducible: every nonzero k is irreducible
    for p in (10**9 + 7, 2**31 - 1):
        assert is_prime(p)
        assert omega_count(ResidueRing(p)) == p - 1
    # an odd prime power counts its units (Lemma 4.1 reduces the rest);
    # the k-loop would make 3**13 // 2 find_reduction calls
    assert omega_count(ResidueRing(3**13)) == 1062882
    # 2**e and 3**8 components, through the fold; the k-loop takes
    # about 90 s for 2**16, so the values are pinned
    for n, omega in ((12288, 9221), (13122, 8751), (2**14, 12289), (2**16, 49153)):
        assert omega_count(ResidueRing(n)) == omega, n
    # ladders of 3**9 and of 2**10 beside 3**5; pinned from an order
    # ladder that climbed o0 * p**j, independent of today's closed form
    assert omega_count(ResidueRing(2 * 3**9)) == 26247
    assert omega_count(ResidueRing(2**10 * 3**5)) == 126533


@pytest.mark.parametrize("p,e", [(2, 16), (3, 9), (5, 6), (7, 5)])
def test_unit_table_equals_the_descent_of_each_unit(p, e):
    """The closed-form unit classes give every unit the signature that
    the library's descent, monomial._prime_size, gives it on its own:
    O = r for eps = +1, and O = 2r with -Id a power for eps = -1."""
    descended: Counter = Counter()
    for k in range(1, p**e):
        if k % p:
            r, eps = monomial._prime_size(p, e, k, {})
            descended[components.unit_signature(r if eps == 1 else 2 * r, eps == -1)] += 1
    assert Counter(dict(components.class_table(p, e, 0))) == descended


@pytest.mark.parametrize("p,e", [(3, 1), (3, 4), (5, 2), (7, 3), (13, 1), (101, 1), (1009, 1)])
def test_unit_table_factors_p_minus_and_plus_1_once(monkeypatch, p, e):
    factor, factored = _numbers.factorize, []

    def spy(n):
        factored.append(n)
        return factor(n)

    monkeypatch.setattr(_numbers, "factorize", spy)
    table = components.class_table(p, e, 0)
    assert sorted(factored) == [p - 1, p + 1]
    assert sum(count for _, count in table) == euler_phi(p**e)


@pytest.mark.parametrize("p,e", [(3, 3), (7, 2), (13, 1), (101, 1)])
def test_residue_signatures_factor_p_minus_and_plus_1_once_per_p(monkeypatch, p, e):
    """The descent of each unit residue reads p -+ 1 factored from one
    memo per p, so the units of p and of p**e factor each side once, and
    clear_caches empties the memo with the signatures."""
    factor, factored = monomial.factorize, []

    def spy(n):
        factored.append(n)
        return factor(n)

    monkeypatch.setattr(monomial, "factorize", spy)
    units = [(f, k) for f in range(1, e + 1) for k in range(1, p**f) if k % p]
    for f, k in units:
        components.residue_signature(p, f, k)
    assert len(factored) == len(set(factored)) and set(factored) <= {p - 1, p + 1}
    first = len(factored)
    components.clear_caches()
    for f, k in units:
        components.residue_signature(p, f, k)
    assert len(factored) == 2 * first


def test_a_scan_builds_each_table_once():
    builds = []
    for _ in range(2):  # the second scan starts as cold as the first
        run_scan(ScanJob("omega", 2, 400))
        builds.append(components.class_table.cache_info().misses)
    # every (p, e, v) of the components of 2..400, odd p**e included
    keys = {(p, e, v) for n in range(2, 401) for p, e in factorize(n).items() for v in range(e + 1)}
    assert builds == [len(keys)] * 2


def test_an_omega_scan_factors_each_modulus_once(monkeypatch):
    """Each row's phi comes from the factorization its ring keeps, so an
    omega scan factors each N once (crt_idempotents), and the unit table
    of each odd p**e factors p - 1 and p + 1 once (divisor_phis): 399 +
    178 calls over 2..400."""
    factor, calls = _numbers.factorize, [0]

    def spy(n):
        calls[0] += 1
        return factor(n)

    monkeypatch.setattr(_numbers, "factorize", spy)
    monkeypatch.setattr(modring, "factorize", spy)
    rows = run_scan(ScanJob("omega", 2, 400)).rows
    assert calls[0] == 577
    assert all(row["phi"] == euler_phi(row["N"]) for row in rows)


def test_cached_tables_equal_fresh_builds():
    run_scan(ScanJob("omega", 2, 400))
    for q in range(2, 401):
        if (pe := prime_power(q)) is None:
            continue
        p, e = pe
        for v in range(e + 1):
            fresh = components.class_table.__wrapped__(p, e, v)
            assert components.class_table(p, e, v) == fresh, (q, v)


@pytest.mark.parametrize("p,e", [(2, 1), (2, 5), (3, 4), (7, 2), (11, 1)])
def test_component_table_leaves_its_cached_parts_alone(p, e):
    """A cached class table is a tuple, which no caller can change, its
    counts sum to the size of its class, and the classes to p**e."""
    total = 0
    for v in range(e + 1):
        table = components.class_table(p, e, v)
        assert components.class_table(p, e, v) is table  # the cached one
        assert isinstance(table, tuple) and all(isinstance(pair, tuple) for pair in table)
        size = sum(count for _, count in table)
        assert size == (euler_phi(p ** (e - v)) if v < e else 1), v
        total += size
    assert total == p**e
