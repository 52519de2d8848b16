"""The three irreducibility classes: brute-force deciders, closed-form
predictors, and the derived counts and tables."""

from __future__ import annotations

import dataclasses
import tracemalloc
from math import gcd

import pytest

from monomod import classify, monomial, scan
from monomod.classify import (
    DECIDERS,
    ClassVerdict,
    Counterexample,
    decide_monomial,
    decide_quasi,
    decide_semi,
    omega_count,
    predict_conjecture,
    predict_monomial,
    predict_quasi,
    predict_reducible_set_2x3m,
    predict_semi,
    quasi_family,
    reducible_set,
    semi_candidates,
    semi_family,
    sizes_table,
)
from monomod._numbers import prime_power
from monomod.modring import ResidueRing
from monomod.monomial import find_reduction, minimal_size_prime_fast
from oracles import euler_phi, semi_candidates_by_gcd, units_only


def test_decide_monomial_examples():
    assert decide_monomial(ResidueRing(24)).verdict is True
    v16 = decide_monomial(ResidueRing(16))
    assert v16.verdict is False and v16.counterexample.k == 4
    # 45 = 3*3*5 fails; the first failing residue is already k=3
    # (the non-unit 45/3 = 15 fails too, further down the list)
    v45 = decide_monomial(ResidueRing(45))
    assert v45.verdict is False and v45.counterexample.k == 3
    assert find_reduction(ResidueRing(45), 15) is not None


def test_decide_quasi_examples():
    assert decide_quasi(ResidueRing(54)).verdict is True
    v15 = decide_quasi(ResidueRing(15))
    assert v15.verdict is False and v15.counterexample.k == 7
    assert decide_quasi(ResidueRing(625)).verdict is True


def test_decide_semi_examples():
    v44 = decide_semi(ResidueRing(44))
    assert v44.verdict is False and v44.counterexample.k == 6
    v30 = decide_semi(ResidueRing(30))
    assert v30.verdict is True
    assert v30.checked_k == (2, 4, 8, 14, 16, 22, 26, 28)
    # the smallest failing doubled unit mod 42 is 4; the residue 10
    # (size 24, reduced by a length-6 border) fails further along
    v42 = decide_semi(ResidueRing(42))
    assert v42.verdict is False
    assert v42.counterexample.k == 4
    w10 = find_reduction(ResidueRing(42), 10)
    assert (w10.x, w10.length) == (28, 6)


def test_decide_semi_is_vacuously_true_for_two():
    v = decide_semi(ResidueRing(2))
    assert v.verdict is True and v.checked_k == ()


def test_semi_candidates_follow_the_parity_rule():
    # 4 | N: doubled units mod N
    assert semi_candidates(ResidueRing(12)) == [2, 10]
    assert semi_candidates(ResidueRing(44)) == sorted(
        {2 * a % 44 for a in range(1, 44) if gcd(a, 44) == 1}
    )
    # N = 2 mod 4: units are taken mod N/2 or the set collapses
    assert semi_candidates(ResidueRing(30)) == [2, 4, 8, 14, 16, 22, 26, 28]
    # odd N: doubled units sweep out exactly the units
    assert semi_candidates(ResidueRing(15)) == sorted(
        k for k in range(1, 15) if gcd(k, 15) == 1
    )


def test_semi_candidates_equal_the_gcd_oracle():
    for n in range(2, 3001):
        assert semi_candidates(ResidueRing(n)) == semi_candidates_by_gcd(n), n


def test_verdicts_carry_consistent_counterexamples():
    for n in range(2, 81):
        ring = ResidueRing(n)
        for decide in (decide_monomial, decide_quasi, decide_semi):
            v = decide(ring)
            assert v.modulus == n
            assert (v.counterexample is None) == v.verdict
            if v.counterexample is not None:
                assert v.checked_k[-1] == v.counterexample.k
                assert v.counterexample.witness == find_reduction(
                    ring, v.counterexample.k
                )
                # everything examined before the failure was irreducible
                for k in v.checked_k[:-1]:
                    assert find_reduction(ring, k) is None


@pytest.mark.parametrize(
    "n,expected", [(997, True), (25, False), (12, True), (2, True), (24, True), (26, False)]
)
def test_predict_monomial_examples(n, expected):
    assert predict_monomial(n) == expected


@pytest.mark.parametrize(
    "n,expected", [(972, True), (10, False), (128, True), (54, True), (625, True), (30, False)]
)
def test_predict_quasi_examples(n, expected):
    assert predict_quasi(n) == expected


@pytest.mark.parametrize(
    "n, family",
    [(2, "prime"), (49, "prime_power"), (36, "two_three"), (30, None), (10, None)],
)
def test_quasi_family_tags(n, family):
    assert quasi_family(n) == family
    assert predict_quasi(n) is (family is not None)


@pytest.mark.parametrize(
    "p,expected", [(3, True), (5, True), (11, False), (8191, True), (65537, True), (131071, True)]
)
def test_predict_conjecture_examples(p, expected):
    assert predict_conjecture(p) is expected


@pytest.mark.parametrize("n", [-3, 0, 1, 2, 9, 15, 65535])
def test_predict_conjecture_rejects_all_but_odd_primes(n):
    with pytest.raises(ValueError, match="not an odd prime"):
        predict_conjecture(n)


def test_predictors_reject_tiny_moduli():
    with pytest.raises(ValueError):
        predict_monomial(1)
    with pytest.raises(ValueError):
        predict_quasi(0)


@pytest.mark.parametrize("n", [0, 1, -4])
def test_every_closed_form_rejects_moduli_below_two(n):
    # 0 % p == 0 for every p, so an unchecked 0 would strip primes forever
    closed_forms = (predict_monomial, predict_quasi, predict_semi, semi_family, quasi_family)
    for closed_form in closed_forms:
        with pytest.raises(ValueError, match="modulus must be >= 2"):
            closed_form(n)


def test_predict_reducible_set_examples():
    assert predict_reducible_set_2x3m(2) == [0, 6, 12]
    assert predict_reducible_set_2x3m(3) == [
        0, 3, 6, 12, 15, 18, 21, 24, 30, 33, 36, 39, 42, 48, 51,
    ]
    with pytest.raises(ValueError):
        predict_reducible_set_2x3m(1)


def test_omega_count_examples():
    assert omega_count(ResidueRing(6)) == 5
    assert omega_count(ResidueRing(54)) == 39
    assert omega_count(ResidueRing(16)) == 13
    assert omega_count(ResidueRing(64)) == 49
    # odd prime powers: the irreducible k are exactly the units (Lemma
    # 4.1), which the fold counts like any other N
    for q in range(9, 3001, 2):
        pe = prime_power(q)
        if pe is not None and pe[1] >= 2:
            assert omega_count(ResidueRing(q)) == euler_phi(q), q


def omega_2x3(a: int, b: int) -> int | None:
    """The closed form of omega(2**a * 3**b) that the fold gives, for
    a >= 1 and every N but 2, 4, 6, 12 and 24; None elsewhere."""
    if b >= 2:
        if a >= 3:
            return (3 * 2 ** (a - 1) + 4) * 3 ** (b - 1) + 7 * 2 ** (a - 2) + 1
        return {1: 4 * 3 ** (b - 1) + 3, 2: 8 * 3 ** (b - 1) + 7}.get(a)
    if b == 1 and a >= 4:
        return 9 * 2 ** (a - 2) + 5
    if b == 0 and a >= 3:
        return 3 * 2 ** (a - 2) + 1
    return None


def test_omega_of_2a_3b_equals_its_closed_form():
    checked = 0
    for a in range(21):
        for b in range(13):
            if (omega := omega_2x3(a, b)) is not None:
                assert omega_count(ResidueRing(2**a * 3**b)) == omega, (a, b)
                checked += 1
    assert checked == 255
    # a = 1 counts the complement of predict_reducible_set_2x3m, which
    # lists k = 0 among the reducible k in [0, N)
    for m in range(2, 13):
        assert omega_2x3(1, m) == 2 * 3**m - len(predict_reducible_set_2x3m(m))


@pytest.mark.parametrize("n,expected", [(2, True), (8, False), (49, True), (25, True), (12, False)])
def test_units_only_examples(n, expected):
    assert units_only(ResidueRing(n)) == expected


def test_sizes_table_examples():
    table = sizes_table(17)
    assert table == [(1, 3), (2, 17), (3, 9), (4, 9), (5, 8), (6, 4), (7, 9), (8, 8)]
    assert dict(sizes_table(31))[8] == 4
    assert dict(sizes_table(127))[24] == 7
    with pytest.raises(ValueError):
        sizes_table(15)


@pytest.mark.parametrize("p", [3, 17, 31, 1009])
def test_sizes_table_tests_and_factors_once(monkeypatch, p):
    calls = {"is_prime": 0, "factorize": 0}

    def spy(name, fn):
        def counted(n):
            calls[name] += 1
            return fn(n)

        return counted

    for module in (classify, monomial):
        monkeypatch.setattr(module, "is_prime", spy("is_prime", module.is_prime))
    monkeypatch.setattr(monomial, "factorize", spy("factorize", monomial.factorize))
    table = sizes_table(p)
    assert len(table) == (p - 1) // 2
    assert calls["is_prime"] == 1
    assert calls["factorize"] <= 2
    monkeypatch.undo()
    assert table == [(k, minimal_size_prime_fast(p, k)[0]) for k, _ in table]


def test_euler_phi_examples():
    assert euler_phi(1) == 1
    assert euler_phi(54) == 18
    assert euler_phi(864) == 288


def test_monomial_implies_quasi_implies_semi_small_scale():
    for n in range(2, 101):
        ring = ResidueRing(n)
        mono = decide_monomial(ring).verdict
        quasi = decide_quasi(ring).verdict
        semi = decide_semi(ring).verdict
        if mono:
            assert quasi, n
        if quasi:
            assert semi, n


# Oracles: the full ascending find_reduction loops that the deciders and
# counts ran before they used the mirror k -> N - k.

ORACLE_MAX_N = 300


@pytest.fixture(scope="module")
def witnesses() -> dict[int, list]:
    """N -> [None, find_reduction(N, 1), ..., find_reduction(N, N - 1)]."""
    table = {}
    for n in range(2, ORACLE_MAX_N + 1):
        ring = ResidueRing(n)
        table[n] = [None] + [find_reduction(ring, k) for k in range(1, n)]
    return table


def oracle_candidates(kind: str, ring: ResidueRing) -> list[int]:
    n = ring.modulus
    if kind == "monomial":
        return list(range(1, n))
    if kind == "quasi":
        return [k for k in range(1, n) if gcd(k, n) == 1]
    return semi_candidates(ring)


def oracle_decide(kind: str, ring: ResidueRing, found: list) -> ClassVerdict:
    n = ring.modulus
    checked = []
    for k in oracle_candidates(kind, ring):
        checked.append(k)
        if found[k] is not None:
            return ClassVerdict(n, kind, False, Counterexample(k, found[k]), tuple(checked))
    return ClassVerdict(n, kind, True, None, tuple(checked))


def test_deciders_equal_the_full_loop(witnesses):
    for n, found in witnesses.items():
        ring = ResidueRing(n)
        for kind, decide in DECIDERS.items():
            assert decide(ring) == oracle_decide(kind, ring, found), (n, kind)


def test_counts_equal_the_full_loop(witnesses):
    for n, found in witnesses.items():
        ring = ResidueRing(n)
        reducible = [k for k in range(1, n) if found[k] is not None]
        assert reducible_set(ring) == reducible, n
        assert omega_count(ring) == sum(1 for k in range(1, n) if found[k] is None), n
        assert units_only(ring) == all(
            (found[k] is None) == (gcd(k, n) == 1) for k in range(1, n)
        ), n


def test_nothing_above_half_the_modulus_is_walked(monkeypatch):
    calls = []

    def spy(ring, k):
        calls.append((ring.modulus, k))
        assert 2 * k <= ring.modulus, (ring.modulus, k)
        return find_reduction(ring, k)

    monkeypatch.setattr(classify, "find_reduction", spy)
    for n in range(2, 121):
        ring = ResidueRing(n)
        for decide in DECIDERS.values():
            decide(ring)
        omega_count(ring)
        units_only(ring)
    scan.emit_appendix("C")
    assert {n for n, _ in calls} == set(range(2, 121)) | set(scan.APPENDIX_C_MODULI)


# decide_semi folds first for even N from SEMI_FOLD_FROM on; classify._decide
# is the loop alone, which it must equal verdict, counterexample and
# checked_k included.


@pytest.mark.parametrize("lo", range(2, 1501, 250))
def test_decide_semi_equals_the_loop_alone(lo):
    for n in range(lo, min(lo + 250, 1501)):
        ring = ResidueRing(n)
        loop = classify._decide(ring, "semi", semi_candidates(ring))
        assert decide_semi(ring) == loop, n


@pytest.mark.parametrize("lo", range(3, 1502, 250))
def test_odd_semi_is_the_quasi_walk(lo):
    """For an odd N, 2 is a unit, so the doubled units are the units and
    decide_semi is decide_quasi labelled semi."""
    for n in range(lo, min(lo + 250, 1502), 2):
        ring = ResidueRing(n)
        assert decide_semi(ring) == dataclasses.replace(decide_quasi(ring), kind="semi"), n


def test_odd_semi_lists_no_candidates_ahead():
    # 255255 = 3*5*7*11*13*17 fails at k = 8; a list of its 92160 units
    # made in advance would take megabytes
    tracemalloc.start()
    try:
        verdict = decide_semi(ResidueRing(255255))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.verdict is False
    assert peak < 64 * 1024, peak


@pytest.mark.parametrize("n", [768, 2 * 3**5, 2**16])
def test_a_true_even_verdict_above_the_crossover_walks_nothing(monkeypatch, n):
    assert n % 2 == 0 and n >= classify.SEMI_FOLD_FROM
    calls = []
    monkeypatch.setattr(classify, "find_reduction", lambda ring, k: calls.append(k))
    ring = ResidueRing(n)
    verdict = decide_semi(ring)
    assert calls == []
    assert verdict == ClassVerdict(n, "semi", True, None, tuple(semi_candidates(ring)))
