"""Release gate: one test per contract item, each checking exact values
against the frozen tables in tests/data or against independent
brute-force recomputation.  A summary block at the end of the pytest run
(see conftest.pytest_terminal_summary) prints one pass/fail line per
criterion."""

from __future__ import annotations

import itertools

import pytest

from conftest import load_data, mk, mul, pm, solutions_of_length
from monomod import core
from monomod._numbers import is_prime, prime_power, sieve_primes
from monomod.classify import (
    MONOMIAL_SPORADIC,
    decide_monomial,
    omega_count,
    predict_monomial,
    predict_reducible_set_2x3m,
    sizes_table,
)
from monomod.construct import witness_prop36, witness_prop51
from monomod.modring import ResidueRing
from monomod.monomial import (
    find_reduction,
    minimal_size,
    minimal_size_prime_fast,
)
from monomod.scan import (
    ScanJob,
    emit_appendix,
    run_scan,
    scan_conjecture,
    semi_family,
)
from oracles import find_reduction_naive, survey_spot_check


def test_criterion_01_omega_table_for_two_three_moduli():
    frozen = [{"N": n, "phi": phi, "omega": om} for n, phi, om in load_data("omega_table")]
    assert emit_appendix("B") == frozen


def test_criterion_02_reducible_k_lists_byte_exact():
    frozen = load_data("reducible_k")
    table = emit_appendix("C")
    assert {str(row["N"]): row["reducible"] for row in table} == frozen


def test_criterion_03_quasi_membership_and_tags():
    frozen = [{"N": n, "tag": tag} for n, tag in load_data("quasi_members")]
    assert emit_appendix("A") == frozen


def test_criterion_04_semi_even_membership_and_tags():
    frozen = [{"N": n, "tag": tag} for n, tag in load_data("semi_even_members")]
    # the prefix keeps the runtime budget; the full range runs under the
    # slow marker below
    result = run_scan(ScanJob(kind="semi", lo=4, hi=1200))
    table = [
        {"N": row["N"], "tag": semi_family(row["N"]) or "numerical_only"}
        for row in result.rows
        if row["verdict"]
    ]
    assert table == [row for row in frozen if row["N"] <= 1200]


@pytest.mark.slow
def test_criterion_04_semi_even_full_range_pure_backend():
    frozen = [{"N": n, "tag": tag} for n, tag in load_data("semi_even_members")]
    assert emit_appendix("D") == frozen


def test_criterion_05_monomial_moduli_are_primes_plus_sporadics():
    decided = {
        n for n in range(2, 201) if decide_monomial(ResidueRing(n)).verdict
    }
    expected = {n for n in range(2, 201) if is_prime(n)} | MONOMIAL_SPORADIC
    assert decided == expected
    for n in range(2, 201):
        assert predict_monomial(n) == (n in decided), n


@pytest.mark.parametrize("m,count", [(2, 15), (3, 39)])
def test_criterion_06_twice_power_of_three_reducible_sets(m, count):
    n = 2 * 3**m
    ring = ResidueRing(n)
    brute = [0] + [k for k in range(1, n) if find_reduction(ring, k) is not None]
    assert brute == predict_reducible_set_2x3m(m)
    assert omega_count(ring) == 4 * 3 ** (m - 1) + 3 == count


def test_criterion_07_prime_size_tables():
    frozen = load_data("prime_size_tables")
    for p in (17, 31, 127):
        expected = list(zip(range(1, (p - 1) // 2 + 1), frozen[str(p)]))
        assert sizes_table(p) == expected, p
    # The (p=127, k=47) cell is 16, not 64: the direct walk below reaches
    # -Id at the 16th power, so 64 (a later power reaching +Id) is not
    # minimal.  The frozen table carries the corrected value.
    power = (1, 0, 0, 1)
    hits = []
    for t in range(1, 65):
        power = mul(mk(47, 127), power, 127)
        if pm(power, 127) is not None:
            hits.append(t)
    assert hits[0] == 16 and 64 in hits
    assert dict(sizes_table(127))[47] == 16


def test_criterion_08_conjecture_survivors_to_sixty_thousand():
    assert scan_conjecture(60000) == [3, 5, 7, 17, 31, 127, 257, 8191]


def test_criterion_09_constructed_certificates_exact():
    w = witness_prop36(3, 5)
    assert (w.modulus, w.k, w.size) == (15, 7, 30)
    assert w.reducer.entries == (12, 7, 7, 7, 12)  # = (-3, 7, 7, 7, -3)
    assert w.verify()

    w = witness_prop51(3, 5)
    assert (w.modulus, w.k, w.size) == (15, 8, 30)
    assert len(w.reducer) == 27
    assert w.reducer.entries[0] == 5
    assert w.verify()

    w = witness_prop36(107, 163)
    assert (w.modulus, w.k, w.size) == (17441, 3425, 978)
    assert len(w.reducer) == 165
    assert w.reducer.entries[0] == -3423 % 17441
    assert w.verify()

    w = witness_prop51(107, 163)
    assert (w.modulus, w.k, w.size) == (17441, 3747, 34882)
    assert len(w.reducer) == 24289
    assert w.reducer.entries[0] == -6846 % 17441
    assert w.verify()


# --- criterion 10: the bundled property suites ------------------------


def _suite_reduction_oracle(max_n: int) -> None:
    for n in range(2, max_n + 1):
        ring = ResidueRing(n)
        for k in range(1, n):
            assert find_reduction(ring, k) == find_reduction_naive(ring, k), (n, k)


def _suite_fast_prime_path(max_p: int) -> None:
    for p in sieve_primes(max_p):
        for k in range(p):
            assert minimal_size_prime_fast(p, k) == core.order_pm(p, k, p**3 + 1), (
                p,
                k,
            )


def _suite_negation_symmetry(max_n: int, sizes: dict[int, list[int]]) -> None:
    for n in range(2, max_n + 1):
        ring = ResidueRing(n)
        for k in range(1, n // 2 + 1):
            assert sizes[n][k] == sizes[n][n - k], (n, k)
            assert (find_reduction(ring, k) is None) == (
                find_reduction(ring, n - k) is None
            ), (n, k)


def _suite_divisor_divides(max_n: int, sizes: dict[int, list[int]]) -> None:
    for n in range(2, max_n + 1):
        for d in range(2, n):
            if n % d:
                continue
            for k in range(n):
                assert sizes[n][k] % sizes[d][k % d] == 0, (n, d, k)


def _suite_prime_power_ladder(bound: int) -> None:
    # size mod p**(e+1) is the size mod p**e or p times it
    for p in (3, 5, 7, 11, 13):
        q = p
        while p * q <= bound:
            small, big = ResidueRing(q), ResidueRing(p * q)
            for k in range(p * q):
                r_small = minimal_size(small, k % q)[0]
                r_big = minimal_size(big, k)[0]
                assert r_big in (r_small, p * r_small), (p, q, k)
            q *= p


def _suite_odd_prime_power_size_laws(bound: int) -> None:
    # even size forces sign -1; size = +/- (size over the base prime) mod 4
    for q in range(3, bound + 1, 2):
        pe = prime_power(q)
        if pe is None:
            continue
        p = pe[0]
        ring, base = ResidueRing(q), ResidueRing(p)
        base_sizes = [minimal_size(base, k)[0] for k in range(p)]
        for k in range(q):
            r, eps = minimal_size(ring, k)
            if r % 2 == 0:
                assert eps == -1, (q, k)
            h = base_sizes[k % p]
            assert (r - h) % 4 == 0 or (r + h) % 4 == 0, (q, k, r, h)


def _suite_bordered_dichotomy(max_n: int) -> None:
    # around an irreducible k, a bordered solution (a, k, ..., k, a) of
    # length l <= 2r+2 exists only with l = 0 mod r and a = k, or
    # l = 2 mod r and a = 0
    for n in range(2, max_n + 1):
        ring = ResidueRing(n)
        gens = [mk(a, n) for a in range(n)]
        for k in range(1, n):
            if find_reduction(ring, k) is not None:
                continue
            r = minimal_size(ring, k)[0]
            power = (1, 0, 0, 1)  # M(k)**t
            for t in range(2 * r + 1):
                length = t + 2
                for a in range(n):
                    product = mul(gens[a], mul(power, gens[a], n), n)
                    if pm(product, n) is not None:
                        assert (length % r == 0 and a == k) or (
                            length % r == 2 and a == 0
                        ), (n, k, length, a)
                power = mul(gens[k], power, n)


def _suite_merge_and_orbit_preservation(max_n: int) -> None:
    for n in range(2, max_n + 1):
        solutions = {q: set(solutions_of_length(n, q)) for q in (2, 3, 4, 5)}
        gens = [mk(a, n) for a in range(n)]
        ident = (1, 0, 0, 1)
        # rotations and reversals of solutions are solutions
        for pool in solutions.values():
            for v in pool:
                assert v[1:] + v[:1] in pool, (n, v)
                assert v[::-1] in pool, (n, v)
        # merging a solution v onto any u preserves u's solution status,
        # in both directions; checked for every u with len(u (+) v) <= 5
        for q, pool in solutions.items():
            if q == 2:
                continue  # the only length-2 solution (0,0) merges as identity
            for v in pool:
                mid_v = ident
                for entry in v[1:-1]:
                    mid_v = mul(gens[entry], mid_v, n)
                for m in range(2, 8 - q):
                    for mids in itertools.product(range(n), repeat=m - 2):
                        mid_u = ident
                        for entry in mids:
                            mid_u = mul(gens[entry], mid_u, n)
                        for a_last in range(n):
                            left_u = mul(gens[a_last], mid_u, n)
                            left_merged = mul(
                                mul(mid_v, gens[(a_last + v[0]) % n], n), mid_u, n
                            )
                            for a0 in range(n):
                                u_solves = (
                                    pm(mul(left_u, gens[a0], n), n) is not None
                                )
                                merged_solves = (
                                    pm(
                                        mul(left_merged, gens[(a0 + v[-1]) % n], n), n
                                    )
                                    is not None
                                )
                                assert u_solves == merged_solves, (
                                    n,
                                    v,
                                    mids,
                                    a_last,
                                    a0,
                                )


def _suite_length_four_families(max_n: int) -> None:
    for n in range(2, max_n + 1):
        found = set(solutions_of_length(n, 4))
        expected = {
            (a, b, a, b) for a in range(n) for b in range(n) if a * b % n == 2 % n
        } | {
            ((-a) % n, b, a, (-b) % n)
            for a in range(n)
            for b in range(n)
            if a * b % n == 0
        }
        assert found == expected, n


def _suite_conjecture_spot_check() -> None:
    primes, anomalies = survey_spot_check(60000, sample_den=100)
    assert primes == [3, 5, 7, 17, 31, 127, 257, 8191]
    assert anomalies == []


def test_criterion_10_property_suites():
    sizes = {
        n: [minimal_size(ResidueRing(n), k)[0] for k in range(n)]
        for n in range(2, 101)
    }
    _suite_reduction_oracle(60)
    _suite_fast_prime_path(300)
    _suite_negation_symmetry(100, sizes)
    _suite_divisor_divides(100, sizes)
    _suite_prime_power_ladder(250)
    _suite_odd_prime_power_size_laws(250)
    _suite_bordered_dichotomy(30)
    _suite_merge_and_orbit_preservation(12)
    _suite_length_four_families(20)
    _suite_conjecture_spot_check()
