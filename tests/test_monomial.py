"""Minimal monomial solutions: sizes, signs, witnesses, and the two
independent search paths (generic walk vs powers of M(k), constrained
search vs full scan)."""

from __future__ import annotations

import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from monomod import core, monomial
from monomod.classify import decide_quasi, decide_semi
from monomod.core import CAP_MESSAGE
from monomod._numbers import prime_power, sieve_primes
from monomod.modring import ResidueRing, chain, identity, monomial_power, pm_id
from monomod.monomial import (
    ReductionWitness,
    find_reduction,
    minimal_size,
    minimal_size_prime_fast,
    report,
)
from monomod.solutions import ModTuple, bordered_constraint_roots, solution_sign
from oracles import find_reduction_naive, prime_power_size


@pytest.mark.parametrize(
    "n,k,expected",
    [(9, 1, (3, -1)), (7, 2, (7, 1)), (17, 5, (8, -1)), (18, 3, (6, -1))],
)
def test_minimal_size_examples(n, k, expected):
    assert minimal_size(ResidueRing(n), k) == expected


def test_minimal_size_is_minimal_exhaustively():
    for n in range(2, 26):
        ring = ResidueRing(n)
        for k in range(n):
            r, eps = minimal_size(ring, k)
            for t in range(1, r):
                assert pm_id(monomial_power(ring, k, t)) is None, (n, k, t)
            power = monomial_power(ring, k, r)
            assert pm_id(power) == eps
            if n == 2:
                assert eps == 1  # Id = -Id there; +1 by convention


def _reference_walk(n, k, roots):
    """The kernel walk as it was before the one-sequence rewrite, kept as
    an oracle: all four entries of M(k)**t, compared on every step with
    both signed targets +/-(M(x)**-1)**2 of every candidate x."""
    k %= n
    targets = []
    for x in roots:
        x %= n
        plus = (n - 1, x, (n - x) % n, (x * x - 1) % n)
        minus = tuple((n - v) % n for v in plus)
        targets.append((x, plus, minus))
    a, b, c, d = k, n - 1, 1, 0
    t = 1
    t0 = x0 = s0 = 0
    while True:
        if b == 0 and c == 0:
            if a == 1 and d == 1:
                return t, 1, t0, x0, s0
            if a == n - 1 and d == n - 1:
                return t, -1, t0, x0, s0
        if t0 == 0:
            for x, plus, minus in targets:
                if (a, b, c, d) == plus:
                    t0, x0, s0 = t, x, 1
                    break
                if (a, b, c, d) == minus:
                    t0, x0, s0 = t, x, -1
                    break
        a, b, c, d = (k * a - c) % n, (k * b - d) % n, a, b
        t += 1


def _assert_kernel_matches_reference(n, k):
    roots = tuple(
        x for x in bordered_constraint_roots(ResidueRing(n), k) if x not in (0, k)
    )
    expected = _reference_walk(n, k, roots)
    cap = n**3 + 1
    assert core.order_and_reduction(n, k, roots, cap) == expected, (n, k)
    assert core.order_pm(n, k, cap) == expected[:2], (n, k)


def test_kernel_matches_reference_walk_exhaustively():
    for n in range(2, 301):
        for k in range(n):
            _assert_kernel_matches_reference(n, k)


def test_kernel_matches_reference_walk_on_large_moduli():
    rng = random.Random(20261018)
    for _ in range(12):
        n = rng.randrange(10**6, 4 * 10**6 + 1)
        _assert_kernel_matches_reference(n, rng.randrange(n))


@pytest.mark.slow
def test_first_match_leaves_three_steps_before_the_order():
    # the module docstring's bounds: the walk may stop at its first match,
    # and that match comes before the centre r//2 where every walk stops
    for n in range(2, 301):
        ring = ResidueRing(n)
        for k in range(1, n):
            roots = tuple(x for x in bordered_constraint_roots(ring, k) if x not in (0, k))
            cap = n**3 + 1
            r, eps, t0, x0, s0 = core.order_and_reduction(n, k, roots, cap)
            stopped = core.order_and_reduction(n, k, roots, cap, stop_at_match=True)
            if t0 == 0:
                assert stopped == (r, eps, 0, 0, 0), (n, k)
                continue
            assert t0 <= (r - 2) // 2, (n, k)
            assert stopped == (t0, 0, t0, x0, s0), (n, k)
            # the mirror witness (k-x0, k, ..., k, k-x0) of length r-t0,
            # multiplied out entry by entry (n <= 150 keeps this under a
            # second; its length grows with r)
            if n <= 150:
                y = (k - x0) % n
                mirror = (y,) + (k,) * (r - t0 - 2) + (y,)
                assert pm_id(chain(ring, mirror)) == -eps * s0, (n, k)


def test_walk_cap_turns_missed_order_into_runtime_error():
    # the real order is 7, so both walks stop at the centre t = 3
    with pytest.raises(RuntimeError, match=CAP_MESSAGE):
        core.order_pm(7, 2, 2)
    with pytest.raises(RuntimeError, match=CAP_MESSAGE):
        core.order_and_reduction(7, 2, (), 2)


def test_walks_stop_exactly_at_the_centre():
    # equality with the reference walk cannot see a dropped stop rule,
    # which only makes a walk longer; the cap can
    for n in range(2, 301):
        ring = ResidueRing(n)
        for k in range(n):
            roots = tuple(x for x in bordered_constraint_roots(ring, k) if x not in (0, k))
            r, eps = core.order_pm(n, k, n**3 + 1)
            assert core.order_pm(n, k, r // 2) == (r, eps), (n, k)
            assert core.order_and_reduction(n, k, roots, r // 2)[:2] == (r, eps), (n, k)
            with pytest.raises(RuntimeError, match=CAP_MESSAGE):
                core.order_pm(n, k, r // 2 - 1)
            with pytest.raises(RuntimeError, match=CAP_MESSAGE):
                core.order_and_reduction(n, k, roots, r // 2 - 1)


@pytest.mark.parametrize(
    "p,k,expected",
    [(17, 6, (4, -1)), (31, 12, (5, 1)), (127, 2, (127, 1)), (2, 0, (2, 1)), (2, 1, (3, 1))],
)
def test_minimal_size_prime_fast_examples(p, k, expected):
    assert minimal_size_prime_fast(p, k) == expected


def test_minimal_size_prime_fast_rejects_composites():
    with pytest.raises(ValueError):
        minimal_size_prime_fast(15, 2)


def test_fast_path_equals_walk_for_small_primes():
    for p in sieve_primes(100):
        ring = ResidueRing(p)
        for k in range(p):
            assert minimal_size_prime_fast(p, k) == minimal_size(ring, k), (p, k)


@pytest.mark.parametrize("q", [q for q in range(2, 601) if prime_power(q) is not None])
def test_prime_power_descent_equals_the_walk(q):
    """The descent from g * p**(e-1) against core.order_pm, for every k
    mod q: units and non-units, the k = +/-2 ladders and p = 2."""
    p, e = prime_power(q)
    for k in range(q):
        assert prime_power_size(p, e, k) == core.order_pm(q, k, q**3 + 1), k


def test_two_part_test_equals_the_full_size_for_small_primes():
    for p in sieve_primes(600)[1:]:
        for k in range(p):
            want = minimal_size_prime_fast(p, k)[0] % 4 == 2
            assert monomial._size_is_2_mod_4(p, k) == want, (p, k)


def test_power_pm_equals_matrix_powers_exhaustively():
    for n in range(2, 60):
        ring = ResidueRing(n)
        for k in range(n):
            for t in range(40):
                want = pm_id(monomial_power(ring, k, t)) or 0
                assert core.power_pm(n, k, t) == want, (n, k, t)


@pytest.mark.parametrize(
    "n,k", [(17, 6), (31, 12), (2, 1), (60, 7), (10**9 + 7, 5), (2**61 - 1, 3)]
)
def test_power_pm_equals_matrix_powers_for_huge_exponents(n, k):
    ring = ResidueRing(n)
    for t in (10**18 - 1, 10**18, 10**18 + 1, 2 * 3**37, 4 * 5**25, 2**60):
        assert core.power_pm(n, k, t) == (pm_id(monomial_power(ring, k, t)) or 0), t


@pytest.mark.parametrize("k", [0, 1, 3, 5, 123456789, 10**9 + 5, 10**9 + 6])
def test_prime_fast_path_on_a_large_prime_against_matrix_powers(k):
    """(r, eps) for p = 10**9 + 7, checked with Mat2 powers only:
    M**r = eps*Id, and M**(r/q) is not +/-Id for any prime q | r."""
    p = 10**9 + 7
    ring = ResidueRing(p)
    r, eps = minimal_size_prime_fast(p, k)
    assert pm_id(monomial_power(ring, k, r)) == eps
    for q in sympy.factorint(r):
        assert pm_id(monomial_power(ring, k, r // q)) is None, q


def test_prime_fast_path_never_walks(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError(f"walked with {args}")

    monkeypatch.setattr(core, "order_pm", refuse)
    monkeypatch.setattr(core, "order_and_reduction", refuse)
    for p in (2, 3, 5, 17, 1009):
        for k in range(p):
            minimal_size_prime_fast(p, k)
            if p > 2:
                monomial._size_is_2_mod_4(p, k)


def test_find_reduction_examples():
    assert find_reduction(ResidueRing(18), 6) is not None
    assert find_reduction(ResidueRing(30), 8) is None
    witness = find_reduction(ResidueRing(42), 10)
    assert (witness.x, witness.length) == (28, 6)


@pytest.mark.slow
def test_find_reduction_equals_report_witness_exhaustively():
    for n in range(2, 301):
        ring = ResidueRing(n)
        for k in range(1, n):
            assert find_reduction(ring, k) == report(ring, k).witness, (n, k)


def test_no_walk_or_roots_when_only_zero_and_k_are_borders(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError(f"called with {args}")

    monkeypatch.setattr(core, "order_and_reduction", refuse)
    monkeypatch.setattr(monomial, "bordered_constraint_roots", refuse)
    # every unit k over a prime power, and every doubled unit over 2*p**f
    # with p odd, has x*(x-k) = 0 only at x = 0 and x = k
    for n in range(2, 501):
        ring = ResidueRing(n)
        if prime_power(n) is not None:
            assert decide_quasi(ring).verdict, n
        pe = prime_power(n // 2) if n % 2 == 0 else None
        if pe is not None and pe[0] != 2:
            assert decide_semi(ring).verdict, n
    assert report(ResidueRing(6), 2).irreducible  # (6, 2): 0 is the only root mod 2
    assert find_reduction(ResidueRing(10), 4) is None


def test_find_reduction_rejects_k_zero():
    with pytest.raises(ValueError):
        find_reduction(ResidueRing(18), 0)
    with pytest.raises(ValueError):
        find_reduction_naive(ResidueRing(18), 18)


def test_find_reduction_naive_examples():
    assert find_reduction_naive(ResidueRing(15), 7) == ReductionWitness(12, 5, 1)
    # two reducers exist at different lengths; the tie-break takes l=5, x=3
    assert find_reduction_naive(ResidueRing(15), 8) == ReductionWitness(3, 5, -1)


def test_find_reduction_matches_naive_oracle():
    for n in range(2, 31):
        ring = ResidueRing(n)
        for k in range(1, n):
            assert find_reduction(ring, k) == find_reduction_naive(ring, k), (n, k)


@pytest.mark.parametrize(
    "n,k,irreducible",
    [(6, 3, True), (8, 2, True), (48, 4, False)],
)
def test_report_examples(n, k, irreducible):
    rep = report(ResidueRing(n), k)
    assert rep.irreducible == irreducible
    assert (rep.witness is None) == irreducible


def test_report_k_zero_convention():
    rep = report(ResidueRing(10), 0)
    assert (rep.size, rep.sign, rep.irreducible, rep.witness) == (2, -1, False, None)
    # N=2: the +/-Id distinction collapses and the sign reads +1
    assert report(ResidueRing(2), 0).sign == 1


def test_report_internal_consistency_exhaustively():
    for n in range(2, 41):
        ring = ResidueRing(n)
        for k in range(1, n):
            rep = report(ring, k)
            assert rep.modulus == n and rep.k == k
            assert (rep.size, rep.sign) == minimal_size(ring, k)
            assert rep.irreducible == (rep.witness is None)
            if rep.witness is None:
                continue
            w = rep.witness
            assert 3 <= w.length <= rep.size - 1
            assert w.x * (w.x - k) % n == 0
            assert w.x in bordered_constraint_roots(ring, k)
            bordered = ModTuple(ring, (w.x,) + (k,) * (w.length - 2) + (w.x,))
            assert solution_sign(bordered) == w.sign


def test_witness_is_first_in_length_then_x_order():
    # recompute the tie-break from scratch for a reducible case
    ring = ResidueRing(48)
    rep = report(ring, 4)
    best = None
    for length in range(3, rep.size):
        for x in range(48):
            t = ModTuple(ring, (x,) + (4,) * (length - 2) + (x,))
            if solution_sign(t) is not None:
                best = (x, length)
                break
        if best:
            break
    assert best == (rep.witness.x, rep.witness.length)


@given(st.integers(2, 80), st.integers(1, 79))
@settings(deadline=None)
def test_negated_k_has_same_size_and_verdict(n, k):
    ring = ResidueRing(n)
    k %= n
    if k == 0:
        return
    mirror = (n - k) % n
    assert minimal_size(ring, k)[0] == minimal_size(ring, mirror)[0]
    assert report(ring, k).irreducible == report(ring, mirror).irreducible


def test_mirror_negates_border_and_twists_signs():
    # M(-k) = -D M(k) D with D = diag(1, -1): N - k has k's size with sign
    # (-1)**r eps, and its witness is N - x with sign (-1)**length s
    for n in range(3, 201):
        ring = ResidueRing(n)
        for k in range(1, n):
            rep, mirror = report(ring, k), report(ring, n - k)
            assert mirror.size == rep.size, (n, k)
            assert mirror.sign == (-1) ** rep.size * rep.sign, (n, k)
            w = find_reduction(ring, k)
            mirrored = find_reduction(ring, n - k)
            if w is None:
                assert mirrored is None, (n, k)
            else:
                sign = (-1) ** w.length * w.sign
                assert mirrored == ReductionWitness((n - w.x) % n, w.length, sign), (n, k)


def test_size_over_divisor_divides_size():
    for n in range(2, 41):
        ring = ResidueRing(n)
        divisors = [d for d in range(2, n) if n % d == 0]
        for k in range(n):
            r, _ = minimal_size(ring, k)
            for d in divisors:
                rd, _ = minimal_size(ResidueRing(d), k % d)
                assert r % rd == 0, (n, k, d)


def test_odd_prime_power_size_grows_by_factor_p_or_not_at_all():
    for p in (3, 5, 7):
        for n_exp in range(1, 4):
            low, high = p**n_exp, p ** (n_exp + 1)
            ring_low, ring_high = ResidueRing(low), ResidueRing(high)
            for k in range(high):
                r_low, _ = minimal_size(ring_low, k % low)
                r_high, _ = minimal_size(ring_high, k)
                assert r_high in (r_low, p * r_low), (p, n_exp, k)


def test_backend_dispatch_handles_huge_moduli():
    # the kernel uses Python integers, so moduli past 2**32 stay exact
    n = 2**32 + 1
    assert core.order_pm(n, 1, 100) == (3, -1)
    r, eps = minimal_size(ResidueRing(n), 0)
    assert (r, eps) == (2, -1)
