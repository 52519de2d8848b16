"""Tuple layer: the border-merging sum, rotation/reversal equivalence,
solution membership, and the x*(x-k) = 0 candidate roots."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import mk, mul, pm, solutions_of_length, tuple_chain
from monomod.modring import ResidueRing
from monomod.solutions import (
    ModTuple,
    _prime_power_roots,
    bordered_constraint_roots,
    equivalent,
    oplus,
    solution_sign,
)


def T(n, *entries):
    return ModTuple(ResidueRing(n), tuple(entries))


def test_modtuple_canonicalizes_and_rejects_empty():
    assert T(10, -1, 12).entries == (9, 2)
    with pytest.raises(ValueError):
        ModTuple(ResidueRing(5), ())


def test_oplus_examples():
    assert oplus(T(10, 2, 0, 5), T(10, -1, 2, 1)).entries == (3, 0, 4, 2)
    assert oplus(T(7, 3, 1, 2, 0), T(7, 2, 2, 1, 5, 1)).entries == (4, 1, 2, 2, 2, 1, 5)


@given(st.integers(2, 50), st.lists(st.integers(0, 49), min_size=2, max_size=6))
def test_oplus_with_zero_pair_is_identity(n, values):
    u = ModTuple(ResidueRing(n), tuple(v % n for v in values))
    assert oplus(u, T(n, 0, 0)).entries == u.entries


def test_oplus_rejects_bad_operands():
    with pytest.raises(ValueError):
        oplus(T(10, 1, 2), T(11, 1, 2))
    with pytest.raises(ValueError):
        oplus(T(10, 1), T(10, 1, 2))
    with pytest.raises(ValueError):
        oplus(T(10, 1, 2), T(10, 1))


def test_equivalent_examples():
    assert equivalent(T(5, 1, 2, 3), T(5, 3, 1, 2))
    assert equivalent(T(5, 1, 2, 3), T(5, 1, 3, 2))  # rotation of the reversal
    assert not equivalent(T(5, 1, 2, 3), T(5, 1, 2, 4))
    assert not equivalent(T(5, 1, 2), T(5, 1, 2, 0))
    with pytest.raises(ValueError):
        equivalent(T(5, 1, 2), T(7, 1, 2))


small_tuples = st.integers(2, 30).flatmap(
    lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, n - 1), min_size=1, max_size=7)
    )
)


@given(small_tuples, st.data())
def test_equivalent_is_an_equivalence_relation(nt, data):
    n, values = nt
    u = T(n, *values)
    assert equivalent(u, u)
    # build v as an explicit rotation (optionally of the reversal), then
    # rotate again for w: u ~ v, v ~ w and u ~ w must all hold
    shift1 = data.draw(st.integers(0, len(values) - 1))
    flip = data.draw(st.booleans())
    base = tuple(reversed(values)) if flip else tuple(values)
    v_entries = base[shift1:] + base[:shift1]
    v = T(n, *v_entries)
    assert equivalent(u, v) and equivalent(v, u)
    shift2 = data.draw(st.integers(0, len(values) - 1))
    w = T(n, *(v_entries[shift2:] + v_entries[:shift2]))
    assert equivalent(v, w) and equivalent(u, w)


@given(small_tuples, st.data())
def test_equivalent_tuples_share_solution_status(nt, data):
    n, values = nt
    u = T(n, *values)
    shift = data.draw(st.integers(0, len(values) - 1))
    flip = data.draw(st.booleans())
    base = tuple(reversed(values)) if flip else tuple(values)
    v = T(n, *(base[shift:] + base[:shift]))
    assert (solution_sign(u) is not None) == (solution_sign(v) is not None)


def test_solution_sign_examples():
    assert solution_sign(T(5, 1, 1, 1)) == -1
    assert solution_sign(T(12, 1, 2, 1, 2)) == -1
    assert solution_sign(T(5, 1, 2, 3)) is None


def test_size_four_solutions_are_the_two_known_families():
    for n in range(2, 21):
        found = set(solutions_of_length(n, 4))
        expected = {
            (a, b, a, b)
            for a in range(n)
            for b in range(n)
            if a * b % n == 2 % n
        } | {
            ((-a) % n, b, a, (-b) % n)
            for a in range(n)
            for b in range(n)
            if a * b % n == 0
        }
        assert found == expected, f"modulus {n}"


def test_bordered_solutions_force_equal_ends_and_root_constraint():
    # any solution (a, k, ..., k, b) of length 3..8 must have a = b and
    # a*(a-k) = 0 mod N
    for n in range(2, 21):
        for k in range(n):
            power = mk(k, n)  # M(k)**(l-2) as l grows
            for length in range(3, 9):
                for a in range(n):
                    left = mul(power, mk(a, n), n)
                    if left[0] != 0:  # the (1,0) entry of M(b)*left; no b can fix it
                        continue
                    for b in range(n):
                        if pm(mul(mk(b, n), left, n), n) is not None:
                            assert a == b, (n, k, length, a, b)
                            assert a * (a - k) % n == 0, (n, k, length, a)
                power = mul(mk(k, n), power, n)


def test_oplus_preserves_solutions_small_scale():
    # if v solves, u (+) v solves iff u does; exhaustive at toy size
    # (the acceptance suite re-runs this wider)
    import itertools

    for n in (5, 6):
        ring = ResidueRing(n)
        vs = [
            ModTuple(ring, v)
            for v in solutions_of_length(n, 3) + solutions_of_length(n, 4)
        ]
        for u_values in itertools.product(range(n), repeat=3):
            u = ModTuple(ring, u_values)
            u_solves = solution_sign(u) is not None
            for v in vs:
                assert (solution_sign(oplus(u, v)) is not None) == u_solves


def test_constraint_roots_examples():
    for p in (5, 7, 13):
        for k in range(1, p):
            assert bordered_constraint_roots(ResidueRing(p), k) == sorted({0, k})
    assert bordered_constraint_roots(ResidueRing(12), 4) == [0, 4, 6, 10]
    assert bordered_constraint_roots(ResidueRing(30), 8) == [0, 8, 18, 20]
    # either side of the modulus where enumeration used to hand over to CRT
    for n, k in ((10**6, 2**4 * 5**3), (10**6 + 1, 9901)):
        expected = [x for x in range(n) if x * (x - k) % n == 0]
        assert bordered_constraint_roots(ResidueRing(n), k) == expected


def test_constraint_roots_match_brute_force():
    for n in range(2, 401):
        ring = ResidueRing(n)
        for k in range(n):
            expected = [x for x in range(n) if x * (x - k) % n == 0]
            assert bordered_constraint_roots(ring, k) == expected, (n, k)
            assert bordered_constraint_roots(ring, k - n) == expected, (n, k - n)
            assert 0 in expected and k in expected


@pytest.mark.parametrize("q,p,e", [(8, 2, 3), (16, 2, 4), (9, 3, 2), (27, 3, 3), (25, 5, 2), (49, 7, 2)])
def test_prime_power_roots_match_brute_force(q, p, e):
    for k in range(q):
        expected = [x for x in range(q) if x * (x - k) % q == 0]
        assert _prime_power_roots(p, e, k) == expected


@given(st.integers(2, 5000), st.integers(0, 4999))
@settings(max_examples=60, deadline=None)
def test_crt_root_path_matches_enumeration_path(n, k):
    assert bordered_constraint_roots(ResidueRing(n), k) == [
        x for x in range(n) if x * (x - k) % n == 0
    ]


def test_roots_above_enumeration_limit_use_crt_path():
    # too large to enumerate, so checked structurally
    n = 2**4 * 3**3 * 5**4 * 7 * 11 * 13  # 270270000
    ring = ResidueRing(n)
    for k in (0, 1, 90090, 2**4 * 3**3 * 5**4):
        roots = bordered_constraint_roots(ring, k)
        assert roots == sorted(set(roots))
        assert 0 in roots and k % n in roots
        assert all(x * (x - k) % n == 0 for x in roots)
