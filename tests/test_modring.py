"""Ring and matrix layer: generators, products, and the +/-Id test."""

from __future__ import annotations

import copy
import inspect
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from monomod.modring import (
    Mat2,
    ResidueRing,
    chain,
    elementary,
    identity,
    monomial_power,
    pm_id,
)
from monomod.monomial import MonomialReport, ReductionWitness
from monomod.solutions import ModTuple

rings = st.integers(2, 80).map(ResidueRing)


def test_ring_rejects_modulus_below_two():
    with pytest.raises(ValueError):
        ResidueRing(1)
    with pytest.raises(ValueError):
        ResidueRing(0)


# The immutable value classes: constructor arguments, and the repr that
# the same arguments gave when these classes were frozen dataclasses.
_VALUES = [
    (ResidueRing, (10,), "ResidueRing(modulus=10)"),
    (
        Mat2,
        (ResidueRing(5), 2, 4, 1, 0),
        "Mat2(ring=ResidueRing(modulus=5), a=2, b=4, c=1, d=0)",
    ),
    (ReductionWitness, (1, 4, -1), "ReductionWitness(x=1, length=4, sign=-1)"),
    (
        MonomialReport,
        (42, 10, 24, 1, False, ReductionWitness(28, 6, 1)),
        "MonomialReport(modulus=42, k=10, size=24, sign=1, irreducible=False,"
        " witness=ReductionWitness(x=28, length=6, sign=1))",
    ),
    (
        ModTuple,
        (ResidueRing(7), (8, -1, 3)),
        "ModTuple(ring=ResidueRing(modulus=7), entries=(1, 6, 3))",
    ),
]


@pytest.mark.parametrize("cls,args,text", _VALUES, ids=[v[0].__name__ for v in _VALUES])
def test_value_classes_behave_as_frozen_records(cls, args, text):
    value = cls(*args)
    fields = list(inspect.signature(cls).parameters)
    assert cls(**dict(zip(fields, args))) == value
    assert hash(cls(*args)) == hash(value)
    assert repr(value) == text
    assert value != tuple(getattr(value, name) for name in fields)
    assert value != object()
    for other in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(other) is cls and other == value and repr(other) == text
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == text


def test_values_differ_in_any_field():
    witness = ReductionWitness(1, 4, -1)
    assert witness != ReductionWitness(1, 4, 1)
    assert witness != ReductionWitness(2, 4, -1)
    assert ResidueRing(10) != ResidueRing(11)
    assert ModTuple(ResidueRing(7), (1, 2)) != ModTuple(ResidueRing(8), (1, 2))
    assert len({ResidueRing(10), ResidueRing(10), ResidueRing(11)}) == 2


def test_value_classes_keep_their_validation_errors():
    ring = ResidueRing(5)
    cases = [
        (lambda: ResidueRing(1), "modulus must be >= 2, got 1"),
        (lambda: Mat2(ring, 5, 4, 1, 0), "matrix entries must be canonical residues"),
        (lambda: Mat2(ring, 1, 1, 1, 1), "determinant must be 1"),
        (lambda: ModTuple(ring, ()), "tuple must have at least one entry"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message


def test_crt_idempotents_are_computed_once_per_ring(monkeypatch):
    from monomod import modring

    calls = []
    factorize = modring.factorize
    monkeypatch.setattr(modring, "factorize", lambda n: calls.append(n) or factorize(n))
    ring = ResidueRing(360)
    first = ring.crt_idempotents
    assert ring.crt_idempotents is first
    assert calls == [360]
    assert pickle.loads(pickle.dumps(ring)).crt_idempotents == first


def test_canon_wraps_negatives():
    ring = ResidueRing(7)
    assert ring.canon(-1) == 6
    assert ring.canon(15) == 1


def test_mat2_rejects_noncanonical_and_bad_determinant():
    ring = ResidueRing(7)
    with pytest.raises(ValueError):
        Mat2(ring, 8, 0, 0, 1)
    with pytest.raises(ValueError):
        Mat2(ring, 2, 0, 0, 1)  # det 2
    with pytest.raises(ValueError):
        Mat2(ring, 1, 0, 0, 1) * Mat2(ResidueRing(5), 1, 0, 0, 1)


@pytest.mark.parametrize(
    "n,k,expected",
    [(7, 3, (3, 6, 1, 0)), (5, 0, (0, 4, 1, 0)), (12, 11, (11, 11, 1, 0))],
)
def test_elementary_examples(n, k, expected):
    m = elementary(ResidueRing(n), k)
    assert (m.a, m.b, m.c, m.d) == expected


def test_elementary_canonicalizes_negative_k():
    ring = ResidueRing(12)
    assert elementary(ring, -1) == elementary(ring, 11)


def test_chain_examples():
    assert chain(ResidueRing(5), (1, 1, 1)) == Mat2(ResidueRing(5), 4, 0, 0, 4)
    assert pm_id(chain(ResidueRing(7), (1, 2, 1, 2))) == -1
    ring = ResidueRing(9)
    for k in range(9):
        assert chain(ring, (k,)) == elementary(ring, k)
    with pytest.raises(ValueError):
        chain(ring, ())


def test_chain_multiplies_in_descending_index_order():
    ring = ResidueRing(7)
    assert chain(ring, (2, 3)) == elementary(ring, 3) * elementary(ring, 2)
    assert chain(ring, (2, 3)) != elementary(ring, 2) * elementary(ring, 3)


def test_monomial_power_examples():
    assert pm_id(monomial_power(ResidueRing(6), 2, 6)) == 1
    assert monomial_power(ResidueRing(11), 4, 0) == identity(ResidueRing(11))
    assert monomial_power(ResidueRing(10), 0, 2) == Mat2(ResidueRing(10), 9, 0, 0, 9)
    with pytest.raises(ValueError):
        monomial_power(ResidueRing(10), 1, -1)


def test_pm_id_examples():
    assert pm_id(identity(ResidueRing(11))) == 1
    assert pm_id(Mat2(ResidueRing(5), 4, 0, 0, 4)) == -1
    assert pm_id(Mat2(ResidueRing(5), 2, 1, 1, 1)) is None
    # N=2 degenerate: Id and -Id coincide and read as +1
    assert pm_id(monomial_power(ResidueRing(2), 0, 2)) == 1


@given(rings, st.integers(-100, 100), st.integers(0, 60))
def test_monomial_power_determinant_is_one(ring, k, n):
    m = monomial_power(ring, k, n)
    assert (m.a * m.d - m.b * m.c) % ring.modulus == 1


def test_monomial_power_agrees_with_chain_exhaustively():
    for modulus in range(2, 31):
        ring = ResidueRing(modulus)
        for k in range(modulus):
            acc = elementary(ring, k)
            base = acc
            for n in range(1, 41):
                assert monomial_power(ring, k, n) == acc
                acc = base * acc


def _transpose(m: Mat2) -> Mat2:
    return Mat2(m.ring, m.a, m.c, m.b, m.d)


def _negate(m: Mat2) -> Mat2:
    n = m.ring.modulus
    return Mat2(m.ring, (-m.a) % n, (-m.b) % n, (-m.c) % n, (-m.d) % n)


@given(rings, st.integers(0, 79), st.integers(1, 25))
@settings(deadline=None)
def test_negated_k_gives_sign_adjusted_transpose(ring, k, n):
    direct = chain(ring, ((-k) % ring.modulus,) * n)
    mirrored = _transpose(chain(ring, (k % ring.modulus,) * n))
    if n % 2 == 1:
        mirrored = _negate(mirrored)
    assert direct == mirrored


@given(
    st.integers(2, 12),
    st.integers(2, 8),
    st.lists(st.integers(-50, 50), min_size=1, max_size=8),
)
@settings(deadline=None)
def test_chain_commutes_with_reduction_to_divisor(d, q, values):
    big, small = ResidueRing(d * q), ResidueRing(d)
    m = chain(big, values)
    reduced = chain(small, [v % d for v in values])
    assert (m.a % d, m.b % d, m.c % d, m.d % d) == (
        reduced.a,
        reduced.b,
        reduced.c,
        reduced.d,
    )
