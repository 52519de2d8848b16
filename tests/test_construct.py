"""Closed-form reducibility certificates and their self-verification."""

from __future__ import annotations

from math import gcd

import pytest

from monomod.classify import decide_quasi
from monomod import construct, core
from monomod.construct import (
    reducible_k_prop34,
    witness_lemma41,
    witness_prop34,
    witness_prop36,
    witness_prop51,
)
from monomod.modring import ResidueRing
from monomod.monomial import MonomialReport, minimal_size, report
from monomod.solutions import ModTuple, solution_sign


def test_prop36_small_example():
    w = witness_prop36(3, 5)
    assert (w.modulus, w.k, w.size, w.source) == (15, 7, 30, "prop36")
    assert w.reducer.entries == (12, 7, 7, 7, 12)  # border -3 mod 15
    assert solution_sign(w.reducer) == 1  # m = 2 mod 3 branch
    assert w.verify()


def test_prop36_large_example():
    w = witness_prop36(107, 163)
    assert (w.modulus, w.k, w.size) == (17441, 3425, 978)
    assert len(w.reducer) == 165
    assert w.reducer.entries[0] == (-3423) % 17441
    assert solution_sign(w.reducer) == -1  # m = 1 mod 3 branch
    assert w.verify()


def test_prop36_n_two_halves_the_size():
    w = witness_prop36(2, 5)
    assert (w.modulus, w.size) == (10, 15)
    assert minimal_size(ResidueRing(10), w.k)[0] == 15
    assert w.verify()


@pytest.mark.parametrize("n,m", [(3, 4), (3, 9), (3, 6), (5, 15), (4, 1), (1, 5)])
def test_prop36_rejects_bad_factor_pairs(n, m):
    with pytest.raises(ValueError):
        witness_prop36(n, m)


def test_prop51_small_example():
    w = witness_prop51(3, 5)
    assert (w.modulus, w.k, w.size, w.source) == (15, 8, 30, "prop51")
    assert w.reducer.entries[0] == 5
    assert len(w.reducer) == 27
    assert solution_sign(w.reducer) == 1
    assert w.verify()


def test_prop51_large_example():
    w = witness_prop51(107, 163)
    assert (w.modulus, w.k, w.size) == (17441, 3747, 34882)
    assert w.reducer.entries[0] == (-6846) % 17441
    assert len(w.reducer) == 24289
    assert w.verify()


@pytest.mark.parametrize("n,m", [(2, 5), (3, 8), (5, 3), (3, 3), (3, 15), (5, 5)])
def test_prop51_rejects_bad_factor_pairs(n, m):
    with pytest.raises(ValueError):
        witness_prop51(n, m)


@pytest.mark.parametrize(
    "p,n,t,a,modulus,k,size,length,x",
    [
        (3, 2, 1, 1, 9, 3, 6, 4, 6),
        (5, 2, 1, 1, 25, 5, 10, 4, 20),
        (3, 3, 1, 2, 27, 6, 18, 12, 24),
    ],
)
def test_lemma41_examples(p, n, t, a, modulus, k, size, length, x):
    w = witness_lemma41(p, n, t, a)
    assert (w.modulus, w.k, w.size, w.source) == (modulus, k, size, "lemma41")
    assert (w.reducer.entries[0], len(w.reducer)) == (x, length)
    assert w.verify()
    # the claimed minimal solution itself lands on -Id
    assert minimal_size(ResidueRing(modulus), k) == (size, -1)


@pytest.mark.parametrize("p,n,t,a", [(4, 2, 1, 1), (2, 3, 1, 1), (3, 1, 0, 1), (3, 3, 3, 1), (3, 2, 1, 3)])
def test_lemma41_rejects_bad_parameters(p, n, t, a):
    with pytest.raises(ValueError):
        witness_lemma41(p, n, t, a)


def test_prop34_examples():
    w16 = witness_prop34(16)
    assert (w16.modulus, w16.k, w16.source) == (16, 4, "prop34")
    # 45 = 3*3*5: divisible by an odd square, so N/p = 15 is designated
    w45 = witness_prop34(45)
    assert (w45.k, w45.size) == (15, 6)
    assert (w45.reducer.entries[0], len(w45.reducer)) == (30, 4)
    assert witness_prop34(24) is None
    assert reducible_k_prop34(48) == 12  # 16 | 48 takes precedence
    assert reducible_k_prop34(2) is None
    with pytest.raises(ValueError):
        reducible_k_prop34(1)


def test_constructed_prop34_certificates_verify():
    assert witness_prop34(24) is None
    for n in (16, 45, 48, 50, 63, 80, 96, 99):
        cw = witness_prop34(n)
        assert cw is not None and cw.source == "prop34"
        assert cw.verify(), n


def test_prop34_raises_when_its_residue_is_not_reducible(monkeypatch):
    def no_witness(ring, k):
        rep = report(ring, k)
        return MonomialReport(rep.modulus, rep.k, rep.size, rep.sign, True, None)

    monkeypatch.setattr(construct, "report", no_witness)
    with pytest.raises(RuntimeError, match="k=15"):
        witness_prop34(45)


def test_prop34_walks_once(monkeypatch):
    walks = []
    for name in ("order_pm", "order_and_reduction"):

        def counted(*args, _walk=getattr(core, name), **kwargs):
            walks.append(args)
            return _walk(*args, **kwargs)

        monkeypatch.setattr(core, name, counted)
    for n in (16, 45, 48, 50, 63, 80, 96, 99):
        walks.clear()
        cw = witness_prop34(n)
        assert len(walks) == 1, n
        assert cw.verify(), n  # verify re-derives the size with its own walk
        assert len(walks) == 2, n


def test_verify_rejects_tampered_certificates():
    w = witness_prop36(3, 5)
    fake_size = type(w)(w.modulus, w.k, w.size + 2, w.reducer, w.source)
    assert not fake_size.verify()
    fake_k = type(w)(w.modulus, (w.k + 1) % w.modulus, w.size, w.reducer, w.source)
    assert not fake_k.verify()
    fake_modulus = type(w)(30, w.k, w.size, w.reducer, w.source)
    assert not fake_modulus.verify()
    ring, x, k = w.reducer.ring, w.reducer.entries[0], w.k
    assert (w.modulus, k, w.size, x, len(w.reducer)) == (15, 7, 30, 12, 5)

    def tampered(k=k, entries=w.reducer.entries):
        return type(w)(w.modulus, k, w.size, ModTuple(ring, entries), w.source)

    assert not tampered(k=0).verify()
    assert not tampered(entries=(x,) + (k,) * (w.size - 2) + (x,)).verify()  # too long
    assert not tampered(entries=(x, x)).verify()  # too short
    assert not tampered(entries=(x, k, k + 1, k, x)).verify()  # not (x, k, ..., k, x)
    assert not tampered(entries=(x, k, k, k, x + 1)).verify()  # borders differ
    assert not tampered(entries=(1, k, k, k, 1)).verify()  # 1 * (1 - k) != 0 mod 15
    assert not tampered(entries=(x, k, k, x)).verify()  # a border root, but no solution


def _prop36_pairs(limit: int):
    for m in range(5, limit // 2 + 1, 2):
        if m % 3 == 0:
            continue
        for n in range(2, limit // m + 1):
            if gcd(n, m) == 1:
                yield n, m


def _prop51_pairs(limit: int):
    for n in range(3, limit, 2):
        for m in range(n + 2, limit // n + 1, 2):
            if gcd(n, m) == 1:
                yield n, m


def test_prop36_certificates_self_verify_everywhere():
    pairs = list(_prop36_pairs(1000))
    assert pairs
    for n, m in pairs:
        w = witness_prop36(n, m)
        assert gcd(w.k, w.modulus) == 1, (n, m)
        assert w.verify(), (n, m)


def test_prop51_certificates_self_verify_everywhere():
    pairs = list(_prop51_pairs(1000))
    assert pairs
    for n, m in pairs:
        w = witness_prop51(n, m)
        assert gcd(w.k, w.modulus) == 1, (n, m)
        assert w.verify(), (n, m)


def test_lemma41_certificates_self_verify_everywhere():
    checked = 0
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        n = 2
        while p**n <= 750:
            for t in range(1, n):
                for a in range(1, p ** (n - t)):
                    if a % p == 0:
                        continue
                    w = witness_lemma41(p, n, t, a)
                    assert w.verify(), (p, n, t, a)
                    checked += 1
            n += 1
    assert checked > 500


def test_prop36_moduli_are_never_quasi_irreducible():
    seen = set()
    for n, m in _prop36_pairs(200):
        if n * m in seen:
            continue
        seen.add(n * m)
        assert decide_quasi(ResidueRing(n * m)).verdict is False, (n, m)
