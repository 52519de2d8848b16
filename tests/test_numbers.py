"""Integer helpers checked against sympy as an independent oracle."""

from __future__ import annotations

import math

import pytest
import sympy
from hypothesis import given, strategies as st

from monomod._numbers import (
    divisor_phis,
    egcd,
    factorize,
    inv_mod,
    is_prime,
    prime_power,
    sieve_primes,
)
from oracles import euler_phi


@given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
def test_egcd_bezout_identity(a, b):
    g, x, y = egcd(a, b)
    assert g == math.gcd(a, b)
    assert a * x + b * y == g


@given(st.integers(2, 10**6), st.integers(1, 10**6))
def test_inv_mod_inverts_units(n, a):
    if math.gcd(a, n) == 1:
        assert a * inv_mod(a, n) % n == 1
    else:
        with pytest.raises(ValueError):
            inv_mod(a, n)


def test_divisors_match_brute_force():
    for n in range(1, 3001):
        pairs = divisor_phis(n)
        assert [d for d, _ in pairs] == [d for d in range(1, n + 1) if n % d == 0], n
        assert all(phi == euler_phi(d) for d, phi in pairs), n
    with pytest.raises(ValueError):
        divisor_phis(0)


def test_sieve_matches_sympy():
    assert sieve_primes(1) == []
    assert sieve_primes(2) == [2]
    assert sieve_primes(5000) == list(sympy.primerange(2, 5001))


@pytest.mark.parametrize("n", range(-3, 2000))
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == sympy.isprime(n)


@given(st.integers(1, 10**7))
def test_factorize_matches_sympy(n):
    fac = factorize(n)
    assert fac == dict(sympy.factorint(n))
    prod = 1
    for p, e in fac.items():
        prod *= p**e
    assert prod == n


@pytest.mark.parametrize("n", range(1, 500))
def test_euler_phi_matches_sympy(n):
    assert euler_phi(n) == sympy.totient(n)


def test_euler_phi_rejects_nonpositive():
    with pytest.raises(ValueError):
        euler_phi(0)
    with pytest.raises(ValueError):
        factorize(0)


@pytest.mark.parametrize(
    "n,expected",
    [(2, (2, 1)), (8, (2, 3)), (27, (3, 3)), (97, (97, 1)), (12, None), (1, None)],
)
def test_prime_power_examples(n, expected):
    assert prime_power(n) == expected


@given(st.integers(2, 10**6))
def test_prime_power_round_trip(n):
    pe = prime_power(n)
    if pe is None:
        assert len(sympy.factorint(n)) > 1
    else:
        p, e = pe
        assert sympy.isprime(p) and p**e == n
