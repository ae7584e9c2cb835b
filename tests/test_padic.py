"""Tests for p-adic valuations and the additive character."""

import cmath
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from padiczeta.padic import int_valuation, psi_ratio

PRIMES = [2, 3, 5, 7]


def test_valuation_examples():
    assert int_valuation(18, 3) == 2
    assert int_valuation(0, 3) is None
    assert int_valuation(5, 2) == 0
    assert int_valuation(-54, 3) == 3


def test_additive_character_examples():
    assert psi_ratio(5, 3, 0) == 1
    assert abs(psi_ratio(9, 3, 2) - 1) < 1e-12
    expected = cmath.exp(2j * cmath.pi / 3)
    assert abs(psi_ratio(1, 3, 1) - expected) < 1e-12
    assert abs(psi_ratio(4 - 3**5, 3, 1) - expected) < 1e-12
    total = sum(psi_ratio(x, 3, 1) for x in range(3))
    assert abs(total) < 1e-12


@given(
    p=st.sampled_from([2, 3, 5]),
    a=st.integers(min_value=1, max_value=3**6),
    b=st.integers(min_value=1, max_value=3**6),
)
def test_valuation_additive_on_products(p, a, b):
    assert int_valuation(a * b, p) == int_valuation(a, p) + int_valuation(b, p)


@given(
    m1=st.integers(min_value=1, max_value=4),
    u1=st.integers(min_value=1, max_value=80),
    m2=st.integers(min_value=1, max_value=4),
    u2=st.integers(min_value=1, max_value=80),
)
def test_character_is_additive(m1, u1, m2, u2):
    # Psi(u1 / p^m1) Psi(u2 / p^m2) = Psi(u1 / p^m1 + u2 / p^m2)
    p = 3
    if u1 % p == 0 or u2 % p == 0:
        return
    m = max(m1, m2)
    total = Fraction(u1, p**m1) + Fraction(u2, p**m2)
    lhs = psi_ratio(u1, p, m1) * psi_ratio(u2, p, m2)
    assert abs(lhs - psi_ratio(u1 * p ** (m - m1) + u2 * p ** (m - m2), p, m)) < 1e-10
    assert abs(lhs - cmath.exp(2j * cmath.pi * float(total % 1))) < 1e-10


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_full_character_sum_vanishes(p, m):
    total = sum(psi_ratio(x, p, m) for x in range(p**m))
    assert abs(total) < 1e-10
