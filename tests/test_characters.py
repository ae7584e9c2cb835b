"""Tests for character groups, conductors, and Gaussian sums."""

import cmath
import math

import pytest
from hypothesis import given, strategies as st

from padiczeta.characters import (
    MultChar,
    chi_value,
    enumerate_characters,
    gauss_sum,
    trivial_character,
    unit_group,
)
from padiczeta.errors import (
    EvenPrimeUnsupported,
    ModulusTooLarge,
    NonUnitArgument,
    TrivialCharacter,
)
from padiczeta.padic import psi_ratio


def test_group_sizes():
    assert len(enumerate_characters(3, 1)) == 2
    assert len(enumerate_characters(5, 1)) == 4
    assert len(enumerate_characters(3, 2)) == 6


def test_conductors_mod_3():
    conductors = sorted(c.conductor for c in enumerate_characters(3, 1))
    assert conductors == [0, 1]


def test_conductors_mod_5():
    conductors = sorted(c.conductor for c in enumerate_characters(5, 1))
    assert conductors == [0, 1, 1, 1]


def test_conductors_mod_9():
    # characters trivial on 1 + 3Z/9 (a subgroup of order 3) factor through
    # (Z/3)^*, so exactly 2 have conductor <= 1 and the other 4 have conductor 2
    conductors = sorted(c.conductor for c in enumerate_characters(3, 2))
    assert conductors == [0, 1, 2, 2, 2, 2]


def test_conductor_brute_force_agreement():
    for p, c in [(3, 2), (5, 2), (7, 1)]:
        group = unit_group(p, c)
        for chi in enumerate_characters(p, c):
            smallest = 0
            for level in range(0, c + 1):
                units = [
                    u
                    for u in range(1, p**c)
                    if u % p != 0 and (u - 1) % p**level == 0
                ]
                if all(abs(chi_value(chi, u) - 1) < 1e-12 for u in units):
                    smallest = level
                    break
            assert chi.conductor == smallest


def test_chi_values():
    quad = next(c for c in enumerate_characters(3, 1) if c.index == 1)
    assert abs(chi_value(quad, 2) + 1) < 1e-12
    assert abs(chi_value(trivial_character(3), 2) - 1) < 1e-12
    quartic = next(c for c in enumerate_characters(5, 1) if abs(chi_value(c, 2) - 1j) < 1e-12)
    assert abs(chi_value(quartic, 4) + 1) < 1e-12  # chi(4) = chi(2)^2


def test_chi_rejects_non_units():
    quad = enumerate_characters(3, 1)[1]
    with pytest.raises(NonUnitArgument):
        chi_value(quad, 6)


def test_even_prime_rejected():
    with pytest.raises(EvenPrimeUnsupported):
        enumerate_characters(2, 1)


def test_modulus_too_large_rejected():
    with pytest.raises(ModulusTooLarge):
        enumerate_characters(3, 13)  # 3^13 > 10^6


@given(
    pc=st.sampled_from([(3, 1), (3, 2), (5, 1), (7, 1)]),
    index=st.integers(min_value=0, max_value=40),
    u=st.integers(min_value=1, max_value=300),
    v=st.integers(min_value=1, max_value=300),
)
def test_homomorphism(pc, index, u, v):
    p, c = pc
    group = unit_group(p, c)
    chi = enumerate_characters(p, c)[index % group.order]
    if u % p == 0 or v % p == 0:
        return
    lhs = chi_value(chi, u * v)
    rhs = chi_value(chi, u) * chi_value(chi, v)
    assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("p,c", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1)])
def test_orthogonality(p, c):
    for chi in enumerate_characters(p, c):
        if chi.is_trivial():
            continue
        total = sum(chi_value(chi, u) for u in range(1, p**c) if u % p != 0)
        assert abs(total) < 1e-10


@pytest.mark.parametrize("p,c", [(3, 1), (3, 2), (5, 1), (7, 2)])
def test_inverse_pairing(p, c):
    for chi in enumerate_characters(p, c):
        inv = chi.inverse()
        for u in range(1, min(p**c, 50)):
            if u % p:
                assert abs(chi_value(chi, u) * chi_value(inv, u) - 1) < 1e-12


def test_gauss_sum_quadratic_mod_3():
    # direct two-term oracle: (Psi(1/3) - Psi(2/3)) / 2 = i sqrt(3)/2
    quad = next(c for c in enumerate_characters(3, 1) if c.index == 1)
    oracle = (psi_ratio(1, 3, 1) - psi_ratio(2, 3, 1)) / 2
    assert abs(oracle - 1j * math.sqrt(3) / 2) < 1e-12
    assert abs(gauss_sum(quad) - oracle) < 1e-12


def test_gauss_sum_trivial_rejected():
    with pytest.raises(TrivialCharacter):
        gauss_sum(trivial_character(3))


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("c", [1, 2])
def test_gauss_sum_modulus_law(p, c):
    # |g| = p^(1 - c/2) / (p - 1) for every primitive character
    expected = p ** (1 - c / 2) / (p - 1)
    found = 0
    for chi in enumerate_characters(p, c):
        if chi.conductor != c:
            continue
        found += 1
        assert abs(abs(gauss_sum(chi)) - expected) < 1e-9
    assert found > 0


def test_gauss_sum_direct_summation_oracle():
    # independent oracle: unnormalized sum over units, then scale
    for p, c in [(5, 1), (3, 2)]:
        for chi in enumerate_characters(p, c):
            if chi.conductor != c:
                continue
            raw = sum(
                chi_value(chi, v) * cmath.exp(2j * cmath.pi * v / p**c)
                for v in range(1, p**c)
                if v % p
            )
            assert abs(gauss_sum(chi) - raw * p ** (1 - c) / (p - 1)) < 1e-12
