"""Tests for rational function reconstruction and pole analysis."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from padiczeta.errors import (
    ConstantDenominator,
    NoRecurrenceFound,
    PoleSetMismatch,
    ValidationFailed,
)
from padiczeta.ratfn import (
    HELD_OUT,
    RationalFn,
    candidate_pole_check,
    pole_analysis,
    pole_data_from_resolution,
    reconstruct_rational,
)

F = Fraction


def test_reconstruct_geometric():
    r = F(2, 5)
    fn = reconstruct_rational([r**m for m in range(10)])
    assert fn == RationalFn((F(1),), (F(1), -r))


def test_reconstruct_zero():
    fn = reconstruct_rational([F(0)] * 8)
    assert fn.is_zero()


def test_reconstruct_scaled_count_series():
    # scaled counts 1, 1/3, 1/3, 1/9, 1/9, ... satisfy a_m = a_{m-2}/3
    coeffs = [F(1, 3 ** ((m + 1) // 2)) for m in range(10)]
    fn = reconstruct_rational(coeffs)
    expected = RationalFn((F(1), F(1, 3)), (F(1), F(0), F(-1, 3)))
    assert fn == expected


def test_reconstruct_validates_held_out_terms():
    # the last coefficient breaks the recurrence, so every fit must fail
    coeffs = [F(1, 2) ** m for m in range(8)] + [F(7)]
    with pytest.raises((ValidationFailed, NoRecurrenceFound)):
        reconstruct_rational(coeffs)


def test_reconstruct_needs_data():
    with pytest.raises(NoRecurrenceFound):
        reconstruct_rational([F(1)] * HELD_OUT)


@st.composite
def small_rational_fns(draw):
    num_deg = draw(st.integers(min_value=0, max_value=2))
    den_deg = draw(st.integers(min_value=0, max_value=2))
    num = [F(draw(st.integers(-4, 4))) for _ in range(num_deg + 1)]
    den = [F(1)] + [F(draw(st.integers(-3, 3)), draw(st.integers(1, 3))) for _ in range(den_deg)]
    return RationalFn(tuple(num), tuple(den))


@given(small_rational_fns())
@settings(max_examples=80)
def test_reconstruct_recovers_series(fn):
    depth = 2 * (len(fn.num) + len(fn.den)) + 4
    coeffs = fn.series(depth)
    recovered = reconstruct_rational(coeffs)
    assert recovered == fn


def test_series_expansion():
    fn = RationalFn((F(2, 3),), (F(1), F(0), F(-1, 3)))
    assert fn.series(5) == [F(2, 3), F(0), F(2, 9), F(0), F(2, 27)]


def test_arithmetic_and_equality():
    a = RationalFn((F(1),), (F(1), F(-1, 2)))
    b = RationalFn((F(1),), (F(1),))
    assert (a - a).is_zero()
    assert a * b == a
    total = a + b
    assert total.series(3) == [F(2), F(1, 2), F(1, 4)]


def test_eval_exact():
    fn = RationalFn((F(2, 3),), (F(1), F(0), F(-1, 3)))
    assert fn.eval_exact(F(1)) == F(1)
    assert fn.eval_exact(F(1, 3)) == F(9, 13)


def test_to_json_lists_exact_coefficients():
    fn = RationalFn((F(1), F(1, 3)), (F(1), F(0), F(-1, 3)))
    assert fn.to_json() == {
        "numerator": [[1, 1], [1, 3]],
        "denominator": [[1, 1], [0, 1], [-1, 3]],
    }


def test_pole_analysis_exact_patterns():
    p = 3
    fn = RationalFn((F(1),), (F(1), F(0), F(-1, 3)))  # 1 - t^2/3
    data = pole_analysis(fn, p)
    assert data.rho_exact == F(1, 2) and data.m_rho == 1

    double = RationalFn((F(1),), (F(1), F(-2, 3), F(1, 9)))  # (1 - t/3)^2
    data = pole_analysis(double, p)
    assert data.rho_exact == F(1) and data.m_rho == 2

    cubic = RationalFn((F(1),), (F(1), F(0), F(0), F(-1, 9)))  # 1 - t^3/9
    data = pole_analysis(cubic, p)
    assert data.rho_exact == F(2, 3) and data.m_rho == 1


def test_pole_analysis_numeric_fallback():
    # denominator 1 - t/2 - t^2/5 has no 1 - p^-v t^N factorization
    fn = RationalFn((F(1),), (F(1), F(-1, 2), F(-1, 5)))
    data = pole_analysis(fn, 3)
    assert data.rho_exact is None
    root = min(abs(r) for r, _ in data.roots)
    assert abs(3**data.rho - root) < 1e-8


def test_pole_analysis_constant_denominator():
    with pytest.raises(ConstantDenominator):
        pole_analysis(RationalFn((F(1),), (F(1),)), 3)


def test_candidate_pole_check_pass():
    fn = RationalFn((F(1),), (F(1), F(0), F(-1, 3)))
    match = candidate_pole_check(fn, [(2, 1)], 3)
    assert match.multiplicities == ((2, 1, 1),)


def test_candidate_pole_check_composite():
    den = RationalFn((F(1),), (F(1), F(-1, 3))) * RationalFn((F(1),), (F(1), F(0), F(0), F(-1, 9)))
    match = candidate_pole_check(den, [(1, 1), (3, 2)], 3)
    assert match.multiplicities == ((1, 1, 1), (3, 2, 1))


def test_candidate_pole_check_mismatch():
    fn = RationalFn((F(1),), (F(1), F(0), F(-1, 3)))
    with pytest.raises(PoleSetMismatch):
        candidate_pole_check(fn, [(3, 1)], 3)


def test_pole_data_from_resolution():
    data = pole_data_from_resolution([(2, 1), (3, 2)], 3)
    assert data.rho_exact == F(1, 2) and data.m_rho == 1
