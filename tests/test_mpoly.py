"""Tests for polynomial parsing, evaluation, Jacobians, and shift-rescale."""

import pytest
from hypothesis import given, settings, strategies as st

from padiczeta.characters import unit_group
from padiczeta.errors import (
    ArgumentOutOfRange,
    DimensionMismatch,
    NegativeExponent,
    PadicZetaError,
    PolynomialSyntaxError,
    VariableOutOfRange,
    ZeroPolynomial,
)
from padiczeta.mpoly import (
    MPoly,
    PolySystem,
    parse_polynomial,
    shift_rescale,
    system_from_strings,
)
from padiczeta.padic import int_valuation
from padiczeta.ratfn import RationalFn
from padiczeta.support import Support


def test_parse_monomial():
    f = parse_polynomial("x2^2", 2)
    assert f.terms == {(0, 2): 1}


def test_parse_linear_combination():
    f = parse_polynomial("3*x1 - 9*x2", 2)
    assert f.terms == {(1, 0): 3, (0, 1): -9}


def test_parse_expansion():
    f = parse_polynomial("(x1 + x2)^2 - x1^2 - 2*x1*x2", 2)
    assert f.terms == {(0, 2): 1}


def test_parse_negative_exponent():
    with pytest.raises(NegativeExponent) as info:
        parse_polynomial("x1^-1", 1)
    assert info.value.position == 3


def test_parse_variable_out_of_range():
    with pytest.raises(VariableOutOfRange):
        parse_polynomial("x5", 3)


def test_parse_errors_carry_position():
    with pytest.raises(PolynomialSyntaxError) as info:
        parse_polynomial("x1 + ", 2)
    assert info.value.position == 5


coefficients = st.integers(min_value=-9, max_value=9)
exponents = st.integers(min_value=0, max_value=4)


@st.composite
def polynomials(draw, n=2, max_terms=5):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        expo = tuple(draw(exponents) for _ in range(n))
        coeff = draw(coefficients)
        if coeff:
            terms[expo] = coeff
    return MPoly(n, terms)


@given(polynomials())
def test_print_parse_round_trip(f):
    assert parse_polynomial(str(f), f.n).terms == f.terms


def test_evaluate_mod_examples():
    f = parse_polynomial("x2^2", 2)
    value = f.evaluate((0, 3), 3**4)
    assert value == 9 and int_valuation(value, 3) == 2
    g = parse_polynomial("3*x1 - 9*x2", 2)
    assert g.evaluate((1, 0), 3**3) == 3
    assert g.evaluate((0, 1), 3**3) == (-9) % 27
    h = parse_polynomial("x1", 2)
    assert h.evaluate((0, 5), 3**4) == 0


def test_evaluate_dimension_mismatch():
    f = parse_polynomial("x1", 2)
    with pytest.raises(DimensionMismatch):
        f.evaluate((1,))


@st.composite
def evaluation_cases(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    expo = st.lists(st.integers(min_value=0, max_value=6), min_size=n, max_size=n)
    terms = draw(
        st.dictionaries(
            expo.filter(lambda e: sum(e) <= 6).map(tuple), st.integers(-50, 50), max_size=6
        )
    )
    point = tuple(draw(st.lists(st.integers(-10**4, 10**4), min_size=n, max_size=n)))
    modulus = draw(
        st.none() | st.builds(pow, st.sampled_from([2, 3, 5, 7]), st.integers(1, 8))
    )
    return MPoly(n, terms), terms, point, modulus


@given(evaluation_cases())
@settings(max_examples=200)
def test_evaluate_matches_term_sum(case):
    f, terms, point, modulus = case
    total = 0
    for expo, coeff in terms.items():
        term = coeff
        for x, a in zip(point, expo):
            term *= x**a
        total += term
    assert f.evaluate(point, modulus) == (total if modulus is None else total % modulus)
    with pytest.raises(DimensionMismatch):
        f.evaluate(point + (0,), modulus)


def _jacobian_row(f, point, modulus):
    return [f.partial(j).evaluate(point, modulus) for j in range(1, f.n + 1)]


def test_jacobian_examples():
    system = system_from_strings(3, 2, ["x1"], "x2^2")
    assert _jacobian_row(system.constraints[0], (0, 0), 27) == [1, 0]
    assert _jacobian_row(system.target, (0, 3), 27)[1] == 6
    system = system_from_strings(3, 2, ["3*x1 - 9*x2"], "x2")
    assert _jacobian_row(system.constraints[0], (4, 7), 27) == [3, (-9) % 27]


@given(polynomials(), st.integers(min_value=0, max_value=26), st.integers(min_value=1, max_value=3))
@settings(max_examples=60)
def test_jacobian_matches_finite_differences(f, base, k):
    # f(x + h e_j) - f(x) = h * df/dx_j(x) mod h^2 for h = p^k
    p, M = 3, 2 * k
    h = p**k
    x = (base % 27, (base * 7 + 1) % 27)
    for j in (1, 2):
        bumped = list(x)
        bumped[j - 1] += h
        lhs = (f.evaluate(bumped, p**M) - f.evaluate(x, p**M)) % p**M
        rhs = h * f.partial(j).evaluate(x, p**M) % p**M
        assert lhs == rhs


def test_shift_rescale_examples():
    f = parse_polynomial("3*x1 - 9*x2", 2)
    e, fL = shift_rescale(f, (0, 0), 2, 3)
    assert e == 3 and fL.terms == {(1, 0): 1, (0, 1): -3}
    g = parse_polynomial("x1^2", 1)
    e, gL = shift_rescale(g, (0,), 1, 3)
    assert e == 2 and gL.terms == {(2,): 1}
    h = parse_polynomial("x1 + 3", 1)
    e, hL = shift_rescale(h, (0,), 1, 3)
    assert e == 1 and hL.terms == {(1,): 1, (0,): 1}


def test_shift_rescale_zero_rejected():
    with pytest.raises(ZeroPolynomial):
        shift_rescale(MPoly.zero(2), (0, 0), 1, 3)


@given(
    polynomials(max_terms=4),
    st.tuples(st.integers(min_value=-8, max_value=8), st.integers(min_value=-8, max_value=8)),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=60)
def test_shift_rescale_round_trip(f, x0, L):
    if f.is_zero():
        return
    p, M = 3, 5
    e, fL = shift_rescale(f, x0, L, p)
    assert fL.content_valuation(p) == 0
    for y in [(0, 0), (1, 2), (5, 7), (12, 25)]:
        point = tuple(c + p**L * v for c, v in zip(x0, y))
        lhs = f.evaluate(point, p ** (M + e))
        rhs = p**e * fL.evaluate(y, p**M) % p ** (M + e)
        assert lhs == rhs


def _substitute_by_products(f, shift, scale):
    """f(shift + scale * y) by repeated MPoly products, one term at a time."""
    n = f.n
    substs = [
        MPoly.constant(n, shift[j]) + MPoly.variable(n, j + 1).scale(scale) for j in range(n)
    ]
    result = MPoly.zero(n)
    for expo, coeff in f.terms.items():
        term = MPoly.constant(n, coeff)
        for j, a in enumerate(expo):
            if a:
                term = term * substs[j] ** a
        result = result + term
    return result


@st.composite
def affine_substitutions(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    f = draw(polynomials(n=n))
    # zero and negative shifts included; the scale is p^L, 1 at L = 0
    shift = tuple(draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)))
    scale = draw(st.sampled_from([2, 3, 5])) ** draw(st.integers(min_value=0, max_value=3))
    return f, shift, scale


@given(affine_substitutions())
@settings(max_examples=150)
def test_substitute_affine_matches_repeated_products(case):
    f, shift, scale = case
    expanded = f.substitute_affine(shift, scale)
    assert expanded == _substitute_by_products(f, shift, scale)
    assert all(expanded.terms.values())  # no zero coefficient is stored
    zero = f.substitute_affine((0,) * f.n, scale)  # f(p^L y): each term scaled
    assert zero.terms == {e: c * scale ** sum(e) for e, c in f.terms.items()}
    assert f.substitute_affine(shift, 1).substitute_affine(tuple(-c for c in shift), 1) == f


def test_substitute_affine_cancels_to_no_term():
    # x1^2 - 2*x1 + 1 = (x1 - 1)^2: at x1 = 1 + y1 the y1 and constant terms cancel
    f = parse_polynomial("x1^2 - 2*x1 + 1", 1)
    assert f.substitute_affine((1,), 3).terms == {(2,): 9}
    with pytest.raises(DimensionMismatch):
        f.substitute_affine((1, 0), 3)


def test_system_validation():
    with pytest.raises(ValueError):
        PolySystem(p=4, n=2, constraints=(parse_polynomial("x1", 2),), target=parse_polynomial("x2", 2))
    with pytest.raises(ValueError):
        system_from_strings(3, 1, ["x1"], "x1")  # l = 2 > n = 1
    with pytest.raises(ZeroPolynomial):
        system_from_strings(3, 2, ["x1"], "0")
    with pytest.raises(ValueError):
        system_from_strings(3, 2, ["x1"], "5")  # unit constant never vanishes


@pytest.mark.parametrize(
    "call",
    [
        lambda: Support(2, 0, ((0, 0),)),
        lambda: Support.cosets(2, 1, [(1,)], 3),
        lambda: unit_group(3, 0),
        lambda: RationalFn((1,), (0, 1)),
        lambda: parse_polynomial("x1", 2) ** -1,
        lambda: system_from_strings(4, 2, ["x1"], "x2"),
        lambda: system_from_strings(3, 2, [], "x2"),
        lambda: system_from_strings(3, 2, ["x1", "x2"], "x1"),
        lambda: system_from_strings(3, 2, ["x1"], "5"),
        lambda: system_from_strings(3, 2, ["x1"], "x2", resolution_data=[(0, 1)]),
        lambda: shift_rescale(parse_polynomial("x1", 2), (0, 0), -1, 3),
    ],
    ids=[
        "support_level",
        "coset_dimension",
        "character_level",
        "denominator_at_zero",
        "negative_power",
        "composite_p",
        "no_constraint",
        "too_many_polys",
        "constant_target",
        "resolution_data",
        "negative_rescale",
    ],
)
def test_bad_arguments_raise_typed_errors(call):
    # each is a PadicZetaError, and a ValueError too, so `load_problem`
    # still maps a bad spec to exit 1 with the same message
    with pytest.raises(ArgumentOutOfRange) as info:
        call()
    assert isinstance(info.value, PadicZetaError) and isinstance(info.value, ValueError)
