"""Tests for the delta_r regularization and its limit identity."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from test_variety import graph_systems

import padiczeta.regularize as regularize
from padiczeta.bundled import LINE_X2, PARABOLA, PLANE_LINE
from padiczeta.errors import ArgumentOutOfRange, PadicZetaError
from padiczeta.padic import int_valuation
from padiczeta.regularize import delta_integral, delta_limit_check
from padiczeta.support import Support

F = Fraction


@pytest.mark.parametrize("l", [2, 3])
@pytest.mark.parametrize("r", [0, 1, 2])
def test_delta_normalization_is_one(l, r):
    # delta_r integrates to 1: (p^r Z_p)^(l-1) holds p^((depth - r)(l - 1)) of
    # the classes mod p^depth, each of measure p^(-depth (l - 1))
    p, depth = 3, r + 2
    scale = regularize._delta_scale(p, r, l)
    assert scale == p ** (r * (l - 1))
    assert scale * F(p ** ((depth - r) * (l - 1)), p ** (depth * (l - 1))) == 1


def test_delta_integral_x2_line():
    # exact limit value: sum over shells (2/3) 3^(-3k) = 9/13
    approx = delta_integral(LINE_X2.system, 1, r=2, depth=5)
    assert isinstance(approx.value, Fraction)
    assert abs(float(approx.value) - F(9, 13)) <= float(approx.tail_bound)


def _per_node_delta(system, s, r, depth):
    """(value, tail): the terms of the ambient walk, each its own Fraction, summed."""
    p, n = system.p, system.n
    scale = regularize._delta_scale(p, r, system.l)
    exact, tail = F(0), F(0)
    for j, v, mult in regularize._ambient_walk(system, r, depth, None, 10**7):
        coset = scale * F(mult, p ** (j * n))
        if v is None:
            tail += coset * F(1, p ** (depth * s))
        else:
            exact += coset * F(1, p ** (v * s))
    return exact, tail


@pytest.mark.parametrize("r, depth", [(0, 5), (2, 6), (3, 8)])
def test_delta_integral_equals_per_node_sum(r, depth):
    # the integer numerators over one denominator give the same exact value and tail
    for system in (LINE_X2.system, PARABOLA.system):
        for s in (1, 2):
            approx = delta_integral(system, s, r, depth)
            assert (approx.value, approx.tail_bound) == _per_node_delta(system, s, r, depth)


def _brute_delta(system, s, r, depth, support):
    """(value, tail) of I_r summed over every x mod p^depth.

    x counts when its constraints are 0 mod p^r and the support admits
    it, with weight p^(r(l - 1) - depth n) times |f(x)|^s = p^(-v s).
    The walk reads v at the level max(settle, v + 1), settle = max(r,
    support level, 1); x goes to the tail with |f|^s = p^(-depth s) when
    f = 0 mod p^depth or that level lies past the scan depth.
    """
    p, n = system.p, system.n
    settle = max(r, support.level if support else 0, 1)
    weight = F(regularize._delta_scale(p, r, system.l), p ** (depth * n))
    exact, tail = F(0), F(0)
    for x in itertools.product(range(p**depth), repeat=n):
        if support is not None and not support.admits_prefix(x, depth, p):
            continue
        if any(f.evaluate(x, p**r) for f in system.constraints):
            continue
        v = int_valuation(system.target.evaluate(x, p**depth), p)
        if v is None or max(settle, v + 1) > depth:
            tail += weight / p ** (depth * s)
        else:
            exact += weight / p ** (v * s)
    return exact, tail


@given(graph_systems().filter(lambda system: system.p <= 3), st.data())
@settings(max_examples=30, deadline=None)
def test_delta_integral_matches_brute_force(system, data):
    # good and bad reduction at p = 2 and 3, on the unit polydisc or a coset
    # support: the counted subtrees give every value and tail exactly
    p = system.p
    depth = data.draw(st.integers(1, 4), label="depth")
    r = data.draw(st.integers(0, depth - 1), label="r")
    support = None
    if data.draw(st.booleans(), label="coset support"):
        level = data.draw(st.integers(1, 3), label="level")
        center = st.tuples(st.integers(0, p**level - 1), st.integers(0, p**level - 1))
        centers = data.draw(st.lists(center, min_size=1, max_size=3), label="centers")
        support = Support.cosets(2, level, centers, p)
    for s in (1, 2):
        approx = delta_integral(system, s, r, depth, support)
        assert (approx.value, approx.tail_bound) == _brute_delta(system, s, r, depth, support)


def test_delta_integral_argument_errors_are_typed():
    # both checks raise a PadicZetaError that callers catching ValueError still see
    for s, r, depth in ((0, 1, 3), (1, 3, 3)):
        with pytest.raises(ArgumentOutOfRange) as caught:
            delta_integral(LINE_X2.system, s, r, depth)
        assert isinstance(caught.value, PadicZetaError)
        assert isinstance(caught.value, ValueError)


def test_delta_integral_parabola():
    # surface integral of |x2| over the parabola: (2/3)/(1 - 1/9) = 3/4
    approx = delta_integral(PARABOLA.system, 1, r=3, depth=6)
    assert abs(float(approx.value) - F(3, 4)) <= float(approx.tail_bound)


def test_delta_integral_r0_is_plain_integral():
    # delta_0 = 1: the plain polydisc integral of |x2^2|, via shells of x2^2
    approx = delta_integral(LINE_X2.system, 1, r=0, depth=6)
    plain = sum(F(2, 3) * F(1, 27) ** k for k in range(20))  # partial shell sum
    assert abs(float(approx.value) - float(plain)) <= float(approx.tail_bound) + 1e-9


def test_delta_tail_decreases_with_depth():
    shallow = delta_integral(LINE_X2.system, 1, r=2, depth=4)
    deep = delta_integral(LINE_X2.system, 1, r=2, depth=7)
    assert deep.tail_bound < shallow.tail_bound


def test_delta_limit_check_x2_line():
    report = delta_limit_check(LINE_X2.system, 1, [0, 1, 2, 3, 4], depth=9)
    assert report.passed
    assert report.r0 is not None and report.r0 <= 4
    assert report.rows[0].surface_value == F(9, 13)
    assert all(row.tail_bound <= F(1, 10**6) for row in report.rows)


def test_delta_limit_check_parabola():
    report = delta_limit_check(PARABOLA.system, 1, [0, 1, 2, 3, 4], depth=9)
    assert report.passed
    assert report.r0 is not None and report.r0 <= 4
    assert report.rows[0].surface_value == F(3, 4)
    assert all(row.tail_bound <= F(1, 10**6) for row in report.rows)


def test_delta_limit_check_two_constraints():
    report = delta_limit_check(PLANE_LINE.system, 1, [0, 1, 2, 3], depth=7)
    assert report.passed


def test_delta_value_constant_past_chart_level():
    # local constancy: I_r stops depending on r once r clears the chart level
    values = [
        delta_integral(PARABOLA.system, 1, r=r, depth=8).value for r in (3, 4, 5)
    ]
    assert values[0] == values[1] == values[2]


def test_mutated_delta_scale_fails(monkeypatch):
    # falsification path: wrong normalization p^(r l) must break the limit
    monkeypatch.setattr(regularize, "_delta_scale", lambda p, r, l: p ** (r * l))
    report = delta_limit_check(LINE_X2.system, 1, [2, 3, 4], depth=7)
    assert not report.passed
