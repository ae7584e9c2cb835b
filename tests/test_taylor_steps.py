"""Property tests where the walks' Taylor steps fire.

Both tree walks use the target's first-order Taylor term at a node: the
class walk behind the counts and tail measures descends a node whose
slope, eliminated against the constraint pivots, is 0 mod p^j, and the
shell walk resolves a node where every Jacobian minor vanishes mod p^j
through F = F(y) - lam . G(y) mod p^(2j).
The drawn targets are critical at the origin, which every drawn curve
passes through, so both steps are reached; counters on the two branches
check that they were.  The image oracle filters a node's digit vectors
by the constraints' first-order Taylor step, drawn here at constraints
whose gradient vanishes mod p at a root.  Every result is compared with
brute_force_points.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import padiczeta.variety as variety
import padiczeta.zeta as zeta
from padiczeta.bundled import BAD_LINE, LINE_X2
from padiczeta.errors import NotStabilized, WalkInvariantError
from padiczeta.mpoly import MPoly, PolySystem, parse_polynomial, system_from_strings
from padiczeta.poincare import congruence_counts
from padiczeta.smoothing import Chart, measure_charts
from padiczeta.support import Support
from padiczeta.variety import (
    DEFAULT_BUDGET,
    BudgetMeter,
    brute_force_points,
    image_oracle,
    lifter_for,
)
from padiczeta.zeta import build_shell_table, tail_measure

TOP = {2: 6, 3: 5, 5: 3}  # brute-force level per prime: at most 3^10 grid points


@st.composite
def critical_graph_systems(draw):
    """(system, primitive, scale, support): a curve x1 + g(x2) through 0, critical target.

    The target is a cube, a cusp or a square whose linear term is a
    multiple of p^2, times a unit, so its derivative along the curve
    vanishes mod p^2 at the origin.  Half the draws scale the constraint
    by p: its Z_p points stay those of the primitive curve, but every
    root has bad reduction, the charts sit at L = 2, and a chart target
    carries p^L (s = L >= 1).  Measures then are `scale` = p times the
    primitive curve's.  A drawn support always keeps the origin's coset.
    """
    bad = draw(st.booleans())
    p = draw(st.sampled_from([2, 3] if bad else [2, 3, 5]))
    scale = p if bad else 1
    coeffs = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=3))
    g_terms = {(0, d): c for d, c in enumerate(coeffs, start=1) if c}
    primitive = MPoly(2, {(1, 0): 1, **g_terms})
    unit = draw(st.sampled_from([u for u in (1, -1, 2) if u % p]))
    shape = draw(st.sampled_from(["cube", "cusp", "square"]))
    if shape == "cube":
        terms = {(0, 3): unit}
    elif shape == "cusp":
        terms = {(2, 0): unit, (0, 3): 1}
    else:
        terms = {(0, 2): unit, (0, 1): p**2 * draw(st.integers(-2, 2))}
    target = MPoly(2, terms)
    support = None
    if draw(st.booleans()):
        level = draw(st.sampled_from([1, 2]))
        others = draw(st.lists(st.tuples(*[st.integers(0, p**level - 1)] * 2), max_size=2))
        support = Support.cosets(2, level, [(0, 0), *others], p)
    system = PolySystem(p=p, n=2, constraints=(primitive.scale(scale),), target=target)
    smooth = PolySystem(p=p, n=2, constraints=(primitive,), target=target)
    return system, smooth, scale, support


class _Branches:
    """Counts how often each Taylor step runs while patched in."""

    def __init__(self, mp):
        self.slope_zero = 0  # class-walk nodes whose slope is 0 mod p^j
        self.critical = 0  # shell-walk nodes resolved mod p^(2j)
        slopes = variety._slopes

        def counting_slopes(lifter, gradient):
            slope = slopes(lifter, gradient)

            def counted(x, j, e):
                v, shift = slope(x, j, e)
                self.slope_zero += v == e == j
                return v, shift

            return counted

        minors = zeta.jacobian_minors

        def counting_minors(partials, y, p, j):
            e, lam = minors(partials, y, p, j)
            if e == j and lam is not None:
                self.critical += 1
            return e, lam

        mp.setattr(variety, "_slopes", counting_slopes)
        mp.setattr(zeta, "jacobian_minors", counting_minors)


@given(critical_graph_systems())
@settings(max_examples=20, deadline=None)
def test_counts_descend_critical_nodes(case):
    system, smooth, scale, _ = case
    p, top = system.p, TOP[system.p]
    _, points = brute_force_points(smooth, top, collect=True)
    # the image mod p^m of the Z_p points is the primitive curve's solutions mod p^m
    expected = [1] + [
        len({tuple(c % p**m for c in x) for x in points if system.target.evaluate(x, p**m) == 0})
        for m in range(1, top + 1)
    ]
    with pytest.MonkeyPatch.context() as mp:
        branches = _Branches(mp)
        measure_charts.cache_clear()  # every draw walks charts built under its own patches
        assert congruence_counts(system, top) == expected
        decomposition = measure_charts(system, DEFAULT_BUDGET)
    # a bad draw's chart at the origin carries p^s past most of the
    # precision, so its nodes settle on T(x) with no slope to read
    assert branches.slope_zero or scale > 1, "the count walk never met a node of slope 0 mod p^j"
    assert (decomposition.L >= 1) == (scale > 1)


@given(critical_graph_systems())
@settings(max_examples=20, deadline=None)
def test_tail_measures_descend_critical_nodes(case):
    system, smooth, scale, support = case
    p, top = system.p, TOP[system.p]
    with pytest.MonkeyPatch.context() as mp:
        branches = _Branches(mp)
        measure_charts.cache_clear()  # every draw walks charts built under its own patches
        for sup in {None, support}:
            _, points = brute_force_points(smooth, top, support=sup, collect=True)
            for m in range(top + 1):
                zeros = sum(1 for x in points if system.target.evaluate(x, p**m) == 0)
                expected = scale * Fraction(zeros, p ** (top * system.dim))
                assert tail_measure(system, m, sup) == expected
    assert branches.slope_zero or scale > 1, "the tail walk never met a node of slope 0 mod p^j"


@given(critical_graph_systems())
@settings(max_examples=20, deadline=None)
def test_shell_tables_resolve_critical_nodes(case):
    system, smooth, scale, support = case
    p, top = system.p, TOP[system.p]
    unit = Fraction(scale, p ** (top * system.dim))
    with pytest.MonkeyPatch.context() as mp:
        branches = _Branches(mp)
        measure_charts.cache_clear()  # every draw walks charts built under its own patches
        for c in (1, 2):
            # every shell with m + c <= top, counted at top
            brute = brute_force_points(smooth, top, angular_level=c, support=support).by_shell
            table = build_shell_table(system, top - c, c_level=c, support=support)
            walked = {
                (m, u): measure for m, row in enumerate(table.measures) for u, measure in row.items()
            }
            assert walked == {shell: count * unit for shell, count in brute.items()}
    assert branches.critical, "no shell-walk node was resolved mod p^(2j)"


def test_target_guards_refuse_broken_invariants():
    # x1 = 0 with target x2^2: in the lifter of (x1, x2^2) the root x2 = 0
    # keeps all three lifts mod 9, and x2 = 1 is no zero of the target
    system = LINE_X2.system
    lifter = lifter_for(system.p, system.n, system.all_polys())
    assert lifter.children((0, 0), 1) == [(0, 0), (0, 3), (0, 6)]
    with pytest.raises(WalkInvariantError, match="does not satisfy the constraints at level 1"):
        lifter.children((0, 1), 1)
    # x2^2 has unit coefficients, so it is no target of a chart at L = 2:
    # its value mod p^(L + k) is no function of a level-k point
    decomposition = measure_charts(BAD_LINE.system, DEFAULT_BUDGET)
    chart = decomposition.charts[0]
    broken = Chart(
        chart.p,
        chart.center,
        chart.L,
        chart.constraints,
        system.target,
        chart.combined_constraints,
        chart.exponents,
    )
    meter = BudgetMeter(DEFAULT_BUDGET, "count walk")
    with pytest.raises(WalkInvariantError, match=r"does not carry p\^2"):
        decomposition.zeros(broken, 4, 6, None, meter)


# constraints with a root where the gradient vanishes mod p: there f(x)/p^j
# alone decides the lifts, and only the bound 2j >= j + 1 on the Taylor
# tail makes the second-order term vanish mod p^(j + 1)
SINGULAR = ["x1^2 - x2^3", "x1^2 - 3", "x1^2 - 2*x2^2", "x1*x2 - 5", "x1^3 + x2^3"]
ORACLE_TOP = {2: 6, 3: 4, 5: 3}  # deepest brute-force level per prime: at most 5^6 points


@st.composite
def nonlinear_constraints(draw):
    """(system, m, buffer): a nonlinear constraint in x1, x2.

    Half the draws take the constraint from SINGULAR, the rest random
    coefficients on the monomials of degree at most 3 with a nonlinear
    term, scaled by p in half of them so that no root is smooth.
    """
    p = draw(st.sampled_from([2, 3, 5]))
    if draw(st.booleans()):
        constraint = parse_polynomial(draw(st.sampled_from(SINGULAR)), 2)
    else:
        monomials = [(a, b) for a in range(4) for b in range(4) if a + b <= 3]
        terms = {mono: draw(st.integers(-4, 4)) for mono in monomials if draw(st.booleans())}
        nonlinear = draw(st.sampled_from([mono for mono in monomials if sum(mono) > 1]))
        terms[nonlinear] = draw(st.sampled_from([1, -1, 2]))
        constraint = MPoly(2, terms).scale(draw(st.sampled_from([1, p])))
    system = PolySystem(p=p, n=2, constraints=(constraint,), target=MPoly.variable(2, 2))
    m = draw(st.integers(1, ORACLE_TOP[p] - 2))
    buffer = draw(st.integers(0, ORACLE_TOP[p] - 1 - m))
    return system, m, buffer


def _classes(system, level, m):
    _, points = brute_force_points(system, level, collect=True)
    return {tuple(c % system.p**m for c in x) for x in points}


@given(nonlinear_constraints())
# x1^2 - 3 at p = 3: the root x1 = 0 has gradient 0 and value 3/3 = 1 mod 3,
# so no digit vector survives the Taylor step and the class dies at level 2
@example((system_from_strings(3, 2, ["x1^2 - 3"], "x2"), 1, 0))
@example((system_from_strings(3, 2, ["x1^2 - 3"], "x2"), 1, 1))
@example((system_from_strings(2, 2, ["x1^2 - x2^3"], "x2"), 2, 3))
@settings(max_examples=40, deadline=None)
def test_image_oracle_taylor_filter_matches_brute(case):
    system, m, buffer = case
    image = _classes(system, m + buffer, m)
    if image != _classes(system, m + buffer + 1, m):
        with pytest.raises(NotStabilized):
            image_oracle(system, m, buffer)
    else:
        assert image_oracle(system, m, buffer) == image
