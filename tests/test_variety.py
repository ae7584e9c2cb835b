"""Tests for variety enumeration: brute force, Hensel lifting, images, probe."""

import itertools
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from padiczeta.bundled import BAD_LINE, GOOD_REDUCTION, LINE_X2, PARABOLA, THREEVAR
from padiczeta.cli import main
from padiczeta.mpoly import MPoly, PolySystem, shift_rescale
from padiczeta.errors import (
    BadReductionInput,
    BudgetExceeded,
    InvariantViolated,
    NotStabilized,
    ValidationFailed,
)
from padiczeta.mpoly import system_from_strings
from padiczeta.expsum import (
    build_stationary_phase_context,
    decay_report,
    decomposed_expsum_check,
    exponential_sum,
    oscillatory_integral,
)
from padiczeta.padic import int_valuation, psi_ratio
from padiczeta.poincare import (
    congruence_count,
    congruence_counts,
    decomposed_count_check,
    poincare_series,
)
from padiczeta.ratfn import pole_data_from_resolution
from padiczeta.regularize import delta_integral
from padiczeta.smoothing import global_decompose, measure_charts
from padiczeta.support import Support
from padiczeta.variety import (
    DEFAULT_BUDGET,
    BudgetMeter,
    HenselLifter,
    _FpSolver,
    brute_force_points,
    critical_locus_probe,
    first_lifts,
    good_reduction_test,
    hensel_enumerate,
    image_oracle,
    iter_congruence_points,
    iter_hensel_points,
    jacobian_minors,
    lifter_for,
    value_classes,
    zero_counts,
)
from padiczeta.zeta import build_shell_table, conductor_vanishing_scan, tail_measure

SPECS = Path(__file__).resolve().parents[1] / "scripts" / "specs"


def test_brute_force_examples():
    assert brute_force_points(system_from_strings(3, 2, ["x1"], "x2"), 2).count == 9
    assert brute_force_points(system_from_strings(3, 2, ["3*x1 - 9*x2"], "x2"), 1).count == 9
    assert brute_force_points(system_from_strings(2, 2, ["x1"], "x2"), 3).count == 8


def test_brute_force_budget():
    with pytest.raises(BudgetExceeded):
        brute_force_points(LINE_X2.system, 10, budget=1000)


def test_good_reduction_verdicts():
    assert good_reduction_test(system_from_strings(3, 2, ["x1"], "x2"))
    bad = good_reduction_test(BAD_LINE.system)
    assert not bad and bad.witness == (0, 0)
    assert good_reduction_test(system_from_strings(3, 2, ["x1 - x2^2"], "x2"))


@pytest.mark.parametrize("instance", [BAD_LINE, LINE_X2, PARABOLA], ids=lambda i: i.name)
def test_good_reduction_verdict_is_its_missing_witness(instance):
    verdict = good_reduction_test(instance.system)
    assert bool(verdict) is verdict.good is (verdict.witness is None)


def test_support_needs_a_positive_level():
    # the unit polydisc is spelled None, never as a level-0 Support
    with pytest.raises(ValueError):
        Support(2, 0, ((0, 0),))
    assert Support.cosets(2, 0, [(1, 2)], 3) is None
    with pytest.raises(ValueError):
        Support.cosets(2, 0, [(1,)], 3)


@pytest.mark.parametrize("instance", GOOD_REDUCTION, ids=lambda i: i.name)
def test_hensel_count_law(instance):
    system = instance.system
    roots = brute_force_points(system, 1).count
    for m in range(1, 4):
        law = roots * system.p ** ((m - 1) * system.dim)
        assert hensel_enumerate(system, m).count == law
        assert brute_force_points(system, m).count == law


def test_hensel_matches_brute_at_level_one():
    for instance in GOOD_REDUCTION:
        assert (
            hensel_enumerate(instance.system, 1).count
            == brute_force_points(instance.system, 1).count
        )


def test_hensel_rejects_bad_reduction():
    with pytest.raises(BadReductionInput):
        hensel_enumerate(BAD_LINE.system, 2)


@st.composite
def graph_systems(draw, bad_only=False):
    # x1 + g(x2) has constraint gradient (1, g') of full rank everywhere,
    # so good reduction holds for any g; curvature varies with g.  Scaling
    # the constraint by p keeps its Z_p points but makes its linear part a
    # multiple of p: the Jacobian vanishes mod p, so every root has bad
    # reduction (drawn for p <= 3, where the image oracle stays cheap;
    # bad_only draws nothing else).
    p = draw(st.sampled_from([2, 3] if bad_only else [2, 3, 5]))
    scale = p if bad_only else draw(st.sampled_from([1, p] if p <= 3 else [1]))
    coeffs = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=4))
    g_terms = {(0, d): scale * c for d, c in enumerate(coeffs, start=1) if c}
    constraint = MPoly(2, {(1, 0): scale, **g_terms})
    target = MPoly(2, {(0, 2): 1, (0, 1): draw(st.integers(-3, 3))})
    return PolySystem(p=p, n=2, constraints=(constraint,), target=target)


@given(graph_systems())
@settings(max_examples=25, deadline=None)
def test_hensel_matches_brute_on_random_graphs(system):
    p = system.p
    content, primitive = shift_rescale(system.constraints[0], (0, 0), 0, p)
    # the primitive constraint has the same Z_p points and good reduction, so
    # N_m counts its congruence solutions where the target vanishes too
    smooth = PolySystem(p=p, n=2, constraints=(primitive,), target=system.target)
    zeros = [1]
    lifter = HenselLifter(p, 2, system.constraints)
    for m in (1, 2, 3):
        brute, points = brute_force_points(system, m, collect=True)
        assert sorted(iter_congruence_points(lifter, m)) == sorted(points)
        _, smooth_points = brute_force_points(smooth, m, collect=True)
        zeros.append(sum(1 for x in smooth_points if system.target.evaluate(x, p**m) == 0))
        if content == 0:
            assert hensel_enumerate(system, m).count == brute.count
        else:
            with pytest.raises(BadReductionInput):
                hensel_enumerate(system, m)
    assert congruence_counts(system, 3) == zeros


def _smooth_points(system, level):
    """The level-`level` points of a smooth system.

    From brute_force_points while the grid has at most 3^10 points, else
    (such as the 5^8 points of level 4 at p = 5) from the Hensel tree
    walk that hensel_enumerate counts.
    """
    if system.p ** (system.n * level) <= 3**10:
        return brute_force_points(system, level, collect=True)[1]
    return list(iter_hensel_points(HenselLifter(system.p, system.n, system.constraints), level))


def _primitive(system):
    """(content, the system with its constraint divided by p^content): same Z_p points."""
    content, primitive = shift_rescale(system.constraints[0], (0, 0), 0, system.p)
    return content, PolySystem(p=system.p, n=2, constraints=(primitive,), target=system.target)


@given(graph_systems(), st.data())
@settings(max_examples=25, deadline=None)
def test_counted_leaves_match_brute(system, data):
    # N_m and the tail measures, whose class walks settle their nodes from
    # the support's level on, with the support deciding below the depth,
    # one level short of it or at it: depths up to 5 (4 at p = 5), with no
    # support and with coset supports at levels top - 2, top - 1 and top
    # around points of the curve, every case against the curve's level-top
    # points
    p = system.p
    content, smooth = _primitive(system)
    top = {2: 5, 3: 5, 5: 4}[p]
    points = _smooth_points(smooth, top)

    def zeros(support):
        """zeros[m]: the level-top points in the support where the target is 0 mod p^m."""
        inside = [x for x in points if support is None or support.admits_prefix(x, top, p)]
        return [sum(1 for x in inside if system.target.evaluate(x, p**m) == 0) for m in range(top + 1)]

    # N_m: each level-m point of the smooth curve has p^(top - m) lifts to top
    free = zeros(None)
    expected = [1] + [Fraction(free[m], p ** (top - m)) for m in range(1, top + 1)]
    assert congruence_counts(system, top) == expected
    level = data.draw(st.sampled_from([top - 2, top - 1, top]))
    on_curve = sorted({tuple(c % p**level for c in x) for x in points})
    centers = data.draw(st.lists(st.sampled_from(on_curve), min_size=1, max_size=3))
    support = Support.cosets(2, level, centers, p)
    for sup in (None, support):
        for m, count in enumerate(zeros(sup)):
            assert tail_measure(system, m, sup) == Fraction(p**content * count, p ** (top * system.dim))


def _walked(p, points, target, offset, precision, depth, support):
    """(digit vectors, level) of each node a class walk of a graph system visits.

    The walk visits every level-j class of the curve whose parent it
    visited, admitted and left open.  A node of level i below the
    support's level (capped at the depth) stays open; from that level on
    a node stays open only when 2i < sat, sat = precision - s, and its
    eliminated slope is 0 mod p^i.  The constraint x1 + g(x2) pivots on
    x1 and the target p^offset (x2^2 + b x2) + const has no x1, so s =
    min(offset, precision) and that slope is 2 x2 + b.
    """
    sat = precision - min(offset, precision)
    settle = min(support.level if support else 1, depth)
    b = target.terms.get((0, 1), 0) // p**offset
    walked, open_ = [], None
    for j in range(1, depth + 1):
        nodes = {
            tuple(c % p**j for c in x)
            for x in points
            if open_ is None or tuple(c % p ** (j - 1) for c in x) in open_
        }
        walked += [(tuple(tuple(c // p**k % p for c in x) for k in range(j)), j) for x in nodes]
        open_ = {
            x
            for x in nodes
            if (support is None or support.admits_prefix(x, j, p))
            and (j < settle or (2 * j < sat and (2 * x[1] + b) % p**j == 0))
        }
    return walked


def _zeros(p, points, target, precision):
    """zeros[m]: the points where the target is 0 mod p^m, m <= precision."""
    return [sum(1 for x in points if target.evaluate(x, p**m) == 0) for m in range(precision + 1)]


@given(graph_systems(), st.data())
@settings(max_examples=25, deadline=None)
def test_tally_charges_every_counted_node(system, data):
    # with no support a class walk charges exactly the nodes it visits: the
    # curve's classes whose ancestors it left open, those of level i with
    # 2i < sat = precision - s and slope 0 mod p^i (see _walked).  Every
    # other node settles its subtree on one class of target values; the
    # points it counts cost nothing.  The drawn target carries p^s off its
    # constant term, as a chart target does, and the drawn precision stops
    # sat at any level of the walk
    p = system.p
    _, smooth = _primitive(system)
    depth = data.draw(st.sampled_from([4] if p == 5 else [4, 5]))
    offset = data.draw(st.integers(0, 2))
    target = system.target.scale(p**offset) + MPoly.constant(2, data.draw(st.integers(-9, 9)))
    precision = data.draw(st.integers(0, offset + depth))
    lifter = HenselLifter(p, 2, smooth.constraints)
    meter = BudgetMeter(DEFAULT_BUDGET, "class walk")
    zeros = zero_counts(lifter, depth, target, precision, None, meter)
    points = _smooth_points(smooth, depth)
    assert meter.used == len(_walked(p, points, target, offset, precision, depth, None))
    assert zeros == _zeros(p, points, target, precision)


@given(graph_systems(), st.data())
@settings(max_examples=25, deadline=None)
def test_counted_subtrees_match_brute(system, data):
    # from the support's level on, every node the walk does not descend
    # settles its subtree on one class of target values.  Depths 5 to 8 (6
    # at p = 5), with drawn offsets, precisions and coset supports of every
    # level up to the depth, around points of the curve.  The zero counts
    # are checked against the curve's level-depth points in the support,
    # and the meter against the nodes the walk visits (_walked): the nodes
    # it leaves open, their lifts, and the lifts of admitted nodes that the
    # support prunes.  A drawn budget below that total must stop at the
    # node it runs out on, in the walk order, which is lexicographic in the
    # digit vectors of each node
    p = system.p
    _, smooth = _primitive(system)
    depth = data.draw(st.integers(5, 6 if p == 5 else 8))
    offset = data.draw(st.integers(0, 2))
    # the target keeps its zero at x2 = 0 in half the draws, so deep levels count zeros
    constant = data.draw(st.just(0) | st.integers(-9, 9))
    target = system.target.scale(p**offset) + MPoly.constant(2, constant)
    # half the drawn precisions put sat past ceil(depth / 2), where a node
    # of level sat - j < j settles by its slope mod p^(sat - j)
    top = (depth + 1) // 2
    precision = data.draw(
        st.integers(0, offset + depth) | st.integers(offset + top + 1, offset + depth - 1)
    )
    points = _smooth_points(smooth, depth)
    level = data.draw(st.integers(0, depth))
    on_curve = sorted({tuple(c % p**level for c in x) for x in points})
    centers = data.draw(st.lists(st.sampled_from(on_curve), min_size=1, max_size=3))
    support = Support.cosets(2, level, centers, p)
    lifter = HenselLifter(p, 2, smooth.constraints)
    meter = BudgetMeter(DEFAULT_BUDGET, "class walk")
    zeros = zero_counts(lifter, depth, target, precision, support, meter)
    inside = [x for x in points if support is None or support.admits_prefix(x, depth, p)]
    assert zeros == _zeros(p, inside, target, precision)
    visited = _walked(p, points, target, offset, precision, depth, support)
    assert meter.used == len(visited)
    order = [j for _, j in sorted(visited)]
    budget = data.draw(st.integers(0, len(order) - 1))
    meter = BudgetMeter(budget, "class walk")
    with pytest.raises(BudgetExceeded, match=rf"budget {budget} exhausted at level {order[budget]}$"):
        zero_counts(lifter, depth, target, precision, support, meter)
    assert meter.used == budget + 1


SURFACE_MONOMIALS = [(0, 1, 0), (0, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2), (0, 0, 3)]


@st.composite
def surface_cases(draw):
    """(system, s, constant, precision, support level, center picks): a surface x1 - g(x2, x3) in Z_p^3.

    The constraint's gradient (1, -g_x2, -g_x3) has full rank everywhere,
    so good reduction holds for any g of degree at most 3.  The target
    has a nonlinear term in x2, x3 and may hold x1 too, which the walk's
    elimination clears at the pivot x1.  s, the constant and the
    precision, at most s + depth, shape a chart-like target p^s T +
    constant for a direct class walk; the picks index the points the
    support's cosets sit around, and level 0 is the whole polydisc.
    """
    p = draw(st.sampled_from([2, 3]))
    coeffs = st.integers(-3, 3)
    g = {e: -c for e in SURFACE_MONOMIALS if (c := draw(coeffs))}
    terms = {e: c for e in [(1, 0, 0), (1, 1, 0), *SURFACE_MONOMIALS] if (c := draw(coeffs))}
    terms[draw(st.sampled_from(SURFACE_MONOMIALS[2:]))] = draw(st.sampled_from([-2, -1, 1, 2]))
    system = PolySystem(
        p=p, n=3, constraints=(MPoly(3, {(1, 0, 0): 1, **g}),), target=MPoly(3, terms)
    )
    offset = draw(st.integers(0, 2))
    constant = draw(st.just(0) | st.integers(-9, 9))
    precision = draw(st.integers(0, offset + (5 if p == 2 else 3)))
    level = draw(st.integers(0, 3))
    picks = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=3))
    return system, offset, constant, precision, level, picks


# x2^2 + x3^3 on x1 = x2 x3: the slope (2 x2, 3 x3^2) settles the roots
# with x2 != 0 at level 1, and the others at level 1 or 2 by the precision
SURFACE_THREEVAR = THREEVAR.system
# x3^2 + 4 x2 on x1 = x2 x3 at p = 2: the slope (4, 2 x3) is even, so
# every root descends at sat = 5.  Inside a level-3 support the nodes with
# x3 odd settle with v = 1 < e = 2 on a class mod 2^4 spread over two
# residues mod 2^5, and those with x3 even with v = e = sat - j = 2
SURFACE_P2 = system_from_strings(2, 3, ["x1 - x2*x3"], "x3^2 + 4*x2")


@given(surface_cases())
@example((SURFACE_THREEVAR, 0, 0, 3, 0, [0]))
@example((SURFACE_THREEVAR, 1, 0, 3, 1, [0, 7, 40]))
@example((SURFACE_THREEVAR, 1, 9, 4, 2, [0, 7, 40]))
@example((SURFACE_P2, 0, 0, 5, 0, [0]))
@example((SURFACE_P2, 2, 4, 5, 3, [1, 2]))
@example((SURFACE_P2, 0, 0, 5, 3, [0]))
@settings(max_examples=20, deadline=None)
def test_surface_tallies_match_brute(case):
    # N_m and the tail measures for m <= depth, with and without a coset
    # support, and the zero counts of a class walk of p^s T + constant to
    # the depth at a drawn precision, in the support, against the
    # brute-force points of a surface in three variables mod p^depth,
    # depth 3 (5 at p = 2): every level-j class is a projection of them,
    # as every node of the smooth tree lifts.  From the support's level on,
    # the walk settles a node where the target's slope has content p^v
    # below p^e, e = min(sat - j, j), or where e = sat - j, so the
    # support's levels 1 to 3 and the precisions test both bounds of that
    # range.  The examples settle nodes at levels 1 to 3, with v < e and
    # with v = e = sat - j, inside supports of levels 1 to 3
    system, offset, constant, precision, level, picks = case
    p = system.p
    depth = 5 if p == 2 else 3
    _, points = brute_force_points(system, depth, collect=True)

    def classes(j):
        return {tuple(c % p**j for c in x) for x in points}

    expected = [1] + [
        sum(1 for x in classes(m) if system.target.evaluate(x, p**m) == 0)
        for m in range(1, depth + 1)
    ]
    assert congruence_counts(system, depth) == expected
    support = Support.cosets(3, level, [points[i % len(points)] for i in picks], p)
    for sup in (None, support):
        for m in range(depth + 1):
            k = max(m, level if sup else 0, 1)
            inside = [x for x in classes(k) if sup is None or sup.admits_prefix(x, k, p)]
            zeros = sum(1 for x in inside if system.target.evaluate(x, p**m) == 0)
            assert tail_measure(system, m, sup) == Fraction(zeros, p ** (k * system.dim)), (m, sup)
    target = system.target.scale(p**offset) + MPoly.constant(3, constant)
    lifter = lifter_for(p, 3, system.constraints)
    meter = BudgetMeter(DEFAULT_BUDGET, "class walk")
    zeros = zero_counts(lifter, depth, target, precision, support, meter)
    inside = [x for x in points if support is None or support.admits_prefix(x, depth, p)]
    assert zeros == _zeros(p, inside, target, precision)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("power, stop", [(0, 0), (1, 1), (None, 2)], ids=["unit", "p", "zero"])
def test_capped_recount_matches_point_counts(p, power, stop, monkeypatch):
    # the recount walks to m - L at precision m - e_l.  With the target
    # x2^2 + b x2 on p (x1 + x2) that precision is the recount's depth
    # (b = 1), one level short of it (b = p) or two (b = 0), so the walks to
    # depths 4 and 5 settle their nodes with sat at, or below, the depth
    import padiczeta.poincare as poincare

    b = 0 if power is None else p**power
    system = PolySystem(
        p=p,
        n=2,
        constraints=(MPoly(2, {(1, 0): p, (0, 1): p}),),
        target=MPoly(2, {(0, 2): 1, (0, 1): b}),
    )
    capped = []
    zeros = poincare.zero_counts

    def recording(lifter, depth, target, precision, support, meter):
        capped.append(depth - precision)
        return zeros(lifter, depth, target, precision, support, meter)

    monkeypatch.setattr(poincare, "zero_counts", recording)
    L = measure_charts(system, DEFAULT_BUDGET).L
    top = L + 5
    _, smooth = _primitive(system)
    points = _smooth_points(smooth, top)
    report = decomposed_count_check(system, list(range(L + 1, top + 1)))
    assert report.exact()
    for row in report.rows:
        zeros = sum(1 for x in points if system.target.evaluate(x, p**row.m) == 0)
        assert row.decomposed == row.direct == Fraction(zeros, p ** (top - row.m))
    assert set(capped[-2:]) == {stop}  # the recounts to depths 4 and 5


@given(graph_systems(bad_only=True))
@settings(max_examples=15, deadline=None)
def test_counts_match_brute_on_bad_graphs(system):
    # the charts sit at L > 0: N_m for m <= L comes from the chart centers,
    # past L from the one count walk per chart.  Both count image classes
    # mod p^m.  The constraint is p times a smooth one, so its solutions mod
    # p^(m + 1) are those of the smooth one mod p^m, which all lift to Z_p:
    # projecting the brute-force points one level up gives the image exactly
    p = system.p
    decomposition = measure_charts(system, DEFAULT_BUDGET)
    assert decomposition.L > 0
    top = decomposition.L + 2
    _, deep = brute_force_points(system, top + 1, collect=True)
    expected = [1]
    for m in range(1, top + 1):
        image = {tuple(c % p**m for c in x) for x in deep}
        expected.append(sum(1 for x in image if system.target.evaluate(x, p**m) == 0))
    assert congruence_counts(system, top) == expected


@given(graph_systems(bad_only=True), st.sampled_from([1, 2]))
@settings(max_examples=15, deadline=None)
def test_first_lifts_match_brute_on_bad_graphs(system, m):
    p, (constraint,) = system.p, system.constraints
    accuracy = m + 2
    _, points = brute_force_points(system, accuracy, collect=True)
    reps = first_lifts(HenselLifter(p, system.n, system.constraints), m, accuracy)
    assert set(reps) == {tuple(c % p**m for c in x) for x in points}
    for key, x in reps.items():
        assert constraint.evaluate(x, p**accuracy) == 0
        assert tuple(c % p**m for c in x) == key
    decomposition = global_decompose(system)
    for level in (1, 2, 3):
        oracle = image_oracle(system, level, decomposition.L + 1)
        assert decomposition.image_count(level) == len(oracle)


def test_first_lifts_refuses_classes_that_die_out():
    # x1^2 = 3 has the root 0 mod 3 but no solution mod 9
    system = system_from_strings(3, 2, ["x1^2 - 3"], "x2")
    with pytest.raises(NotStabilized):
        first_lifts(HenselLifter(3, 2, system.constraints), 1, 1)
    with pytest.raises(NotStabilized, match="accuracies 1 and 2"):
        image_oracle(system, 1, 0)
    # x1^2 = 27 has solutions mod 3^3 (x1 = 0 mod 9) but none mod 3^4: the
    # oracle settles the level-2 nodes, none of which lifts mod 3^4, and
    # their rows tell whether they lift mod 3^3
    system = system_from_strings(3, 2, ["x1^2 - 27"], "x2")
    with pytest.raises(NotStabilized, match="accuracies 3 and 4"):
        image_oracle(system, 1, 2)


@given(graph_systems(bad_only=True), st.sampled_from([1, 2, 3]))
@settings(max_examples=20, deadline=None)
def test_image_oracle_matches_projected_brute_on_bad_graphs(system, m):
    p = system.p
    if m == 3 and p != 2:
        m = 2  # keeps the brute-force grid small
    L = measure_charts(system).L
    _, points = brute_force_points(system, m + L + 1, collect=True)
    projection = {tuple(c % p**m for c in x) for x in points}
    assert image_oracle(system, m, L + 1) == projection
    # the constraint is p times a smooth one, so the solutions mod p^(k + 1)
    # project onto the image for every k >= m: buffer 1 is already stable
    assert image_oracle(system, m, 1) == projection


def test_image_oracle_builds_no_lifter(monkeypatch):
    # the oracle filters the digit vectors by one first-order Taylor step per
    # node: no lifter, no F_p solver, nothing shared with the charts it checks
    import padiczeta.variety as variety

    calls = []

    def counting(owner, name, wrap=lambda f: f):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrap(counted))

    meters = []
    meter_class = variety.BudgetMeter

    def recording(limit, stage):
        meters.append(meter_class(limit, stage))
        return meters[-1]

    counting(variety.HenselLifter, "__init__")
    counting(variety.HenselLifter, "children")
    counting(variety._FpSolver, "build", staticmethod)
    counting(variety._FpSolver, "solve_affine")
    counting(MPoly, "evaluate")
    monkeypatch.setattr(variety, "BudgetMeter", recording)
    assert len(image_oracle(BAD_LINE.system, 3, 3)) == 27
    assert set(calls) == {"evaluate"}
    assert [meter.stage for meter in meters] == ["image oracle m=3 accuracy=6"]
    # one search walks every solution mod 3, 9 and 27 (9, 27 and 81 nodes).
    # One Taylor step settles each level-3 node at accuracy 6 (2 * 3 >= 6),
    # but not at accuracy 7, so each level-3 node x starts a first-hit walk
    # at its children.  x has a lift mod 3^7 only if x1 = 3*x2 mod 27: the
    # 54 other nodes have no children, and each of the 27 live ones has all
    # 9, of which the 3 with x1 + 27*d1 = 3*x2 mod 81 are live, at positions
    # 1-3, 4-6 or 7-9 in lexicographic order.  The walk visits 1, 4 or 7 of
    # them, the first live one settling (2 * 4 >= 7), as (x1 - 3*x2)/27 is
    # 0, -1 or -2, nine live nodes each: 9 * 12 = 108
    assert [meter.used for meter in meters] == [9 + 27 + 81 + 108]
    # the 9 residues scanned for roots, then the constraint and its two
    # partials at each expanded or settled node: the 36 expanded below
    # level 3, the 81 level-3 nodes expanded toward 7, and the 108 settled
    # at level 4, whose rows mod 3^7 also tell the 81 with no lift there
    # whether they lift mod 3^6 (asking again evaluated 3 * 81 more;
    # filtering the 9 lifts of an expanded node by evaluating the
    # constraint at each would take 9 evaluations, not 3)
    assert len(calls) == 9 + 3 * (36 + 81 + 108)


def test_image_oracle_evaluates_each_settled_node_once(monkeypatch):
    # `smooth` asks bad_line's oracle at m = 4 with buffer L + 1 = 3: the
    # search settles 243 nodes, each from one set of Taylor rows mod 3^8,
    # and the 162 with no lift mod 3^8 answer whether they lift mod 3^7
    # from the same rows (evaluating the rows again took 405 sets).  Each
    # of the 9 + 27 + 81 nodes expanded below level 4 takes one set to one
    # level for its digit filter
    import padiczeta.variety as variety

    calls = {}
    rows = variety._taylor_rows

    def counting(polys, gradients, x, j, levels, p):
        calls[j, levels] = calls.get((j, levels), 0) + 1
        return rows(polys, gradients, x, j, levels, p)

    monkeypatch.setattr(variety, "_taylor_rows", counting)
    assert len(image_oracle(BAD_LINE.system, 4, 3)) == 81
    assert calls == {(1, 1): 9, (2, 1): 27, (3, 1): 81, (4, 4): 243}


def _uncached_children(system, x, j, kept=None):
    """x + p^j d over the digit vectors d, lexicographic, that kept admits or that lift x."""
    p = system.p
    children = [
        tuple(c + p**j * e for c, e in zip(x, d))
        for d in itertools.product(range(p), repeat=system.n)
        if kept is None or kept(d)
    ]
    if kept is not None:
        return children
    modulus = p ** (j + 1)
    return [y for y in children if not any(f.evaluate(y, modulus) for f in system.constraints)]


def _tree_nodes(roots, children, levels, width):
    """(node, level) pairs of a tree below level `levels`, at most `width` a level, spread across it."""
    nodes, frontier = [], list(roots)
    for j in range(1, levels):
        frontier = frontier[:: -(-len(frontier) // width) or 1]
        nodes += [(x, j) for x in frontier]
        frontier = [y for x in frontier for y in children(x, j)]
    return nodes


# the curve x1 = x2*x3, x4 = x2^2 at p = 5: 25 roots, each with its own F_p
# solver, so ten nodes a level meet far more (solver, rhs, level) keys by
# level 12 than the step memo keeps, and the lifter's second pass over the
# walk rebuilds evicted steps
CURVE = system_from_strings(5, 4, ["x1 - x2*x3", "x4 - x2^2"], "x3^2 + x4^3")


@given(graph_systems(), st.sampled_from([0, 1, 2]))
@example(CURVE, 0)
@settings(max_examples=30, deadline=None)
def test_child_lists_match_the_uncached_construction(system, r):
    # the lifter builds children from memoized steps p^j d, the image oracle
    # from its digit filter and the ambient walk from its free digits; each
    # lists the same nodes, in the same order, as x + p^j d built afresh
    # over the digit vectors d in lexicographic order
    import padiczeta.regularize as regularize
    import padiczeta.variety as variety

    trees = {}

    def spy(module, name, key, picked):
        original = getattr(module, name)

        def spied(*args):
            result = original(*args)
            trees.setdefault(key, picked(args, result))
            return result

        mp.setattr(module, name, spied)

    with pytest.MonkeyPatch.context() as mp:
        spy(variety, "_class_search", "oracle", lambda args, _: args[:2])
        spy(regularize, "truncated_tree", "ambient", lambda _, result: result)
        try:
            image_oracle(system, 1, 1)
        except NotStabilized:
            pass  # the walk's children were handed over before it ran
        delta_integral(system, 1, r, r + 1)

    p, target = system.p, system.target
    lifter = HenselLifter(p, system.n, system.constraints)
    pinned = [i for i in range(system.n) if not any(expo[i] for expo in target.terms)]
    for x, j in _tree_nodes(lifter.roots(), lifter.children, 13, 10):
        assert lifter.children(x, j) == _uncached_children(system, x, j)
    for x, j in _tree_nodes(*trees["oracle"], 4, 20):
        assert trees["oracle"][1](x, j) == _uncached_children(system, x, j)
    settle = max(r, 1)
    for x, j in _tree_nodes(*trees["ambient"], 4, 20):
        if j < r:
            expected = _uncached_children(system, x, j)
        else:
            expected = _uncached_children(
                system, x, j, lambda d: j < settle or not any(d[i] for i in pinned)
            )
        assert trees["ambient"][1](x, j) == expected


def test_points_below_level_one_raise():
    # the roots sit at level 1: a walk to a level below it would never stop
    lifter = HenselLifter(3, 2, LINE_X2.system.constraints)
    for points in (
        iter_hensel_points(lifter, 0, budget=1000),
        iter_hensel_points(lifter, -1, budget=1000),
        iter_congruence_points(lifter, -1, budget=1000),
    ):
        with pytest.raises(InvariantViolated):
            list(points)
    assert list(iter_congruence_points(lifter, 0, budget=1000)) == [(0, 0)]
    with pytest.raises(InvariantViolated):
        image_oracle(LINE_X2.system, 0, 0, budget=1000)
    with pytest.raises(InvariantViolated):
        image_oracle(LINE_X2.system, -1, 2, budget=1000)
    with pytest.raises(InvariantViolated):
        first_lifts(lifter, 2, 1, budget=1000)  # accuracy below the class level


def test_level_zero_search_is_one_class(monkeypatch):
    # mod p^0 every node is in one class: one first-hit walk from the roots,
    # which records its first node at the accuracy and ends at its first node
    # one level deeper (no level-0 node to stop at)
    import padiczeta.variety as variety

    lifter = HenselLifter(3, 2, LINE_X2.system.constraints)
    assert image_oracle(LINE_X2.system, 0, 2, budget=10**5) == {(0, 0)}
    meters = []

    def recording(limit, stage):
        meters.append(BudgetMeter(limit, stage))
        return meters[-1]

    monkeypatch.setattr(variety, "BudgetMeter", recording)
    assert first_lifts(lifter, 0, 3, budget=10**5) == {(0, 0): (0, 0)}
    # the root (0, 0), then the first lift at levels 2, 3 and 4, on one meter
    assert [(meter.stage, meter.used) for meter in meters] == [("center search m=0 accuracy=3", 4)]
    # x1^2 = 3 has the root 0 mod 3 but no solution mod 9: no class at all
    dead = system_from_strings(3, 2, ["x1^2 - 3"], "x2")
    assert image_oracle(dead, 0, 2, budget=10**5) == set()


def _walk_order(x, p, accuracy):
    """The digit vectors of x mod p^accuracy, level by level: the walk's order."""
    return tuple(tuple(c // p**j % p for c in x) for j in range(accuracy))


@given(graph_systems(bad_only=True), st.sampled_from([1, 2]), st.sampled_from([1, 2]))
@settings(max_examples=20, deadline=None)
def test_first_lifts_are_first_in_walk_order(system, m, extra):
    # whatever the search skips, each representative is the solution mod
    # p^accuracy of its class that comes first in walk order.  The constraint
    # is p times a smooth one, so every class mod p^m with a solution mod
    # p^(m + 1) lifts to Z_p, and the search is stable from accuracy m + 1
    p, accuracy = system.p, m + extra
    _, points = brute_force_points(system, accuracy, collect=True)
    first = {}
    for x in sorted(points, key=lambda x: _walk_order(x, p, accuracy)):
        first.setdefault(tuple(c % p**m for c in x), x)
    reps = first_lifts(HenselLifter(p, system.n, system.constraints), m, accuracy)
    assert reps == first


@st.composite
def graphs_with_support(draw):
    """(system, support): a drawn graph, bad in half the draws, and maybe a coset support."""
    system = draw(graph_systems(bad_only=draw(st.booleans())))
    p = system.p
    level = draw(st.sampled_from([1, 2, 0]))  # level 0: the full polydisc
    if level == 0:
        return system, None
    others = draw(st.lists(st.tuples(*[st.integers(0, p**level - 1)] * 2), max_size=2))
    return system, Support.cosets(2, level, [(0, 0), *others], p)


def _brute_points(system, support, m):
    """The reduction image mod p^m, and the solutions mod p^K in the support with their level K.

    The constraint is p^c (c = 0 or 1) times a smooth curve, so its
    solutions mod p^(k + c) are the curve's classes mod p^k with free
    digits on top.  Projected mod p^m from k = m they give the reduction
    image; at K = k + c with k >= m and k >= the support's level, every
    solution mod p^K lies wholly in or out of the support, has one phase,
    and carries the surface measure p^(-K dim).
    """
    c = system.constraints[0].content_valuation(system.p)
    modulus = system.p**m
    _, points = brute_force_points(system, m + c, collect=True)
    image = {tuple(x % modulus for x in point) for point in points}
    K = max(m, support.level if support else 0) + c
    _, covered = brute_force_points(system, K, support=support, collect=True)
    return image, covered, K


def _brute_sum(system, points, m, u, level):
    """sum of Psi(u f_l(x) / p^m) over the points, times p^(-level dim)."""
    p, modulus = system.p, system.p**m
    phases = [psi_ratio(u * system.target.evaluate(x, modulus), p, m) for x in points]
    return sum(phases) / p ** (level * system.dim)


@given(graphs_with_support())
@settings(max_examples=30, deadline=None)
def test_batched_direct_sums_match_brute_and_single_units(case):
    system, support = case
    p = system.p
    decomposition = measure_charts(system, DEFAULT_BUDGET)
    for m in (1, 2, 3):
        units = [u for u in range(1, p**m) if u % p]
        image, covered, K = _brute_points(system, support, m)
        sums = exponential_sum(system, {m: units})[m]
        surfaces = oscillatory_integral(system, {m: units}, support)[m]
        for u, direct, surface in zip(units, sums, surfaces):
            assert abs(direct - _brute_sum(system, image, m, u, m)) < 1e-12, (m, u)
            assert abs(surface - _brute_sum(system, covered, m, u, K)) < 1e-12, (m, u)
            assert direct == exponential_sum(system, {m: [u]})[m][0]
            assert surface == oscillatory_integral(system, {m: [u]}, support)[m][0]
        if decomposition.L == 0:  # on the full polydisc the two sums coincide
            assert oscillatory_integral(system, {m: units})[m] == sums


@given(graphs_with_support())
@settings(max_examples=30, deadline=None)
def test_multi_level_direct_sums_match_per_level_calls(case):
    # one walk per chart to the deepest level serves m = 1..3: each level's
    # sums, folded from that walk's histograms, are the bits of its
    # one-level call and match the brute-force sums
    system, support = case
    p = system.p
    units = {m: [u for u in range(1, p**m) if u % p] for m in (1, 2, 3)}
    sums = exponential_sum(system, units)
    surfaces = oscillatory_integral(system, units, support)
    for m, us in units.items():
        assert sums[m] == exponential_sum(system, {m: us})[m]
        assert surfaces[m] == oscillatory_integral(system, {m: us}, support)[m]
        image, covered, K = _brute_points(system, support, m)
        for u, direct, surface in zip(us, sums[m], surfaces[m]):
            assert abs(direct - _brute_sum(system, image, m, u, m)) < 1e-12, (m, u)
            assert abs(surface - _brute_sum(system, covered, m, u, K)) < 1e-12, (m, u)


# p = 2 with an even linear term: every root of x1 + x2 is critical for the
# target x2^2 + 2*x2, and the bad draw's charts at L = 2 meet a coset support.
# The drawn targets leave out x1, the variable the constraint row pivots on,
# so the last two targets carry it: on x1 = -x2^2 they restrict to x2^3 and
# x2^3 + x2, and only the elimination of that pivot from the target
# gradient finds their critical roots
COUNTED_EXAMPLES = [
    (system_from_strings(2, 2, ["x1 + x2"], "x2^2 + 2*x2"), None),
    (system_from_strings(3, 2, ["3*x1 + 3*x2^2"], "x2^2 - x2"), Support.cosets(2, 1, [(0, 0)], 3)),
    (system_from_strings(3, 2, ["x1 + x2^2"], "x1 + x2^2 + x2^3"), None),
    (system_from_strings(2, 2, ["x1 + x2^2"], "x1 + x2^2 + x2^3 + x2"), None),
]


@given(graphs_with_support())
@example(COUNTED_EXAMPLES[0])
@example(COUNTED_EXAMPLES[1])
@example(COUNTED_EXAMPLES[2])
@example(COUNTED_EXAMPLES[3])
@settings(max_examples=30, deadline=None)
def test_value_classes_match_brute_tallies(case):
    # every chart's level-K points in the support, tallied by their target
    # value mod p^M, against the classes its settled nodes emit, for K up
    # to 6, 4 and 3 at p = 2, 3 and 5 and every M the level-K class fixes:
    # M <= K + s, and K + 1 at p = 2 when the linear term is even, as
    # (y + 2^K z)^2 + b (y + 2^K z) moves by 2^(K + 1); there the (M - s)
    # term of the counted level decides
    system, support = case
    p = system.p
    decomposition = measure_charts(system, DEFAULT_BUDGET)
    even = p == 2 and decomposition.L == 0 and system.target.terms.get((0, 1), 0) % 2 == 0
    for chart in decomposition.charts:
        meets, sup = decomposition.restrict(chart, support)
        if not meets:
            continue
        lifter = decomposition.lifter(chart)
        constant = MPoly.constant(2, chart.target.constant_term())
        s = (chart.target - constant).content_valuation(p)
        chart_system = PolySystem(p=p, n=2, constraints=chart.constraints, target=chart.target)
        for depth in range(1, {2: 6, 3: 4, 5: 3}[p] + 1):
            _, points = brute_force_points(chart_system, depth, support=sup, collect=True)
            values = [chart.target.evaluate(y) for y in points]
            for precision in range(depth + s + even + 1):
                modulus = p**precision
                brute = {}
                for value in values:
                    brute[value % modulus] = brute.get(value % modulus, 0) + 1
                counted = {}
                meter = BudgetMeter(DEFAULT_BUDGET, "classes")
                for c, a, hits in value_classes(lifter, depth, chart.target, precision, sup, meter):
                    for r in range(c, modulus, p**a):
                        counted[r] = counted.get(r, 0) + hits
                assert counted == brute, (chart.center, depth, precision)


@given(graphs_with_support())
@example(COUNTED_EXAMPLES[0])
@example(COUNTED_EXAMPLES[1])
@example(COUNTED_EXAMPLES[2])
@example(COUNTED_EXAMPLES[3])
@settings(max_examples=30, deadline=None)
def test_counted_direct_sums_match_brute(case):
    # the direct sums at m <= 6, 4 and 3 for p = 2, 3 and 5, whose chart
    # walks count subtrees of two or more levels, against the sums over the
    # brute-force points; and the decomposition identity, whose right side
    # sums each chart's level-0 histogram when m <= the chart's e_l
    system, support = case
    p, dim = system.p, system.dim
    top = {2: 6, 3: 4, 5: 3}[p]
    units = {m: [u for u in range(1, p**m) if u % p] for m in range(1, top + 1)}
    sums = exponential_sum(system, units)
    surfaces = oscillatory_integral(system, units, support)
    # one brute-force scan: its level K >= top + c fixes every image class
    # and the support, as in `_brute_points`
    c = system.constraints[0].content_valuation(p)
    K = max(top, support.level if support else 0) + c
    _, points = brute_force_points(system, K, collect=True)
    covered = [x for x in points if support is None or support.admits_prefix(x, K, p)]
    for m, us in units.items():
        image = {tuple(x % p**m for x in point) for point in points}
        for u, direct, surface in zip(us, sums[m], surfaces[m]):
            assert abs(direct - _brute_sum(system, image, m, u, m)) < 1e-12, (m, u)
            assert abs(surface - _brute_sum(system, covered, m, u, K)) < 1e-12, (m, u)
    L = measure_charts(system, DEFAULT_BUDGET).L
    for row in decomposed_expsum_check(system, list(range(L + 1, top + 1))):
        assert row.lhs == sums[row.m][0] * p ** (row.m * dim)
        assert row.gap < 1e-9, row.m


def test_batched_direct_sums_validate_units():
    system = LINE_X2.system
    with pytest.raises(ValueError):
        exponential_sum(system, {2: [1, 3]})
    with pytest.raises(ValueError):
        oscillatory_integral(system, {2: [2, 6]})
    with pytest.raises(ValueError):
        oscillatory_integral(system, {0: [1]})
    # units reduce mod p^m: u and u + p^m give the same surface integral
    assert oscillatory_integral(system, {2: [2, 11]}) == oscillatory_integral(system, {2: [2, 2]})


# p^n = 9: a budget of 10 admits the F_p scan but not the walks below
BUDGET_LINE = system_from_strings(3, 2, ["x2"], "x1 + 1")
# the class walks settle each root of x1 + 1 at level 1, as its slope is 1;
# the cusp x1^2 descends its critical node 0 mod 3^j while 2j < the precision
BUDGET_CUSP = system_from_strings(3, 2, ["x2"], "x1^2")
# two cosets of (27 Z_3)^2 on BUDGET_LINE's variety x2 = 0
BUDGET_COSETS = Support.cosets(2, 3, [(0, 0), (1, 0)], 3)


@pytest.mark.parametrize(
    "run, stage",
    [
        # the slope 2 x1 of x1^2 settles every node but x1 = 0 mod 3^j, which
        # descends while 2j < 10.  So the walk to level 10 at precision 10
        # visits the three roots and, at each of levels 2 to 5, the three
        # lifts of 0: 3 + 4 * 3 = 15 nodes.  The settled nodes and the
        # level-5 node 0 count everything deeper
        (lambda budget: tail_measure(BUDGET_CUSP, 10, budget=budget), "tail walk m=10 chart 1/1"),
        # the same 15 nodes, one walk to level 10 for every N_m
        (
            lambda budget: congruence_counts(BUDGET_CUSP, 10, budget=budget),
            "count walk m=10 chart 1/1",
        ),
        # the same 15 nodes, one walk to level 10 for both units
        (lambda budget: exponential_sum(BUDGET_CUSP, {10: [1, 2]}, budget), "hensel walk m=10"),
        # the support's level 3 is the deepest: 3 + 6 + 6 nodes, counting the
        # lifts it prunes
        (
            lambda budget: oscillatory_integral(BUDGET_LINE, {2: [1]}, BUDGET_COSETS, budget),
            "hensel walk m=3",
        ),
        # solvability is read off the count walk, the same 15 nodes to level 10
        (
            lambda budget: decomposed_count_check(BUDGET_CUSP, [10], budget=budget),
            "decomposed recount chart 1/1",
        ),
        # to level 5 at precision 5 the count walk (3 + 3 + 3 nodes, as 0
        # descends at levels 1 and 2) leaves too little for the rescaled
        # recount, the same walk of x1^2 (9)
        (
            lambda budget: decomposed_count_check(BUDGET_CUSP, [5], budget=budget),
            "decomposed recount m=5 chart 1/1",
        ),
        # one lift per class mod p: each of the three roots, then the first
        # path of its first-hit walk, one node at each of levels 2 to 5: 15 nodes
        (lambda budget: global_decompose(BUDGET_LINE, budget), "center search m=1 accuracy=5"),
        # 3 roots and 9 nodes at level 2, each settled by one Taylor step
        # (2 * 2 >= 3): 12 nodes
        (lambda budget: image_oracle(BUDGET_LINE, 2, 1, budget), "image oracle m=2 accuracy=3"),
        # the lifts of x2 = 0 to level r = 3 alone charge 3 + 9 + 27 nodes
        (
            lambda budget: delta_integral(BUDGET_CUSP, 1, 3, 6, budget=budget),
            "ambient walk r=3",
        ),
    ],
    ids=[
        "tail_measure",
        "count_walk",
        "exponential_sum",
        "oscillatory_integral",
        "solvable_at",
        "decomposed_recount",
        "global_decompose",
        "image_oracle",
        "ambient_walk",
    ],
)
def test_every_walk_honours_the_budget(run, stage):
    run(DEFAULT_BUDGET)
    with pytest.raises(BudgetExceeded, match=f"^{re.escape(stage)}: "):
        run(BUDGET_LINE.p**BUDGET_LINE.n + 1)


def test_threevar_count_walks_once(monkeypatch):
    # one class walk to level 9 at precision 9 (sat = 9) visits 225 nodes,
    # and the meter charges those alone.  On x1 = x2 x3 the slope of x2^2 +
    # x3^3, eliminated at the pivot x1, is (2 x2, 3 x3^2): a level-j node
    # descends when both are 0 mod 3^j and 2j < 9, that is x2 = 0 mod 3^j
    # and x3 = 0 mod 3^ceil((j - 1) / 2).  Of the 9 roots the 3 with x2 = 0
    # descend; of their 27 lifts the 3 with x2 = 0 mod 9, x3 = 0 mod 3; of
    # those 27 lifts the 9 with x2 = 0 mod 27; of those 81 lifts the 9 with
    # x2 = 0 mod 81, x3 = 0 mod 9; their 81 lifts at level 5 settle, as
    # 2 * 5 > 9.  So 9 + 27 + 27 + 81 + 81 = 225 nodes, and no node past
    # level 4 is expanded.  The walk of the lift tree of (constraint,
    # target) visited 147: it skipped the nodes where the target is no zero
    import padiczeta.poincare as poincare

    meters = []
    meter_class = poincare.BudgetMeter

    def recording(limit, stage):
        meter = meter_class(limit, stage)
        meters.append(meter)
        return meter

    expanded = []
    children = HenselLifter.children

    def counting_children(self, x, j):
        expanded.append(j)
        return children(self, x, j)

    monkeypatch.setattr(poincare, "BudgetMeter", recording)
    monkeypatch.setattr(HenselLifter, "children", counting_children)
    counts = congruence_counts(THREEVAR.system, 9)
    assert counts[6:] == [2_673, 8_019, 37_179, 111_537]
    assert [meter.stage for meter in meters] == ["count walk m=9 chart 1/1"]
    assert meters[0].used == 225
    assert expanded and max(expanded) == 4


@pytest.mark.parametrize(
    "system, count",
    [
        (system_from_strings(7, 3, ["x1 - x2*x3"], "x2^2 + x3^3"), 79_883_671),
        (system_from_strings(3, 4, ["x1 - x2*x3*x4"], "x2^2 + x3^3 + x4^5"), 62_178_597),
    ],
    ids=["threevar_p7", "cusp_surface"],
)
def test_default_budget_bounds_work_not_counts(system, count):
    # N_8 passes the default budget, but the walks behind it visit 5,236 and
    # 9,036 nodes: the subtrees they count cost nothing.  Charging them as
    # if visited stopped both at level 8
    assert count > DEFAULT_BUDGET
    assert congruence_counts(system, 8)[8] == count


def _count_walk_stops(system, depth, order):
    """A count walk of the system to depth under budget b stops at node b + 1 of `order`.

    The residue scan refuses a budget below p^n, so the walk runs on a
    meter of its own.  Returns its zero counts of the level-depth points.
    """
    lifter = lifter_for(system.p, system.n, system.constraints)
    for budget, level in enumerate(order):
        meter = BudgetMeter(budget, "count walk")
        with pytest.raises(BudgetExceeded, match=rf"budget {budget} exhausted at level {level}$"):
            zero_counts(lifter, depth, system.target, depth, None, meter)
        assert meter.used == budget + 1
    meter = BudgetMeter(len(order), "count walk")
    zeros = zero_counts(lifter, depth, system.target, depth, None, meter)
    assert meter.used == len(order)
    return zeros


def test_counted_leaves_spend_the_budget_exactly():
    # BUDGET_CUSP to level 4 at precision 4 visits 6 nodes in walk order:
    # the root 0, where the slope 2 x1 is 0 mod 3 and 2 * 1 < 4, then its
    # lifts 0, 3 and 6 mod 9, which settle as 2 * 2 = 4, then the roots 1
    # and 2, which settle at level 1 as the slope is a unit there.  The
    # settled nodes count the level-4 points x1 mod 81 with x1^2 = 0 mod
    # 3^m without visiting them.  A budget b stops at node b + 1
    assert _count_walk_stops(BUDGET_CUSP, 4, [1, 2, 2, 2, 1, 1]) == [81, 27, 27, 9, 9]
    assert congruence_counts(BUDGET_CUSP, 4, budget=9) == [1, 1, 3, 3, 9]


def test_counted_subtrees_spend_the_budget_exactly():
    # BUDGET_CUSP to level 6 visits 9 nodes.  The node 0 mod 3^j descends
    # while 2j < 6: the root 0 and its lift 0 mod 9, whose lifts 0, 9 and
    # 18 mod 27 settle, as do the lifts 3 and 6 mod 9 and the roots 1 and
    # 2.  Nothing past level 3 is charged, and a budget b stops at node
    # b + 1 of the walk order
    order = [1, 2, 3, 3, 3, 2, 2, 1, 1]
    assert _count_walk_stops(BUDGET_CUSP, 6, order) == [729, 243, 243, 81, 81, 27, 27]
    assert congruence_counts(BUDGET_CUSP, 6, budget=9) == [1, 1, 3, 3, 9, 9, 27]


def test_ambient_walk_spends_the_budget_exactly():
    # The ambient walk of BUDGET_CUSP at r = 2, depth 5 visits 15 nodes.
    # The roots are x2 = 0 mod 3 and their level-2 children x2 = 0 mod 9;
    # from level 2 on, x2 is pinned and x1 alone branches.  x1^2 resolves
    # where v(x1^2) < j: at level 2 for x1 a unit, at level 3 for x1 = 3,
    # 6 mod 9 and at level 5 for x1 = 9, 18 mod 27, while x1 = 0 mod 27
    # stays deep.  The roots 1 and 2 count their level-2 lifts, and each
    # level-3 node x1 = 0, 9, 18 mod 27 counts its levels 4 and 5, so
    # nothing is charged for them, and a budget b stops at node b + 1 of
    # the walk order; the residue scan refuses a budget below p^n = 9
    order = [1, 2, 3, 3, 3, 2, 3, 3, 3, 2, 3, 3, 3, 1, 1]
    assert len(order) == 15
    for budget in range(BUDGET_CUSP.p**BUDGET_CUSP.n, len(order)):
        stop = rf"budget {budget} exhausted at level {order[budget]}$"
        with pytest.raises(BudgetExceeded, match=rf"^ambient walk r=2: enumeration {stop}"):
            delta_integral(BUDGET_CUSP, 1, 2, 5, budget=budget)
    approx = delta_integral(BUDGET_CUSP, 1, 2, 5, budget=15)
    assert (approx.value, approx.tail_bound) == (Fraction(1514, 2187), Fraction(1, 6561))


@pytest.fixture
def builds(monkeypatch):
    """(p, n, constraints) of every lifter built from here on, from empty caches."""
    import padiczeta.variety as variety

    built = []
    init = variety.HenselLifter.__init__

    def counting_init(self, p, n, constraints):
        built.append((p, n, tuple(constraints)))
        init(self, p, n, constraints)

    monkeypatch.setattr(variety.HenselLifter, "__init__", counting_init)
    lifter_for.cache_clear()
    measure_charts.cache_clear()
    return built


def test_one_lifter_per_chart(builds, tmp_path):
    # every lifter comes from one memo, built once per (p, n, constraints):
    # the good-reduction test's lifter serves the identity chart, whose
    # tree the count walk and the shell walks walk
    system = THREEVAR.system
    p, n = system.p, system.n
    # the counts are walked before depth 8 proves too shallow to reconstruct
    with pytest.raises(ValidationFailed, match=r"37179\]"):
        poincare_series(system, 8)
    build_shell_table(system, 6)
    decomposition = measure_charts(system, DEFAULT_BUDGET)
    chart = decomposition.charts[0]
    assert builds == [(p, n, system.constraints)]
    assert decomposition.lifter(chart) is lifter_for(p, n, system.constraints)
    # the budget still refuses the residue scan on every lookup, hit or miss
    for _ in range(2):
        with pytest.raises(BudgetExceeded):
            decomposition.lifter(chart, p**n - 1)
        with pytest.raises(BudgetExceeded):
            lifter_for(p, n, system.constraints, p**n - 1)

    # under bad reduction the center search walks the system's lifter, and
    # the nine charts share one: their rescaled constraint is x1 - 3*x2
    builds.clear()
    system = BAD_LINE.system
    decomposition = measure_charts(system, DEFAULT_BUDGET)
    rescaled = (MPoly(2, {(1, 0): 1, (0, 1): -3}),)
    assert len(decomposition.charts) == 9
    assert {chart.constraints for chart in decomposition.charts} == {rescaled}
    assert builds == [(3, 2, system.constraints), (3, 2, rescaled)]
    for chart in decomposition.charts:
        assert decomposition.lifter(chart) is lifter_for(3, 2, rescaled)
    # the count walks and the shell walks build none
    congruence_counts(system, 6)
    build_shell_table(system, 4)
    assert builds == [(3, 2, system.constraints), (3, 2, rescaled)]

    # bad_line `smooth`: the system's lifter and the charts' one; the image
    # oracle builds none
    builds.clear()
    lifter_for.cache_clear()
    measure_charts.cache_clear()
    out = tmp_path / "smooth"
    assert main(["smooth", "--spec", str(SPECS / "bad_line.json"), "--out", str(out)]) == 0
    assert builds == [(3, 2, system.constraints), (3, 2, rescaled)]


def test_tally_builds_no_lifter_without_target_zeros(builds):
    # the count and tail walks walk each chart's own lift tree, so they build
    # no lifter past the decomposition's two: not for the charts of BAD_LINE
    # at (9, 3) and (18, 6), whose targets over p^2 are units at every point,
    # and not for the chart at (0, 0), whose target 9*x2^2 has zeros
    system = BAD_LINE.system
    assert congruence_counts(system, 6) == [1, 1, 3, 3, 9, 9, 27]
    tail_measure(system, 4)
    assert len(builds) == 2  # the system's lifter and the charts' one


def test_threevar_sps_verify_builds_one_lifter(builds, tmp_path):
    # the conductor scan's critical-locus probe walks the congruence tree of
    # the same constraints as the identity chart, so both take one lifter
    out = tmp_path / "sps"
    assert main(["sps-verify", "--spec", str(SPECS / "threevar.json"), "--out", str(out)]) == 0
    assert builds == [(3, 3, THREEVAR.system.constraints)]


def test_chart_walks_reuse_the_decomposition_lifters(builds):
    # the decomposition builds the system's lifter and the one its nine
    # charts share; the chart walks look those up and build none
    system = BAD_LINE.system
    decomposition = measure_charts(system, DEFAULT_BUDGET)
    assert len(builds) == 2
    support = Support.cosets(2, 3, [(0, 0), (9, 3)], 3)  # level 3 > L = 2
    exponential_sum(system, {3: [1]})
    oscillatory_integral(system, {3: [1]}, support=support)
    decomposition.image_count(4)
    tail_measure(system, 3, support=support)
    assert len(builds) == 2


def test_entry_points_share_one_decomposition(builds):
    # every chart walk looks its decomposition up with measure_charts: from
    # empty caches the first call builds the system's lifter and the one the
    # nine charts share, and no later entry point, nor any spelling of the
    # lookup, builds another
    system = BAD_LINE.system
    exponential_sum(system, {3: [1]})
    oscillatory_integral(system, {3: [1]})
    build_stationary_phase_context(system, depth=3)
    decay_report(system, [3, 4], pole_data_from_resolution([(2, 1)], 3))
    congruence_counts(system, 4)
    congruence_count(system, 4)
    poincare_series(system, 6)
    build_shell_table(system, 3)
    conductor_vanishing_scan(system, 2, 3)
    tail_measure(system, 3)
    decomposition = measure_charts(system, DEFAULT_BUDGET)
    assert measure_charts(system) is measure_charts(system, budget=DEFAULT_BUDGET) is decomposition
    assert len(decomposition.charts) == 9
    assert builds == [(3, 2, system.constraints), (3, 2, decomposition.charts[0].constraints)]
    assert measure_charts.cache_info().misses == 1


def test_hensel_points_digit_ordered_and_exact():
    system = PARABOLA.system
    lifter = HenselLifter(system.p, system.n, system.constraints)
    points = list(iter_hensel_points(lifter, 3))

    def digit_key(x):
        # root tuple first, then the digit vector introduced at each level
        return tuple((c // 3**j) % 3 for j in range(3) for c in x)

    assert [digit_key(x) for x in points] == sorted(digit_key(x) for x in points)
    assert points == list(iter_hensel_points(lifter, 3))  # deterministic
    modulus = 27
    for x in points:
        assert system.constraints[0].evaluate(x, modulus) == 0
    brute = {
        (a, b)
        for a in range(modulus)
        for b in range(modulus)
        if system.constraints[0].evaluate((a, b), modulus) == 0
    }
    assert set(points) == brute


def test_congruence_tree_matches_brute():
    system = BAD_LINE.system
    lifter = HenselLifter(system.p, system.n, system.constraints)
    for m in (1, 2, 3):
        tree = sorted(iter_congruence_points(lifter, m))
        brute, points = brute_force_points(system, m, collect=True)
        assert tree == sorted(points)


def test_image_counts_good_reduction():
    assert measure_charts(system_from_strings(3, 2, ["x1"], "x2")).image_count(2) == 9
    for instance in (LINE_X2, PARABOLA):
        assert measure_charts(instance.system).image_count(1) == brute_force_points(
            instance.system, 1
        ).count


def test_image_count_bad_reduction_vs_oracle():
    system = BAD_LINE.system
    for m in range(1, 5):
        chart_based = measure_charts(system).image_count(m)
        oracle = image_oracle(system, m, buffer=3)
        assert chart_based == len(oracle)


def test_image_at_most_congruence_count():
    for instance in (LINE_X2, PARABOLA, BAD_LINE):
        for m in (1, 2, 3):
            image = measure_charts(instance.system).image_count(m)
            congruence = brute_force_points(instance.system, m).count
            assert image <= congruence
            if instance.good_reduction:
                assert image == congruence


def test_shell_split_partitions_count():
    fiber = brute_force_points(LINE_X2.system, 4, angular_level=1)
    assert sum(fiber.by_shell.values()) + fiber.deep == fiber.count


def test_critical_locus_probe_clean_cases():
    assert critical_locus_probe(system_from_strings(3, 2, ["x1"], "x2"), 3).clean
    assert critical_locus_probe(LINE_X2.system, 3).clean
    assert critical_locus_probe(THREEVAR.system, 2).clean


def test_critical_locus_probe_flags_displaced_zero():
    # target x2^2 - 1: the critical residue x2 = 0 has nonzero target value,
    # so the inclusion hypothesis genuinely fails and the probe must say so
    system = system_from_strings(3, 2, ["x1"], "x2^2 - 1")
    report = critical_locus_probe(system, 2)
    assert not report.clean
    assert (0, 0) in report.suspects


@st.composite
def jacobians(draw):
    """(p, j, rows): l integer rows of length n, entries often 0 or p-multiples."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 4))
    l = draw(st.integers(1, n))
    entry = st.one_of(
        st.just(0),
        st.builds(lambda a, k: a * p**k, st.integers(-30, 30), st.integers(1, 4)),
        st.integers(-30, 30),
    )
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(l)]
    return p, draw(st.integers(1, 4)), rows


def _permutation_det(matrix):
    total = 0
    for perm in itertools.permutations(range(len(matrix))):
        sign = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        total += sign * math.prod(row[c] for row, c in zip(matrix, perm))
    return total


def _least_minor_valuation(rows, size, p, j):
    """The least valuation of the size x size minors of rows mod p^j, j if all vanish."""
    minors = [
        _permutation_det([[row[c] for c in cols] for row in rows]) % p**j
        for cols in itertools.combinations(range(len(rows[0])), size)
    ]
    return min((int_valuation(d, p) for d in minors if d), default=j)


@given(jacobians())
@example((3, 2, [[1, 2], [2, 4]]))  # F = 2G: every minor vanishes mod 9, G has a unit minor
@settings(max_examples=200, deadline=None)
def test_jacobian_minors_match_permutation_expansion(case):
    # e is the least l x l minor valuation; lam exists exactly when some
    # (l - 1)-minor of G is a unit, and then clears F's gradient mod p^e
    p, j, rows = case
    n = len(rows[0])
    partials = [[MPoly(n, {(0,) * n: a}) for a in row] for row in rows]
    e, lam = jacobian_minors(partials, (0,) * n, p, j)
    assert e == _least_minor_valuation(rows, len(rows), p, j)
    *g_rows, f_row = rows
    unit_minor = len(rows) == 1 or _least_minor_valuation(g_rows, len(g_rows), p, 1) == 0
    assert (lam is not None) == unit_minor
    if lam is not None:
        assert len(lam) == len(g_rows) and all(0 <= a < p**e for a in lam)
        for k in range(n):
            assert (f_row[k] - sum(a * g[k] for a, g in zip(lam, g_rows))) % p**e == 0


@st.composite
def fp_systems(draw):
    # rank-deficient draws repeat a combination of earlier rows
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 4))
    rows = draw(st.integers(1, n))
    entry = st.integers(0, p - 1)
    matrix = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(rows)]
    if rows > 1 and draw(st.booleans()):
        a, b = draw(entry), draw(entry)
        matrix[-1] = [(a * x + b * y) % p for x, y in zip(matrix[0], matrix[1 % (rows - 1)])]
    rhs = draw(st.lists(entry, min_size=rows, max_size=rows))
    return p, matrix, rhs


@given(fp_systems())
@settings(max_examples=80, deadline=None)
def test_solver_matches_filtered_digit_scan(case):
    p, matrix, rhs = case
    n = len(matrix[0])
    solver = _FpSolver.build(tuple(map(tuple, matrix)), p)
    scan = [
        d
        for d in itertools.product(range(p), repeat=n)
        if all(sum(a * x for a, x in zip(row, d)) % p == b for row, b in zip(matrix, rhs))
    ]
    assert list(solver.solve_affine(rhs)) == scan  # same solutions, same lexicographic order
    assert len(solver.kernel) == p ** (n - solver.rank)
