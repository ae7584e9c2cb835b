"""Tests for shell measures, coefficient tables, and the conductor scan."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from padiczeta.bundled import BAD_LINE, LINE_X1, LINE_X2, LINE_X2_P5, LINE_X3, PARABOLA, THREEVAR
from padiczeta.characters import chi_value, enumerate_characters, trivial_character
from padiczeta.errors import (
    ArgumentOutOfRange,
    BudgetExceeded,
    HypothesisNotVerified,
    NotStabilized,
)
from padiczeta.mpoly import MPoly, PolySystem, system_from_strings
from padiczeta.padic import ScaledUnit
from padiczeta.expsum import decomposed_expsum_check, exponential_sum
import padiczeta.poincare as poincare
import padiczeta.zeta as zeta
from padiczeta.poincare import congruence_counts, decomposed_count_check
from padiczeta.ratfn import RationalFn, candidate_pole_check, pole_analysis, reconstruct_rational
from padiczeta.smoothing import measure_charts
from padiczeta.support import Support
from padiczeta.variety import DEFAULT_BUDGET, brute_force_points
from padiczeta.zeta import (
    build_shell_table,
    coefficient_table,
    conductor_vanishing_scan,
    tail_measure,
)

F = Fraction


def brute_shell_counts(system, m, c):
    """Oracle: scan the full grid at level m + c and classify image-free."""
    fiber = brute_force_points(system, m + c, angular_level=c)
    return {u: k for (v, u), k in fiber.by_shell.items() if v == m}


def table_shell_counts(system, m, c):
    """Row m of a shell table at angular level c, as counts at level m + c."""
    table = build_shell_table(system, m, c_level=c)
    scale = system.p ** ((m + c) * system.dim)
    return {u: measure * scale for u, measure in table.measures[m].items()}


def test_shell_counts_against_brute_oracle():
    system = LINE_X2.system
    assert table_shell_counts(system, 0, 1) == {1: 2} == brute_shell_counts(system, 0, 1)
    assert table_shell_counts(system, 1, 1) == {} == brute_shell_counts(system, 1, 1)
    # six points x2 in {3,6,12,15,21,24} mod 27 sit in the ord-2 shell
    assert table_shell_counts(system, 2, 1) == {1: 6} == brute_shell_counts(system, 2, 1)


def test_shell_counts_parabola_against_oracle():
    system = PARABOLA.system
    for m in range(0, 3):
        assert table_shell_counts(system, m, 1) == brute_shell_counts(system, m, 1)


def test_trivial_coefficients_x2_line():
    table = build_shell_table(LINE_X2.system, 2)
    triv = trivial_character(3)
    assert [table.coefficient(triv, m) for m in range(3)] == [F(2, 3), 0, F(2, 9)]


def test_quadratic_twist_x2_line():
    # chi(ac x^2) = chi(v)^2 = 1, so the twisted table equals the trivial one
    quad = next(c for c in enumerate_characters(3, 1) if c.index == 1)
    coeff = build_shell_table(LINE_X2.system, 0).coefficient(quad, 0)
    assert abs(coeff - 2 / 3) < 1e-12


def test_table_reconstruction_and_poles():
    table = build_shell_table(LINE_X2.system, 8)
    fn = reconstruct_rational(table.trivial_series())
    assert fn.series(5) == [F(2, 3), F(0), F(2, 9), F(0), F(2, 27)]
    pole = pole_analysis(fn, 3)
    assert pole.rho_exact == F(1, 2) and pole.m_rho == 1


def _is_p_power(value: int, p: int) -> bool:
    while value % p == 0:
        value //= p
    return value == 1


def test_positivity_and_mass_bound():
    for instance in (LINE_X1, LINE_X2, PARABOLA, BAD_LINE):
        table = build_shell_table(instance.system, 6)
        series = table.trivial_series()
        assert all(c >= 0 for c in series)
        assert all(_is_p_power(c.denominator, instance.system.p) for c in series)
        total_mass = tail_measure(instance.system, 0)
        assert sum(series, F(0)) <= total_mass


def test_shell_partition_sums_to_total():
    for instance in (LINE_X2, PARABOLA, BAD_LINE):
        system = instance.system
        total = tail_measure(system, 0)
        m = 5
        table = build_shell_table(system, m - 1)
        partial = sum(table.trivial_series(), F(0))
        assert partial + tail_measure(system, m) == total


def test_stabilization_flags_set(monkeypatch):
    # a table has no flags to set: it exists only once every row agreed with
    # its recount one angular level finer, and a disagreeing recount raises
    import padiczeta.zeta as zeta

    assert len(build_shell_table(LINE_X2.system, 4).measures) == 5
    walked = zeta._shell_rows

    def skewed(decomposition, depth, c, support, budget, memo):
        rows, den = walked(decomposition, depth, c, support, budget, memo)
        if c == 2:  # the recount of row 2 gains one count in class 4 mod 9
            rows[2][4] = rows[2].get(4, 0) + 1
        return rows, den

    monkeypatch.setattr(zeta, "_shell_rows", skewed)
    with pytest.raises(NotStabilized, match="m=2"):
        build_shell_table(LINE_X2.system, 4)


def test_support_restriction():
    # restricting to the coset x2 = 1 mod 3 keeps only the unit shell mass
    system = LINE_X2.system
    support = Support.cosets(2, 1, [[0, 1]], 3)
    table = build_shell_table(system, 4, support=support)
    series = table.trivial_series()
    assert series[0] == F(1, 3)
    assert all(c == 0 for c in series[1:])


def test_support_restriction_on_bad_reduction_charts():
    # {3x1 = 9x2} meets {x2 = 1 mod 3} in the charts with unit center, each
    # carrying weight 1/3, so the restricted mass is 3 * 1/3 = 1, all of it
    # in the valuation-0 shell of x2^2
    support = Support.cosets(2, 1, [[0, 1]], 3)
    table = build_shell_table(BAD_LINE.system, 4, support=support)
    series = table.trivial_series()
    assert series[0] == F(1)
    assert all(c == 0 for c in series[1:])


def test_bad_reduction_zeta_weighted_by_charts():
    # V = {3x1 = 9x2} carries gamma measure 3, so Z = 2 / (1 - t^2/3)
    table = build_shell_table(BAD_LINE.system, 8)
    fn = reconstruct_rational(table.trivial_series())
    assert fn.series(3) == [F(2), F(0), F(2, 3)]
    pole = pole_analysis(fn, 3)
    assert pole.rho_exact == F(1, 2)


def test_piece_relation_for_rho():
    # rho(whole) equals the minimum of rho over decomposition pieces
    system = BAD_LINE.system
    decomposition = measure_charts(system)
    whole = pole_analysis(
        reconstruct_rational(build_shell_table(system, 8).trivial_series()),
        3,
    )
    piece_rhos = []
    for chart in decomposition.charts:
        piece = PolySystem(3, system.n, chart.constraints, chart.target)
        fn = reconstruct_rational(build_shell_table(piece, 8).trivial_series())
        if len(fn.den) > 1:
            piece_rhos.append(pole_analysis(fn, 3).rho_exact)
    assert piece_rhos, "some piece must carry a pole"
    assert whole.rho_exact == min(piece_rhos)


def test_conductor_scan_x2_line():
    scan = conductor_vanishing_scan(LINE_X2.system, 2, 6)
    assert scan.cutoff == 1
    assert scan.table.c_level - scan.cutoff == 1  # one level verified zero past the cutoff
    assert all(chi.conductor <= 1 for chi in scan.nonzero)


def test_conductor_scan_x1_line_all_twists_vanish():
    # every angular class in a shell has equal mass, so orthogonality kills
    # all twisted tables; the empirical cutoff is 0
    scan = conductor_vanishing_scan(LINE_X1.system, 2, 6)
    assert scan.cutoff == 0
    assert not scan.nonzero


def test_conductor_scan_x3_line_needs_level_two():
    # cubing collapses the units mod 9 onto {1, 8}, so the two order-3
    # characters mod 9 survive with nonzero tables
    scan = conductor_vanishing_scan(LINE_X3.system, 3, 6)
    assert scan.cutoff == 2
    assert {chi.conductor for chi in scan.nonzero} == {2}


def test_x3_line_order_three_twist_values():
    # hand derivation: shells of x^3 have ac classes {1, 8} mod 9 with equal
    # mass 3^(-k-1) each, and the order-3 characters send both to 1, so the
    # twisted table equals the trivial one: (2/3) / (1 - t^3/3)
    table = build_shell_table(LINE_X3.system, 6, c_level=2)
    order3 = [chi for chi in enumerate_characters(3, 2) if chi.order == 3]
    assert len(order3) == 2
    for chi in order3:
        coeffs = [table.coefficient(chi, m) for m in range(5)]
        expected = [F(2, 3), 0, 0, F(2, 9), 0]
        assert all(abs(c - e) < 1e-12 for c, e in zip(coeffs, expected))


def test_conductor_scan_requires_clean_probe():
    system = system_from_strings(3, 2, ["x1"], "x2^2 - 1")
    with pytest.raises(HypothesisNotVerified):
        conductor_vanishing_scan(system, 1, 4)


def test_candidate_pole_verdicts():
    for instance, factors in [(LINE_X2, ((2, 1, 1),)), (LINE_X3, ((3, 1, 1),))]:
        table = build_shell_table(instance.system, 10)
        fn = reconstruct_rational(table.trivial_series())
        match = candidate_pole_check(fn, instance.system.resolution_data, instance.system.p)
        assert match.multiplicities == factors


def test_coefficient_table_dataclass():
    table = build_shell_table(LINE_X2.system, 4, c_level=1)
    ct = coefficient_table(table, trivial_character(3))
    assert ct.chi == trivial_character(3)
    assert ct.coeffs == (F(2, 3), 0, F(2, 9), 0, F(2, 27))


@st.composite
def class_measures(draw):
    # integer class measures of one to three rows mod p^c, on a few units
    p = draw(st.sampled_from([3, 5, 7]))
    c = draw(st.integers(1, 3))
    units = st.integers(1, p**c - 1).filter(lambda u: u % p)
    rows = st.dictionaries(units, st.integers(1, 3), max_size=4)
    return p, c, draw(st.lists(rows, min_size=1, max_size=3))


@given(class_measures())
@settings(max_examples=150, deadline=None)
def test_exact_vanishing_matches_character_sums(case):
    # all characters of one order vanish together, and the exact verdict per
    # order agrees with the float sums of chi_value for every character
    p, c, rows = case
    orders = zeta._nonzero_orders(p, c, rows)
    for chi in enumerate_characters(p, c):
        sums = [sum(chi_value(chi, u) * n for u, n in row.items()) for row in rows]
        assert (chi.order in orders) == (not chi.is_trivial() and max(map(abs, sums)) > 1e-9)


@given(st.sampled_from([3, 5, 7]), st.integers(2, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_lifted_measures_vanish_past_their_level(p, c, data):
    # a measure read mod p^k, lifted evenly to every class mod p^c above it,
    # keeps the orders it had mod p^k (each sum gains the factor p^(c - k))
    # and is killed by every character of conductor > k
    k = data.draw(st.integers(1, c - 1))
    units = st.integers(1, p**k - 1).filter(lambda u: u % p)
    row = st.dictionaries(units, st.integers(1, 3), max_size=4)
    rows = data.draw(st.lists(row, min_size=1, max_size=3))
    lifted = [{u: row[u % p**k] for u in range(1, p**c) if u % p**k in row} for row in rows]
    orders = zeta._nonzero_orders(p, c, lifted)
    assert orders == zeta._nonzero_orders(p, k, rows)
    assert all(chi.conductor <= k for chi in enumerate_characters(p, c) if chi.order in orders)


def test_budget_error_names_the_stage_and_level():
    # p^n = 9 admits the F_p scan.  Resolved mod p^(2j), the critical node
    # x2 = 0 of x2^3 is descended to about level m/2: the one walk of rows
    # 0..8 needs 27 nodes at c = 1 and 33 at c = 2
    with pytest.raises(
        BudgetExceeded, match=r"^shell walk c=2 chart 1/1: .* budget 30 exhausted at level 3$"
    ):
        build_shell_table(LINE_X3.system, 8, budget=30)


def test_budget_error_names_the_chart(monkeypatch):
    # BAD_LINE's constraint has nine charts.  The count walk's meter runs
    # across them: with the target x2 (x2 - 3), every chart's target over
    # its p^s has a unit slope, so to m = 5 each chart's walk settles its
    # three roots at level 1, and 10 run out at the fourth chart's second
    # root.  A
    # shell walk has a meter per chart and level: to depth 2, the walk at
    # c = 2 in BAD_LINE's chart at (9, 3), where x2^2 has valuation 2
    # throughout, is the first to need more than 10 nodes (12)
    two_zeros = system_from_strings(3, 2, ["3*x1 - 9*x2"], "x2^2 - 3*x2")
    decompositions = {
        system: measure_charts(system, DEFAULT_BUDGET) for system in (BAD_LINE.system, two_zeros)
    }
    assert [len(d.charts) for d in decompositions.values()] == [9, 9]
    # the chart search needs more than these budgets: hand the walks the
    # decomposition built under the default one
    for module in (poincare, zeta):
        monkeypatch.setattr(module, "measure_charts", lambda system, budget: decompositions[system])
    with pytest.raises(BudgetExceeded, match=r"^count walk m=5 chart 4/9: .* exhausted at level 1$"):
        congruence_counts(two_zeros, 5, budget=10)
    with pytest.raises(BudgetExceeded, match=r"^tail walk m=5 chart 4/9: "):
        tail_measure(two_zeros, 5, budget=10)
    with pytest.raises(BudgetExceeded, match=r"^shell walk c=2 chart 2/9: .* at level 2$"):
        build_shell_table(BAD_LINE.system, 2, budget=10)


@pytest.mark.parametrize(
    "system, support, coarse",
    [
        (LINE_X3.system, None, 1),
        (LINE_X3.system, None, 2),
        (BAD_LINE.system, None, 1),
        (BAD_LINE.system, None, 2),
        (LINE_X3.system, Support.cosets(2, 1, [[0, 0], [0, 2]], 3), 1),
        (LINE_X3.system, Support.cosets(2, 1, [[0, 0], [0, 2]], 3), 2),
    ],
    ids=["line_x3-1", "line_x3-2", "bad_line-1", "bad_line-2", "coset-1", "coset-2"],
)
def test_projection_equals_walked_table(system, support, coarse):
    fine = build_shell_table(system, 4, c_level=3, support=support)
    projected = fine.project(coarse)
    walked = build_shell_table(system, 4, c_level=coarse, support=support)
    assert projected.c_level == coarse
    # exact Fractions under the same class keys, row by row
    assert projected.measures == walked.measures
    with pytest.raises(ValueError):
        fine.project(4)


def test_context_reuses_the_scan_table(monkeypatch):
    import padiczeta.expsum as expsum
    import padiczeta.zeta as zeta

    # every table, the scan's included, is built by zeta._checked_table
    levels, probes = [], []
    build, probe = zeta._checked_table, zeta.critical_locus_probe

    def counting_build(system, depth, c_level, *args):
        levels.append(c_level)
        return build(system, depth, c_level, *args)

    def counting_probe(*args, **kwargs):
        probes.append(args)
        return probe(*args, **kwargs)

    monkeypatch.setattr(zeta, "_checked_table", counting_build)
    for module in (zeta, expsum):
        monkeypatch.setattr(module, "critical_locus_probe", counting_probe, raising=False)
    # conductor 2 survives at level 2, so the scan escalates to level 3
    ctx = expsum.build_stationary_phase_context(LINE_X3.system, depth=6, c_max=2)
    assert levels == [2, 3]
    assert len(probes) == 1
    assert ctx.cutoff == 2 and ctx.table.c_level == 2
    assert ctx.table.measures == zeta.build_shell_table(LINE_X3.system, 6, c_level=2).measures


def test_escalation_walks_each_level_once(monkeypatch):
    # the level-3 table takes its rows from the level-2 table's recounts at
    # level 3 and walks only its own recounts at level 4.  One walk of the
    # one chart serves every row (m = 0..4) of a level, where a walk per row
    # took 15 and walking every table's rows 20
    import padiczeta.expsum as expsum
    import padiczeta.zeta as zeta

    levels = []
    shell_walk = zeta._chart_shell_rows

    def counting_walk(decomposition, chart, depth, c, support, meter, taylor):
        levels.append(c)
        return shell_walk(decomposition, chart, depth, c, support, meter, taylor)

    monkeypatch.setattr(zeta, "_chart_shell_rows", counting_walk)
    report = expsum.stationary_phase_check(THREEVAR.system, [1, 2, 3], c_cap=2, depth=4)
    assert report.max_discrepancy < 1e-9
    assert levels == [2, 3, 4]


def test_walks_share_each_node_taylor_data(monkeypatch):
    # a node's minors and target value do not depend on the angular level,
    # so one memo per table or scan serves the walks at every level, while
    # each walk still charges its meter for every node it visits.  The
    # threevar scan above walks 45 nodes at level 2, 63 at level 3 and 117 at
    # level 4, each walk's nodes among the next one's: 117 evaluations of the
    # minors where one per visit made 45 + 63 + 117 = 225.  A depth-10 table
    # of LINE_X2_P5 walks the same 30 nodes at levels 1 and 2: 30, not 60
    import padiczeta.expsum as expsum

    minors, visits = [], []
    evaluate, shell_walk = zeta.jacobian_minors, zeta._chart_shell_rows

    def counting_minors(*args):
        minors.append(args)
        return evaluate(*args)

    def counting_walk(decomposition, chart, depth, c, support, meter, taylor):
        counts = shell_walk(decomposition, chart, depth, c, support, meter, taylor)
        visits.append(meter.used)
        return counts

    monkeypatch.setattr(zeta, "jacobian_minors", counting_minors)
    monkeypatch.setattr(zeta, "_chart_shell_rows", counting_walk)
    expsum.stationary_phase_check(THREEVAR.system, [1, 2, 3], c_cap=2, depth=4)
    assert (visits, len(minors)) == ([45, 63, 117], 117)
    minors.clear()
    visits.clear()
    build_shell_table(LINE_X2_P5.system, 10)
    assert (visits, len(minors)) == ([30, 30], 30)


@st.composite
def smooth_shell_cases(draw):
    # good-reduction graphs x1 - g(...) with targets whose gradient often has
    # positive valuation (cubes at p = 3, squares at p = 2, p-multiple
    # coefficients), so the closed form meets e > 0 and singular nodes
    n = draw(st.sampled_from([2, 3]))
    p = draw(st.sampled_from([2, 3, 5] if n == 2 else [2, 3]))
    level = 4 if p**n <= 9 else 3  # keeps the p^(level n) brute-force grid small
    coeff = st.integers(-3, 3).flatmap(lambda c: st.sampled_from([c, p * c]))
    if n == 2:
        monomials = [(0, 1), (0, 2), (0, 3)]
    else:
        monomials = [(0, 1, 0), (0, 0, 1), (0, 1, 1), (0, 2, 0), (0, 0, 3)]
    g = {expo: draw(coeff) for expo in monomials[:3]}
    lead = tuple(1 if i == 0 else 0 for i in range(n))
    constraint = MPoly(n, {lead: 1, **{e: -c for e, c in g.items()}})
    target = MPoly(n, {expo: draw(coeff) for expo in monomials + [lead]})
    assume(not target.is_zero())
    support = None
    if draw(st.booleans()):
        s_level = draw(st.sampled_from([1, 2]))
        centers = draw(
            st.lists(st.tuples(*[st.integers(0, p**s_level - 1)] * n), min_size=1, max_size=3)
        )
        support = Support.cosets(n, s_level, centers, p)
    return PolySystem(p=p, n=n, constraints=(constraint,), target=target), level, support


@given(smooth_shell_cases())
@settings(max_examples=40, deadline=None)
def test_shell_tables_match_brute_force(case):
    system, level, support = case
    scale = system.p ** (level * system.dim)
    for c in range(1, level + 1):
        # every shell with m + c <= level, counted at level
        brute = brute_force_points(system, level, angular_level=c, support=support).by_shell
        table = build_shell_table(system, level - c, c_level=c, support=support)
        walked = {
            (m, u): measure * scale
            for m, row in enumerate(table.measures)
            for u, measure in row.items()
        }
        assert walked == brute


BAD_LINE_CASES = st.tuples(
    st.just(BAD_LINE.system),
    st.just(4),
    st.sampled_from(
        [None, Support.cosets(2, 1, [[0, 1]], 3), Support.cosets(2, 2, [[0, 3], [2, 7]], 3)]
    ),
)


@given(st.one_of(smooth_shell_cases(), BAD_LINE_CASES), st.integers(0, 3), st.integers(1, 2))
@settings(max_examples=30, deadline=None)
def test_rows_do_not_depend_on_the_walk_extent(case, depth, c):
    # one walk serves rows 0..depth, each resolved at its own level: a deeper
    # walk and a finer one must give the same rows
    system, _, support = case
    table = build_shell_table(system, depth, c_level=c, support=support)
    deeper = build_shell_table(system, depth + 2, c_level=c, support=support)
    finer = build_shell_table(system, depth, c_level=c + 1, support=support)
    assert table.measures == deeper.measures[: depth + 1]
    assert table.measures == finer.project(c).measures


def test_out_of_range_arguments_raise_typed_errors():
    # ArgumentOutOfRange is a ValueError, so callers catching that still do
    system = LINE_X2.system
    with pytest.raises(ArgumentOutOfRange, match="depth"):
        build_shell_table(system, -1)
    with pytest.raises(ArgumentOutOfRange, match="angular level"):
        build_shell_table(system, 2, c_level=0)
    table = build_shell_table(system, 2)
    for level in (0, 2):
        with pytest.raises(ArgumentOutOfRange, match="project"):
            table.project(level)
    conductor2 = next(chi for chi in enumerate_characters(3, 2) if chi.conductor == 2)
    with pytest.raises(ArgumentOutOfRange, match="too coarse"):
        coefficient_table(table, conductor2)
    # a negative cap made the exponent negative and p^exponent a float:
    # -1 gave 1/3 on x1 with target x2, where the whole measure is 1
    for system in (LINE_X1.system, BAD_LINE.system):
        with pytest.raises(ArgumentOutOfRange, match="m >= 0"):
            tail_measure(system, -1)
        with pytest.raises(ArgumentOutOfRange, match="depth >= 0"):
            congruence_counts(system, -1)
    # BAD_LINE rescales at L = 2
    with pytest.raises(ArgumentOutOfRange, match="needs m > L = 2"):
        decomposed_count_check(BAD_LINE.system, [2, 4])
    with pytest.raises(ArgumentOutOfRange, match="needs m > L = 2"):
        decomposed_expsum_check(BAD_LINE.system, [2, 4])
    with pytest.raises(ArgumentOutOfRange, match="m must be >= 1"):
        exponential_sum(LINE_X2.system, {0: [1]})
    with pytest.raises(ArgumentOutOfRange, match="needs m >= 1"):
        ScaledUnit(3, 0, 1)
    with pytest.raises(ArgumentOutOfRange, match="unit modulo p"):
        ScaledUnit(3, 2, 6)


def test_threevar_context_walks_few_nodes(monkeypatch):
    # the closed form resolves every subtree away from the cusp; enumerating
    # each leaf visited about 1.42 M nodes for this context
    import padiczeta.expsum as expsum
    import padiczeta.zeta as zeta

    meters = []
    meter_class = zeta.BudgetMeter

    def recording(limit, stage):
        meter = meter_class(limit, stage)
        meters.append(meter)
        return meter

    monkeypatch.setattr(zeta, "BudgetMeter", recording)
    expsum.build_stationary_phase_context(THREEVAR.system, depth=4, c_max=2)
    shell = [meter for meter in meters if meter.stage.startswith("shell walk")]
    assert shell and sum(meter.used for meter in shell) <= 20_000


def test_threevar_deep_trivial_table_matches_tails():
    # the depth 12 that delta_limit_check asks for is too shallow for
    # threevar: its trivial series reconstructs and validates from depth 14
    system = THREEVAR.system
    table = build_shell_table(system, 14)
    tails = [tail_measure(system, m) for m in range(8)]
    for m in range(7):
        assert sum(table.measures[m].values(), F(0)) == tails[m] - tails[m + 1]
    # (1 - t/3)(1 - t^6/243)
    assert table.trivial_fn().den == (F(1), F(-1, 3), 0, 0, 0, 0, F(-1, 243), F(1, 729))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_threevar_zeta_is_one_formula_in_p(p):
    # Z_p(t) = (1 - 1/p)(1 - t/p^2 + t^2/p^2 - t^5/p^5) / ((1 - t/p)(1 - t^6/p^5))
    system = system_from_strings(p, 3, ["x1 - x2*x3"], "x2^2 + x3^3")
    q = F(1, p)
    num = [1 - q, -(1 - q) * q**2, (1 - q) * q**2, 0, 0, -(1 - q) * q**5]
    den = [1, -q, 0, 0, 0, 0, -(q**5), q**6]
    assert build_shell_table(system, 14).trivial_fn() == RationalFn(num, den)
