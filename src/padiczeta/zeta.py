"""Twisted local zeta coefficients from exact shell measures.

The zeta function attached to the variety and target factors through
shell data: for each valuation m and angular class u mod p^c, the
surface measure of { x on the variety : ord target(x) = m, ac ≡ u }.
These measures are exact rationals computed by pruned walks over the
good-reduction charts (weights transport the measure through the
rescaling), and every twisted coefficient is a finite character sum
against them, so all cancellation happens exactly and only the final
character values are floating.

Shell walks are recounted one level deeper and must agree exactly
(after the p^dim scaling); disagreement raises instead of silently
producing a wrong table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .characters import MultChar, chi_value, enumerate_characters
from .errors import HypothesisNotVerified, NotStabilized, WalkInvariantError
from .mpoly import PolySystem
from .padic import int_valuation
from .ratfn import RationalFn, reconstruct_rational
from .smoothing import Chart, Decomposition, measure_charts
from .support import Support
from .variety import DEFAULT_BUDGET, DESCEND, PRUNE, BudgetMeter, critical_locus_probe, walk

ZERO_TOL = 1e-9


def _chart_support(
    support: Support | None, chart: Chart, p: int
) -> tuple[bool, Support | None]:
    """Transport the support indicator into chart coordinates.

    Returns (meets, sup): whether the chart meets the support at all,
    and the y-coordinate Support to restrict the chart to, or None when
    the whole chart lies inside the support.
    """
    if support is None or support.is_full():
        return True, None
    L = chart.L
    if support.level <= L:
        modulus = p**support.level
        key = tuple(c % modulus for c in chart.center)
        return key in support.projected(p, support.level), None
    rel_level = support.level - L
    mod_L = p**L
    y_centers = []
    for center in support.centers:
        if tuple(c % mod_L for c in center) != tuple(c % mod_L for c in chart.center):
            continue
        y_centers.append(tuple(((c - x) // mod_L) % p**rel_level for c, x in zip(center, chart.center)))
    if not y_centers:
        return False, None
    return True, Support(n=support.n, level=rel_level, centers=tuple(sorted(set(y_centers))))


def _chart_shell_walk(
    decomposition: Decomposition,
    chart: Chart,
    m: int,
    c: int,
    support: Support | None,
    budget: int,
) -> tuple[dict[int, int], int, int]:
    """Counts of chart points in shell (m, ac mod p^c), at resolving level.

    Returns (per-class counts, deep count, resolving level k): the shell
    measure contribution is weight * count * p^(-k * dim), and `deep`
    counts level-k points whose target valuation is >= m + c.
    """
    p = decomposition.system.p
    L = chart.L
    meets, sup = _chart_support(support, chart, p)
    if not meets:
        return {}, 0, 1
    k = max(m + c - L, sup.level if sup else 0, 1)
    lifter = decomposition.lifter(chart, budget)
    evaluate = chart.target.evaluate
    classify_mod, p_m, p_c = p ** (m + c), p**m, p**c
    # per level j: the modulus the target is determined to, and the number
    # of level-k points above a level-j node
    det_mod = [p ** min(L + j, m + c) for j in range(k + 1)]
    above = [p ** ((k - j) * lifter.dim) for j in range(k + 1)]

    def ready(j: int) -> bool:
        return sup is None or j >= sup.level

    def visit(y: tuple[int, ...], j: int):
        """(class u, or None for deep, level-k count) once the shell is resolved."""
        if sup is not None and not sup.admits_prefix(y, j, p):
            return PRUNE
        value = evaluate(y, classify_mod)
        reduced = value % det_mod[j]
        if reduced != 0:
            if int_valuation(reduced, p) != m:
                return PRUNE  # determined and outside this shell
            if m + c <= L + j and ready(j):
                return (value // p_m) % p_c, above[j]
        elif L + j >= m + c and ready(j):
            return None, above[j]
        if j >= k:
            raise WalkInvariantError(f"shell (m={m}, c={c}) unresolved at level {j} >= {k}")
        return DESCEND

    counts: dict[int, int] = {}
    deep = 0
    for u, count in walk(lifter.roots(), lifter.children, visit, BudgetMeter(budget)):
        if u is None:
            deep += count
        else:
            counts[u] = counts.get(u, 0) + count
    return counts, deep, k


def _shell_measures_once(
    decomposition: Decomposition,
    m: int,
    c: int,
    support: Support | None,
    budget: int,
) -> tuple[dict[int, Fraction], Fraction]:
    p = decomposition.system.p
    measures: dict[int, Fraction] = {}
    deep_measure = Fraction(0)
    for chart in decomposition.charts:
        counts, deep, k = _chart_shell_walk(decomposition, chart, m, c, support, budget)
        dim = decomposition.system.dim
        scale = chart.weight / p ** (k * dim)
        for u, count in counts.items():
            measures[u] = measures.get(u, Fraction(0)) + count * scale
        deep_measure += deep * scale
    return measures, deep_measure


@dataclass
class ShellTable:
    """Exact shell measures of the target along the variety, to depth M.

    measures[m][u] is the surface measure of the shell with valuation m
    and angular class u mod p^c_level; deep[m] is the measure of the set
    with valuation >= m + c_level (the unresolved remainder at shell m's
    classification level).
    """

    system: PolySystem
    support: Support | None
    c_level: int
    depth: int
    measures: list[dict[int, Fraction]]
    deep: list[Fraction]
    stabilized: list[bool]
    decomposition: Decomposition = field(repr=False, default=None)
    _class_fns: dict[int, RationalFn] = field(default_factory=dict, repr=False)

    def coefficient(self, chi: MultChar, m: int) -> Fraction | complex:
        """c_m(chi): the chi-weighted shell measure at valuation m."""
        if chi.is_trivial():
            return sum(self.measures[m].values(), Fraction(0))
        total = 0.0 + 0.0j
        for u, measure in sorted(self.measures[m].items()):
            total += chi_value(chi, u) * float(measure)
        return total

    def trivial_series(self) -> list[Fraction]:
        return [sum(self.measures[m].values(), Fraction(0)) for m in range(self.depth + 1)]

    def class_series(self, u: int) -> list[Fraction]:
        return [self.measures[m].get(u, Fraction(0)) for m in range(self.depth + 1)]

    def unit_classes(self) -> list[int]:
        p, c = self.system.p, self.c_level
        return [u for u in range(p**c) if u % p != 0]

    def class_fn(self, u: int, validation_count: int = 2) -> RationalFn:
        """Reconstructed generating function of one angular class."""
        if u not in self._class_fns:
            self._class_fns[u] = reconstruct_rational(self.class_series(u), validation_count)
        return self._class_fns[u]

    def coefficient_extrapolated(self, chi: MultChar, k: int) -> Fraction | complex:
        """Coeff of t^k in Z(s, chi), from the table or the class reconstructions."""
        if k < 0:
            return Fraction(0) if chi.is_trivial() else 0.0 + 0.0j
        if k <= self.depth:
            return self.coefficient(chi, k)
        if chi.is_trivial():
            series = reconstruct_rational(self.trivial_series()).series(k + 1)
            return series[k]
        total = 0.0 + 0.0j
        for u in self.unit_classes():
            coeff = self.class_fn(u).series(k + 1)[k]
            if coeff:
                total += chi_value(chi, u) * float(coeff)
        return total


def build_shell_table(
    system: PolySystem,
    depth: int,
    c_level: int = 1,
    support: Support | None = None,
    decomposition: Decomposition | None = None,
    budget: int = DEFAULT_BUDGET,
    verify_stabilization: bool = True,
) -> ShellTable:
    """Compute exact shell measures for m = 0..depth at angular level c_level.

    Every row is recomputed one level deeper when verify_stabilization
    is set; a mismatch raises NotStabilized rather than returning a
    silently wrong table.
    """
    if c_level < 1:
        raise ValueError("angular level must be >= 1")
    if decomposition is None:
        decomposition = measure_charts(system, budget)
    measures, deep, flags = [], [], []
    for m in range(depth + 1):
        row, deep_m = _shell_measures_once(decomposition, m, c_level, support, budget)
        stable = True
        if verify_stabilization:
            finer, _ = _shell_measures_once(decomposition, m, c_level + 1, support, budget)
            coarse: dict[int, Fraction] = {}
            mod_c = system.p**c_level
            for u, measure in finer.items():
                coarse[u % mod_c] = coarse.get(u % mod_c, Fraction(0)) + measure
            stable = coarse == {u: v for u, v in row.items() if v}
            if not stable:
                raise NotStabilized(f"shell recount at m={m} disagrees: {row} vs {coarse}")
        measures.append(row)
        deep.append(deep_m)
        flags.append(stable)
    return ShellTable(
        system=system,
        support=support,
        c_level=c_level,
        depth=depth,
        measures=measures,
        deep=deep,
        stabilized=flags,
        decomposition=decomposition,
    )


def shell_count(
    system: PolySystem,
    m: int,
    c: int,
    support: Support | None = None,
    budget: int = DEFAULT_BUDGET,
) -> dict[int, Fraction | int]:
    """Counts (at level m + c) per angular class of the shell ord = m.

    For good-reduction systems these are plain integers, the number of
    image points mod p^(m+c) in each class; in general they are the
    shell measures scaled by p^((m+c) * dim), which the chart weights
    can make fractional.  The stabilizing recount runs always.
    """
    decomposition = measure_charts(system, budget)
    table = build_shell_table(
        system, m, c_level=c, support=support, decomposition=decomposition, budget=budget
    )
    scale = system.p ** ((m + c) * system.dim)
    out: dict[int, Fraction | int] = {}
    for u, measure in sorted(table.measures[m].items()):
        value = measure * scale
        out[u] = int(value) if value.denominator == 1 else value
    return out


def zeta_coefficient(
    system: PolySystem,
    m: int,
    chi: MultChar,
    support: Support | None = None,
    budget: int = DEFAULT_BUDGET,
) -> Fraction | complex:
    """c_m(chi) for a single shell; prefer ShellTable for whole series."""
    c = max(chi.conductor, 1)
    table = build_shell_table(system, m, c_level=c, support=support, budget=budget)
    return table.coefficient(chi, m)


@dataclass(frozen=True)
class CoeffTable:
    """Coefficient list of Z(s, chi) with per-entry stabilization flags."""

    chi: MultChar
    coeffs: tuple
    stabilized: tuple[bool, ...]
    q: int

    def is_zero(self, tol: float = ZERO_TOL) -> bool:
        return all(abs(complex(c)) <= tol for c in self.coeffs)


def coefficient_table(table: ShellTable, chi: MultChar) -> CoeffTable:
    if max(chi.conductor, 1) > table.c_level:
        raise ValueError("shell table angular level too coarse for this character")
    coeffs = tuple(table.coefficient(chi, m) for m in range(table.depth + 1))
    return CoeffTable(chi=chi, coeffs=coeffs, stabilized=tuple(table.stabilized), q=table.system.p)


@dataclass(frozen=True)
class ConductorScan:
    """Result of the empirical twisted-vanishing scan.

    cutoff is the largest conductor with a nonzero table among the
    scanned characters; every scanned character of larger conductor had
    an identically (numerically) zero table.  guard_margin is how many
    conductor levels beyond the cutoff were verified zero.
    """

    cutoff: int
    scanned_level: int
    guard_margin: int
    nonzero: tuple[MultChar, ...]
    probe_clean: bool


def conductor_vanishing_scan(
    system: PolySystem,
    c_max: int,
    depth: int,
    support: Support | None = None,
    decomposition: Decomposition | None = None,
    budget: int = DEFAULT_BUDGET,
    probe_level: int = 2,
    require_clean_probe: bool = True,
) -> ConductorScan:
    """Find the empirical conductor cutoff beyond which twisted tables vanish.

    Scans every character of (Z/p^c_max)^* against shell measures to the
    given depth.  The finite-level critical-locus probe backs the
    hypothesis under which the cutoff is finite at all; a non-clean
    probe raises unless explicitly tolerated.
    """
    probe = critical_locus_probe(system, probe_level, budget)
    if require_clean_probe and not probe.clean:
        raise HypothesisNotVerified(
            f"critical-locus probe found suspects at level {probe_level}: "
            f"{probe.suspects[:5]}"
        )
    table = build_shell_table(
        system, depth, c_level=c_max, support=support, decomposition=decomposition, budget=budget
    )
    cutoff = 0
    nonzero = []
    for chi in enumerate_characters(system.p, c_max):
        if chi.is_trivial():
            continue
        if not coefficient_table(table, chi).is_zero():
            nonzero.append(chi)
            cutoff = max(cutoff, chi.conductor)
    return ConductorScan(
        cutoff=cutoff,
        scanned_level=c_max,
        guard_margin=c_max - cutoff,
        nonzero=tuple(nonzero),
        probe_clean=probe.clean,
    )


def _tail_points(
    decomposition: Decomposition,
    chart: Chart,
    m: int,
    sup: Support | None,
    meter: BudgetMeter,
) -> tuple[Iterator[int], int]:
    """A walk yielding 1 per chart point in sup where the target is 0 mod p^m.

    The points are counted at the resolving level k = max(m - L, level
    of sup, 1), which is returned with the walk.
    """
    p = decomposition.system.p
    L = chart.L
    k = max(m - L, sup.level if sup else 0, 1)
    lifter = decomposition.lifter(chart, meter.limit)
    evaluate = chart.target.evaluate
    det_mod = [p ** min(L + j, m) for j in range(k + 1)]

    def visit(y: tuple[int, ...], j: int):
        if sup is not None and not sup.admits_prefix(y, j, p):
            return PRUNE
        if evaluate(y, det_mod[j]) != 0:
            return PRUNE  # target valuation already determined below m
        return 1 if j >= k else DESCEND

    return walk(lifter.roots(), lifter.children, visit, meter), k


def tail_measure(
    system: PolySystem,
    m: int,
    support: Support | None = None,
    decomposition: Decomposition | None = None,
    budget: int = DEFAULT_BUDGET,
) -> Fraction:
    """Surface measure of { x : ord target(x) >= m } within the support."""
    if decomposition is None:
        decomposition = measure_charts(system, budget)
    p = system.p
    total = Fraction(0)
    meter = BudgetMeter(budget)
    for chart in decomposition.charts:
        meets, sup = _chart_support(support, chart, p)
        if meets:
            leaves, k = _tail_points(decomposition, chart, m, sup, meter)
            total += chart.weight * Fraction(sum(leaves), p ** (k * system.dim))
    return total


def candidate_pole_verdict(system: PolySystem, z_fn: RationalFn):
    """Check the reconstructed zeta denominator against the resolution data."""
    from .ratfn import candidate_pole_check

    if system.resolution_data is None:
        raise ValueError("system carries no resolution data")
    return candidate_pole_check(z_fn, system.resolution_data, system.p)
