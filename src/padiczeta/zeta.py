"""Twisted local zeta coefficients from exact shell measures.

The zeta function attached to the variety and target factors through
shell data: for each valuation m and angular class u mod p^c, the
surface measure of { x on the variety : ord target(x) = m, ac ≡ u }.
These measures are exact rationals computed by pruned walks over the
good-reduction charts (weights transport the measure through the
rescaling), and every twisted coefficient is a finite character sum
against them, so all cancellation happens exactly and only the final
character values are floating.  Every entry point looks the chart
decomposition up with `smoothing.measure_charts(system, budget)`, which
builds it once per (system, budget), and each walk takes its chart's
lifter and the support in chart coordinates from it.

A shell walk does not enumerate the points it counts.  At a node y of
level j inside the support and past the rescaling (j > L), Taylor's
first-order term fixes the target F on the node's ball modulo
p^(j + e), where e <= j is the least valuation mod p^j of the Jacobian
minors of (constraints G, F): F = F(y) - lam . G(y) there, exactly,
because F - lam . G has integer coefficients, gradient 0 mod p^e and a
Taylor tail in p^(2j).  Where e < j the target is a submersion on the
ball and, by Hensel's lemma, its deeper digits spread evenly, so the
subtree's share of every shell is a closed-form count (Igusa's
stationary phase).  Where e = j (every minor vanishes mod p^j) the ball
settles only when its value mod p^(2j) fixes the one class it meets,
and otherwise descends.  A ball settles or descends whole: where
F(y) != 0 mod p^K it meets the shell of valuation ord F(y) alone, where
F(y) = 0 every shell of valuation >= K, and one rule settles them all;
a child's value agrees mod p^K, so the shells a ball misses its
children miss too, and no walk keeps rows open per node.
`tail_measure` and `poincare.congruence_counts` read no minors: they
count from `variety.value_classes`, so the counts are the second route
of the identity P(t)(1 - t) + t Z(t) = 1.

One walk per chart and angular level serves every row m = 0..depth, and
a walk of its own recounts the rows at level c + 1: each row's integer
class counts summed mod p^c must agree exactly, or the table is refused
rather than silently wrong.  A node's minors and value do not depend on
c, so the walks of one table or scan compute them once per node.  A
table at level c determines every coarser level by summing classes, so
`ShellTable.project` serves it without another walk.

The conductor scan finds the conductor cutoff of the twisted tables.
It probes the critical locus once, then builds one table per level from
c_max upward until some level past the cutoff is verified zero (escalating
no further than CONDUCTOR_LIMIT), and hands that table on to the formula
route.  Each escalated table takes its rows from the previous level's
recounts and walks only its own recounts: one walk per chart.  Its zero
test is exact: all characters of one order vanish together, and integer
energies decide each order (`_nonzero_orders`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .characters import MultChar, chi_value, enumerate_characters, unit_group
from .errors import ArgumentOutOfRange, HypothesisNotVerified, MissingTable, NotStabilized
from .errors import WalkInvariantError
from .mpoly import PolySystem
from .padic import int_valuation
from .ratfn import RationalFn, reconstruct_rational
from .smoothing import Chart, Decomposition, measure_charts
from .support import Support
from .variety import (
    DEFAULT_BUDGET,
    DESCEND,
    PRUNE,
    BudgetMeter,
    critical_locus_probe,
    jacobian_minors,
    walk,
)

CONDUCTOR_LIMIT = 4  # the conductor scan escalates no further than this level
PROBE_LEVEL = 2  # level of the critical-locus probe behind the conductor scan


def _chart_shell_rows(
    decomposition: Decomposition,
    chart: Chart,
    depth: int,
    c: int,
    support: Support | None,
    meter: BudgetMeter,
    taylor: dict,
) -> tuple[list[dict[int, int]], int]:
    """Counts of chart points in the shells (m, ac mod p^c), m = 0..depth, by one walk.

    Returns (per-row class counts, k): a count adds weight * count *
    p^(-k * dim) to its shell.  Row m resolves at the level k_m =
    max(m + c - L, support level, 1); every row is counted at k = k_depth.
    At a node y of level j, F = w mod p^K on the ball (K >= L + j with
    w = F(y), as F(y) = f(center + p^L y)) and v = ord w (K if w = 0).
    Inside the support the Jacobian minors of (constraints G, F), of least
    valuation e mod p^j, fix F = F(y) - lam . G(y) mod p^(j + e) by Taylor.
    Where w != 0 the ball meets row v alone, and where w = 0 the rows
    K..depth; a ball that meets none is pruned.  A ball inside the support
    settles whole when w fixes its class (w != 0 and v + c <= K) or when
    e < j: then the level-(j + t) nodes above y spread evenly over the p^t
    lifts of w mod p^(j + e + t) (Hensel), so its counts have a closed
    form.  Any other ball descends, and one still open at row v's
    resolving level k_v breaks an invariant.  Settling or descending whole
    loses nothing: a child has K' >= K and F = w mod p^K, so the rows a
    ball misses its children miss too.  The minors and w depend on the
    node alone, not on c: `taylor` keeps them per (y, j) for every walk of
    the chart.
    """
    p, dim = decomposition.system.p, decomposition.system.dim
    L = chart.L
    counts: list[dict[int, int]] = [{} for _ in range(depth + 1)]
    meets, sup = decomposition.restrict(chart, support)
    if not meets:
        return counts, 1
    floor = max(sup.level if sup else 0, 1)
    k = max(depth + c - L, floor)
    lifter = decomposition.lifter(chart, meter.limit)
    target, constraints = chart.target, chart.constraints
    partials = [[f.partial(i) for i in range(1, lifter.n + 1)] for f in (*constraints, target)]
    p_c = p**c
    units = [u for u in range(p_c) if u % p]
    # the number of level-k points above a level-j node
    above = [p ** ((k - j) * dim) for j in range(k + 1)]

    def node(y: tuple[int, ...], j: int) -> tuple | None:
        """(inside, K, w, v, spread) at a node the support admits, else None."""
        if sup is not None and not sup.admits_prefix(y, j, p):
            return None
        inside = sup is None or j >= sup.level
        # the minors carry p^L from the rescaling, so e < j needs j > L
        e, lam = jacobian_minors(partials, y, p, j) if inside and j > L else (j, None)
        if lam is not None:
            # F - lam . G has gradient 0 mod p^e: F = F(y) - lam . G(y) mod p^(j + e)
            K = j + e
            modulus = p**K
            w = target.evaluate(y, modulus)
            w = (w - sum(a * g.evaluate(y, modulus) for a, g in zip(lam, constraints))) % modulus
        else:
            K = L + j
            w = target.evaluate(y, p**K)
        v = int_valuation(w, p) if w else K
        return inside, K, w, v, lam is not None and e < j

    def visit(y: tuple[int, ...], j: int):
        key = (y, j)
        if key not in taylor:
            taylor[key] = node(y, j)
        data = taylor[key]
        if data is None:
            return PRUNE
        inside, K, w, v, spread = data
        if v > depth:
            return PRUNE  # the ball meets no row
        if inside and w and v + c <= K:
            return [(v, (w // p**v) % p_c, above[j])]  # w fixes the class
        if spread:  # only inside the support
            if w:  # the classes are the lifts of w / p^v mod p^(K - v)
                step, share = p ** (K - v), above[j] // p ** (v + c - K)
                return [(v, u, share) for u in range((w // p**v) % step, p_c, step)]
            return [(m, u, above[j] // p ** (m + c - K)) for m in range(K, depth + 1) for u in units]
        level = max(v + c - L, floor)  # row v's resolving level
        if j >= level:
            raise WalkInvariantError(f"shell (m={v}, c={c}) unresolved at level {j} >= {level}")
        return DESCEND

    for settled in walk(lifter.roots(), lifter.children, visit, meter):
        for m, u, count in settled:
            counts[m][u] = counts[m].get(u, 0) + count
    return counts, k


def _shell_rows(
    decomposition: Decomposition,
    depth: int,
    c: int,
    support: Support | None,
    budget: int,
    memo: dict,
) -> tuple[list[dict[int, int]], int]:
    """(rows, den): the shell measures of the rows m = 0..depth at angular level c, times den.

    One walk per chart, on chart i's node data memo[i].  A chart count
    weighs weight * p^(-k * dim), a power of p, so over the largest of
    their denominators every measure is an integer.
    """
    p, dim = decomposition.system.p, decomposition.system.dim
    charts = decomposition.charts
    walked = []
    for i, chart in enumerate(charts):
        meter = BudgetMeter(budget, f"shell walk c={c} chart {i + 1}/{len(charts)}")
        counts, k = _chart_shell_rows(
            decomposition, chart, depth, c, support, meter, memo.setdefault(i, {})
        )
        walked.append((counts, chart.weight / p ** (k * dim)))
    den = max(scale.denominator for _, scale in walked)
    rows: list[dict[int, int]] = [{} for _ in range(depth + 1)]
    for counts, scale in walked:
        factor = scale.numerator * den // scale.denominator
        for row, chart_row in zip(rows, counts):
            for u, count in chart_row.items():
                row[u] = row.get(u, 0) + count * factor
    return rows, den


def _coarsen(measures: dict, modulus: int) -> dict:
    """Sum class measures (or counts) over the classes u mod modulus."""
    coarse: dict = {}
    for u, measure in measures.items():
        coarse[u % modulus] = coarse.get(u % modulus, 0) + measure
    return coarse


class ShellTable:
    """Exact shell measures of the target along the variety, to depth M.

    measures[m][u] is the surface measure of the shell with valuation m
    and angular class u mod p^c_level; classes of measure 0 are absent.
    """

    __slots__ = ("system", "c_level", "depth", "measures", "_class_fns", "_trivial_fn")

    def __init__(
        self,
        system: PolySystem,
        c_level: int,
        depth: int,
        measures: list[dict[int, Fraction]],
    ):
        self.system = system
        self.c_level = c_level
        self.depth = depth
        self.measures = measures
        self._class_fns: dict[int, RationalFn] = {}
        self._trivial_fn: RationalFn | None = None

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

    def trivial_fn(self) -> RationalFn:
        """Reconstructed generating function of the trivial-character series."""
        if self._trivial_fn is None:
            self._trivial_fn = reconstruct_rational(self.trivial_series())
        return self._trivial_fn

    def class_fn(self, u: int) -> RationalFn:
        """Reconstructed generating function of one angular class."""
        if u not in self._class_fns:
            self._class_fns[u] = reconstruct_rational(self.class_series(u))
        return self._class_fns[u]

    def project(self, c: int) -> "ShellTable":
        """The same table at the coarser angular level c (1 <= c <= c_level).

        Each class u mod p^c is the union of its lifts mod p^c_level, so
        its measure is their exact sum; no walk runs.
        """
        if not 1 <= c <= self.c_level:
            raise ArgumentOutOfRange(f"cannot project angular level {self.c_level} to {c}")
        modulus = self.system.p**c
        return ShellTable(
            system=self.system,
            c_level=c,
            depth=self.depth,
            measures=[_coarsen(row, modulus) for row in self.measures],
        )

    def coefficient_extrapolated(self, chi: MultChar, k: int) -> Fraction | complex:
        """Coeff of t^k in Z(s, chi), from the table or the class reconstructions."""
        if k < 0:
            return Fraction(0) if chi.is_trivial() else 0.0 + 0.0j
        if k <= self.depth:
            return self.coefficient(chi, k)
        if chi.is_trivial():
            return self.trivial_fn().series(k + 1)[k]
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
    budget: int = DEFAULT_BUDGET,
) -> ShellTable:
    """Compute exact shell measures for m = 0..depth at angular level c_level.

    One walk per chart gives the rows and another recounts them one level
    finer; a mismatch raises NotStabilized rather than a silently wrong table.
    """
    return _checked_table(system, depth, c_level, support, budget, None, {})[0]


def _checked_table(
    system: PolySystem,
    depth: int,
    c_level: int,
    support: Support | None,
    budget: int,
    rows: tuple[list[dict[int, int]], int] | None,
    memo: dict,
) -> tuple[ShellTable, tuple, tuple]:
    """The table at c_level, its `_shell_rows` rows, and their recounts at c_level + 1.

    The recounts are the rows at c_level + 1, so a conductor scan that
    escalates hands them on, with the node memo, instead of walking them again.
    """
    if c_level < 1 or depth < 0:
        raise ArgumentOutOfRange(f"need angular level >= 1 and depth >= 0: {c_level}, {depth}")
    p = system.p
    decomposition = measure_charts(system, budget)
    if rows is None:
        rows = _shell_rows(decomposition, depth, c_level, support, budget, memo)
    recounts = _shell_rows(decomposition, depth, c_level + 1, support, budget, memo)
    (counts, den), (finer, fine_den) = rows, recounts
    shift = fine_den // den  # the resolving levels, and with them den, grow with c
    for m, (row, fine_row) in enumerate(zip(counts, finer)):
        coarse = _coarsen(fine_row, p**c_level)
        if coarse != {u: n * shift for u, n in row.items()}:
            raise NotStabilized(f"shell recount at m={m} disagrees: {row} vs {coarse} / {shift}")
    measures = [{u: Fraction(n, den) for u, n in row.items()} for row in counts]
    return ShellTable(system, c_level, depth, measures), rows, recounts


class CoeffTable(NamedTuple):
    """Coefficient list of Z(s, chi), one entry per shell-table row."""

    chi: MultChar
    coeffs: tuple


def coefficient_table(table: ShellTable, chi: MultChar) -> CoeffTable:
    if max(chi.conductor, 1) > table.c_level:
        raise ArgumentOutOfRange("shell table angular level too coarse for this character")
    coeffs = tuple(table.coefficient(chi, m) for m in range(table.depth + 1))
    return CoeffTable(chi=chi, coeffs=coeffs)


def _nonzero_orders(p: int, c: int, rows: list[dict[int, int]]) -> set[int]:
    """The orders d > 1 of the characters chi mod p^c with sum_u chi(u) row[u] != 0 in some row.

    A character of order d sends a row to A(zeta), zeta a primitive d-th
    root of unity and A the integer fold mod x^d - 1 of the row indexed by
    discrete logs, so all characters of one order vanish together.  By
    Parseval those of order dividing d carry the energy d * |A|^2; less
    the proper divisors' own energies, it is 0 exactly when order d vanishes.
    """
    group = unit_group(p, c)
    divisors = [d for d in range(1, group.order + 1) if group.order % d == 0]
    logs = [[(group.dlog[u], n) for u, n in row.items()] for row in rows]
    own: dict[int, int] = {}
    for d in divisors:
        energy = 0
        for row in logs:
            folded = [0] * d
            for k, n in row:
                folded[k % d] += n
            energy += d * sum(b * b for b in folded)
        own[d] = energy - sum(own[e] for e in divisors if e < d and d % e == 0)
    return {d for d in divisors if d > 1 and own[d]}


class ConductorScan(NamedTuple):
    """Result of the empirical twisted-vanishing scan.

    cutoff is the largest conductor with a nonzero table among the
    scanned characters; every scanned character of larger conductor had
    an exactly zero table.  table is the shell table of the level the
    scan settled at: the conductor levels cutoff + 1..table.c_level were
    verified zero.
    """

    cutoff: int
    nonzero: tuple[MultChar, ...]
    table: ShellTable


def conductor_vanishing_scan(
    system: PolySystem,
    c_max: int,
    depth: int,
    support: Support | None = None,
    budget: int = DEFAULT_BUDGET,
) -> ConductorScan:
    """Find the empirical conductor cutoff beyond which twisted tables vanish.

    Scans every character of (Z/p^c)^* against shell measures to the
    given depth, for c = c_max, c_max + 1, ... up to CONDUCTOR_LIMIT (a
    c_max past the limit is scanned alone: the limit bounds only the
    escalation), and stops at the first level that verifies at least one
    conductor level beyond the cutoff to be zero (guard margin >= 1), so
    the truncation is checked rather than assumed; MissingTable is raised
    when no scanned level does.  The finite-level critical-locus
    probe backs the hypothesis under which the cutoff is finite at all,
    and a non-clean probe raises.  The characters mod p^c_max are set up
    first, so a p or c_max they do not support is refused before any walk.
    """
    unit_group(system.p, c_max)
    probe = critical_locus_probe(system, PROBE_LEVEL, budget)
    if not probe.clean:
        raise HypothesisNotVerified(
            f"critical-locus probe found suspects at level {PROBE_LEVEL}: "
            f"{probe.suspects[:5]}"
        )
    last = max(c_max, CONDUCTOR_LIMIT)
    memo: dict = {}  # the walks at every level share each chart's node data
    finer = None  # the previous level's recounts: this level's rows
    for level in range(c_max, last + 1):
        table, rows, finer = _checked_table(system, depth, level, support, budget, finer, memo)
        orders = _nonzero_orders(system.p, level, rows[0])
        nonzero = [chi for chi in enumerate_characters(system.p, level) if chi.order in orders]
        cutoff = max((chi.conductor for chi in nonzero), default=0)
        if level - cutoff >= 1:
            return ConductorScan(
                cutoff=cutoff,
                nonzero=tuple(nonzero),
                table=table,
            )
    raise MissingTable(
        f"nonzero twisted tables persist through conductor {last}; "
        "no verified truncation margin"
    )


def tail_measure(
    system: PolySystem,
    m: int,
    support: Support | None = None,
    budget: int = DEFAULT_BUDGET,
) -> Fraction:
    """Surface measure of { x : ord target(x) >= m } within the support.

    The chart points where the target is 0 mod p^m are counted at the
    resolving level k = max(m - L, level of the support, 1), by one
    `Decomposition.zeros` walk per chart the support meets.
    """
    if m < 0:
        raise ArgumentOutOfRange(f"need m >= 0, got {m}")
    decomposition = measure_charts(system, budget)
    p = system.p
    total = Fraction(0)
    meter = BudgetMeter(budget, f"tail walk m={m}")
    for i, chart in enumerate(decomposition.charts, 1):
        meets, sup = decomposition.restrict(chart, support)
        if not meets:
            continue
        k = max(m - chart.L, sup.level if sup else 0, 1)
        meter.stage = f"tail walk m={m} chart {i}/{len(decomposition.charts)}"
        leaves = decomposition.zeros(chart, k, m, sup, meter)[m]
        total += chart.weight * Fraction(leaves, p ** (k * system.dim))
    return total
