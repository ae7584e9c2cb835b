"""Enumeration and counting of constraint varieties modulo p^m.

Every tree enumeration in the package is one depth-first walk, `walk`,
over the Hensel lift tree of a polynomial system: a node is a residue x
mod p^j where every polynomial of the system vanishes mod p^j, its
children are its lifts to level j + 1, and a visit callback decides per
node whether to prune, descend or emit.  The lifts come from one
`HenselLifter`, which solves one small F_p linear system per node and
adds to x the steps p^j d over its solutions d, kept in a bounded memo
(`_steps`) per (F_p solver, right-hand side, level); `lifter_for` builds
each lifter once per (p, n, polynomials), and no module builds its own.
Under good reduction (full Jacobian rank at every F_p root) it walks
the smooth tree; without that assumption the same lifter walks the
filtered congruence tree, used for the first-lift search of
bad-reduction chart centers and the ambient integrals.
`value_classes` is the one walk that settles a node's subtree by the
target's Taylor step, and the counts, tail measures, recounts and
direct sums all read its classes.  `lift_counter` counts a node's lifts
as the solutions of one linear system over Z/p^i by a local Smith
reduction, with no Jacobian minors, for the routes that share nothing
with `value_classes`: the ambient walk of `regularize` and the image
oracle.  Two oracles stay independent of the lifter: a
brute-force scan of the full residue grid, which every walk is checked
against, and the image oracle, a class search on `walk` over the
all-digit tree.  A class search walks each tree once, to the class
level and then below each class toward one level past its accuracy,
and stops there.  The oracle evaluates the constraints and their
gradient once per node and keeps the digit vectors that pass that
first-order Taylor step, with no lifter and no F_p solver; from half
the search's accuracy on, the same step decides whether a node lifts
that far, and the node is not descended.

Image-level counts (the reduction of the variety's Z_p points rather
than its congruence solutions) live on the chart decomposition in
`smoothing`, whose charts look their lifters up in the same memo.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import BadReductionInput, BudgetExceeded, Frozen, NotStabilized, WalkInvariantError
from .mpoly import MPoly, PolySystem
from .padic import int_valuation
from .support import Support

DEFAULT_BUDGET = 10**7


class BudgetMeter:
    """Nodes visited so far by the walks charged to it, and their limit.

    The stage label (such as `shell walk c=2 chart 1/9`) names those
    walks in a budget error.
    """

    __slots__ = ("limit", "used", "stage")

    def __init__(self, limit: int, stage: str):
        self.limit = limit
        self.used = 0
        self.stage = stage

    def exhausted(self, level: int) -> BudgetExceeded:
        """The error for a walk that ran past the limit at a node of `level`."""
        return BudgetExceeded(
            f"{self.stage}: enumeration budget {self.limit} exhausted at level {level}"
        )


# -- the lift-tree walk ---------------------------------------------------------

PRUNE = None  # visit result: skip the node and its subtree
DESCEND = object()  # visit result: expand the node's children


def walk(
    roots: Sequence[tuple[int, ...]],
    children: Callable[[tuple[int, ...], int], list[tuple[int, ...]]],
    visit: Callable[[tuple[int, ...], int], object],
    meter: BudgetMeter,
    level: int = 1,
) -> Iterator:
    """Depth-first walk of a lift tree, yielding what `visit` emits.

    Roots sit at `level` (1 for a whole tree) and `children(x, j)` lists
    the level-(j + 1) nodes above x in lexicographic order; nodes are
    visited in that order, with one root-to-leaf path of pending siblings
    on an explicit stack.  `visit(x, j)` returns PRUNE, DESCEND, or a
    value to yield in place of the subtree.  This is the only code that
    charges a meter: every visited node costs one, and BudgetExceeded,
    naming the meter's stage and the level of the node it stopped at, is
    raised past its limit.  Nodes a visit counts without visiting cost
    nothing.  The count is kept in a local and synced with the meter
    around each yield, so the consumer may run another walk on the same
    meter between yields, but `visit` must not: the walk would overwrite
    that walk's charges at its next yield.  A consumer that stops reading
    abandons the pending stack, with every node visited so far charged.
    """
    stack = [(x, level) for x in reversed(roots)]
    used, limit = meter.used, meter.limit
    while stack:
        x, j = stack.pop()
        used += 1
        if used > limit:
            meter.used = used
            raise meter.exhausted(j)
        action = visit(x, j)
        if action is DESCEND:
            stack.extend(zip(reversed(children(x, j)), itertools.repeat(j + 1)))
        elif action is not PRUNE:
            meter.used = used
            yield action
            used = meter.used
    meter.used = used


# -- F_p linear algebra -------------------------------------------------------


def _rref(
    matrix: Sequence[Sequence[int]], p: int
) -> tuple[list[list[int]], list[int], list[list[int]]]:
    """(R, pivot columns, T): the RREF R of a matrix over F_p, with T * matrix = R."""
    rows = [[x % p for x in row] for row in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    trans = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    pivot_cols: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        trans[r], trans[pivot] = trans[pivot], trans[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        trans[r] = [x * inv % p for x in trans[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
                trans[i] = [(x - f * y) % p for x, y in zip(trans[i], trans[r])]
        pivot_cols.append(c)
        r += 1
    return rows, pivot_cols, trans


class _FpSolver(Frozen):
    """Precomputed RREF and kernel of an F_p matrix for repeated affine solves.

    The kernel is listed once, in lexicographic order, through its
    echelon basis: basis vector s has its first nonzero entry, a 1, at
    position leads[s], and every other basis vector is 0 there.  A
    solution whose entries at the leads are 0 plus the kernel in that
    order gives every solution in lexicographic order, because the
    entries before leads[s] only depend on the first s coefficients.
    Solvers are immutable, so one serves every root with its matrix.
    """

    __slots__ = ("p", "pivot_cols", "transform", "checks", "leads", "basis", "kernel")

    def __init__(
        self,
        p: int,
        pivot_cols: list[int],
        transform: list[list[int]],  # T with T*A = RREF of A
        checks: list[list[int]],  # the rows of T past the rank: A d = rhs is solvable iff each kills rhs
        leads: list[int],
        basis: list[list[int]],  # echelon basis of the kernel, one row per lead
        kernel: tuple[tuple[int, ...], ...],  # all d with A d = 0, lexicographic
    ):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "pivot_cols", pivot_cols)
        object.__setattr__(self, "transform", transform)
        object.__setattr__(self, "checks", checks)
        object.__setattr__(self, "leads", leads)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "kernel", kernel)

    @staticmethod
    @functools.lru_cache(maxsize=4096)
    def build(matrix: tuple[tuple[int, ...], ...], p: int) -> "_FpSolver":
        reduced, pivot_cols, trans = _rref(matrix, p)
        ncols = len(reduced[0]) if reduced else 0
        spanning = []
        for f in (c for c in range(ncols) if c not in pivot_cols):
            d = [0] * ncols
            d[f] = 1
            for i, col in enumerate(pivot_cols):
                d[col] = -reduced[i][f] % p
            spanning.append(d)
        basis, leads, _ = _rref(spanning, p) if spanning else ([], [], [])
        kernel = tuple(
            tuple(sum(a * b[i] for a, b in zip(coeffs, basis)) % p for i in range(ncols))
            for coeffs in itertools.product(range(p), repeat=len(basis))
        )
        return _FpSolver(p, pivot_cols, trans, trans[len(pivot_cols) :], leads, basis, kernel)

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    def solve_affine(self, rhs: Sequence[int]) -> Sequence[tuple[int, ...]]:
        """All solutions d of A d = rhs over F_p, in lexicographic order of d."""
        p = self.p
        if any(sum(t * b for t, b in zip(row, rhs)) % p for row in self.checks):
            return ()  # inconsistent
        d = [0] * len(self.kernel[0])
        for row, col in zip(self.transform, self.pivot_cols):
            d[col] = sum(t * b for t, b in zip(row, rhs)) % p
        for lead, b in zip(self.leads, self.basis):
            if d[lead]:
                a = d[lead]
                d = [(x - a * y) % p for x, y in zip(d, b)]
        if not any(d):
            return self.kernel
        return [tuple([(x + k) % p for x, k in zip(d, offset)]) for offset in self.kernel]


# -- verdicts and counters ----------------------------------------------------


class GoodReductionVerdict(NamedTuple):
    """Whether the system has good reduction, with a witness residue when not."""

    witness: tuple[int, ...] | None

    @property
    def good(self) -> bool:
        return self.witness is None

    def __bool__(self) -> bool:
        return self.good


class FiberCount:
    """Count of variety points at one level, optionally split into shells.

    by_shell maps (ord of the target value, angular class mod p^c) to a
    count; points whose target valuation cannot be resolved at this
    level go to `deep`, so count == sum(by_shell.values()) + deep when
    shell data is present.
    """

    __slots__ = ("m", "count", "by_shell", "deep")

    def __init__(self, m: int, count: int, by_shell: dict[tuple[int, int], int] | None = None):
        self.m = m
        self.count = count
        self.by_shell = by_shell
        self.deep = 0


def _fiber_count(
    system: PolySystem, m: int, points: Iterable[tuple[int, ...]], angular_level: int | None
) -> FiberCount:
    """Count level-m points, split into shells when an angular level c is given.

    A point's shell is (ord, ac mod p^c) of its target value mod p^m; a
    point whose shell is unresolved at level m goes to `deep`.
    """
    p, modulus = system.p, system.p**m
    result = FiberCount(m=m, count=0, by_shell={} if angular_level else None)
    for x in points:
        result.count += 1
        if not angular_level:
            continue
        value = system.target.evaluate(x, modulus)
        v = int_valuation(value, p)
        if v is None or v + angular_level > m:
            result.deep += 1
        else:
            shell = (v, (value // p**v) % p**angular_level)
            result.by_shell[shell] = result.by_shell.get(shell, 0) + 1
    return result


def brute_force_points(
    system: PolySystem,
    m: int,
    budget: int = DEFAULT_BUDGET,
    angular_level: int | None = None,
    support: Support | None = None,
    collect: bool = False,
) -> FiberCount | tuple[FiberCount, list[tuple[int, ...]]]:
    """Exhaustive count of congruence solutions modulo p^m.

    Scans all p^(m n) residue vectors, so it is only usable at desk
    scale, but it is the oracle every cleverer path is compared with.
    """
    p, n = system.p, system.n
    total = p ** (m * n)
    if total > budget:
        raise BudgetExceeded(f"p^(m*n) = {total} exceeds budget {budget}")
    modulus = p**m
    points = (
        x
        for x in itertools.product(range(modulus), repeat=n)
        if (support is None or support.admits_prefix(x, m, p))
        and not any(f.evaluate(x, modulus) for f in system.constraints)
    )
    if collect:
        points = list(points)
        return _fiber_count(system, m, points, angular_level), points
    return _fiber_count(system, m, points, angular_level)


def good_reduction_test(system: PolySystem, budget: int = DEFAULT_BUDGET) -> GoodReductionVerdict:
    """Check the constraint Jacobian has full rank at every F_p point.

    Bad verdicts carry a witness residue where the rank drops.
    """
    lifter = lifter_for(system.p, system.n, system.constraints, budget)
    return GoodReductionVerdict(lifter.witness)


# -- Hensel tree ---------------------------------------------------------------


def check_residue_scan(p: int, n: int, budget: int) -> None:
    """Refuse a scan of all p^n residues that the budget does not cover."""
    if p**n > budget:
        raise BudgetExceeded(f"p^n = {p**n} exceeds budget {budget}")


class HenselLifter:
    """Digit-lifting engine for the congruence tree of a polynomial system.

    The F_p Jacobian only depends on a point's reduction mod p, so one
    solver is prepared per root in V(F_p) and reused along the whole
    subtree above it.  A level-j node x lifts by the digits d solving
    grad f_i(x) . d = -f_i(x)/p^j over F_p, which is exact for j >= 1
    because the Taylor tail carries p^(2j).  Rank-deficient rows just
    mean fewer conditions, so the same lifter walks systems without good
    reduction; the first root where the rank drops is kept as `witness`,
    and `smooth()` refuses such a lifter for the smooth tree.
    """

    def __init__(self, p: int, n: int, constraints: Sequence[MPoly]):
        self.p = p
        self.n = n
        self.constraints = tuple(constraints)
        partials = [[f.partial(j) for j in range(1, n + 1)] for f in self.constraints]
        self._partials = partials
        self._solvers: dict[tuple[int, ...], _FpSolver] = {}
        self.witness: tuple[int, ...] | None = None
        for x in itertools.product(range(p), repeat=n):
            if any(f.evaluate(x, p) for f in self.constraints):
                continue
            jac = tuple(tuple(df.evaluate(x, p) for df in row) for row in partials)
            solver = _FpSolver.build(jac, p)
            if self.witness is None and solver.rank != len(self.constraints):
                self.witness = x
            self._solvers[x] = solver

    @property
    def dim(self) -> int:
        return self.n - len(self.constraints)

    def roots(self) -> list[tuple[int, ...]]:
        return list(self._solvers)

    def smooth(self) -> "HenselLifter":
        """This lifter, once every root is known to have full Jacobian rank."""
        if self.witness is not None:
            rank = self._solvers[self.witness].rank
            raise BadReductionInput(
                f"Jacobian rank {rank} < {len(self.constraints)} at {self.witness}"
            )
        return self

    def children(self, x: tuple[int, ...], j: int) -> list[tuple[int, ...]]:
        """Lifts of a level-j solution to level j+1, lexicographic in the digit.

        The digits d solve grad f(x) . d = -f(x)/p^j mod p for every
        constraint f.
        """
        p = self.p
        step = p**j
        rhs = []
        for f in self.constraints:
            value = f.evaluate(x, step * p)
            if value % step:
                raise WalkInvariantError(f"node {x} does not satisfy the constraints at level {j}")
            rhs.append(-(value // step) % p)
        steps = _steps(self._solvers[tuple([c % p for c in x])], tuple(rhs), j)
        # through a list: tuple(map(...)) over-allocates each tuple, then shrinks it
        return [tuple([*map(operator.add, x, s)]) for s in steps]


@functools.lru_cache(maxsize=32)  # no perfbench job meets more than 22 (solver, rhs, j) keys
def _steps(solver: _FpSolver, rhs: tuple[int, ...], j: int) -> tuple[tuple[int, ...], ...]:
    """The steps p^j d over the solutions d of the solver's system at rhs, lexicographic in d."""
    scaled = [solver.p**j * d for d in range(solver.p)]  # shared by every step of the level
    return tuple(tuple([scaled[d] for d in digit]) for digit in solver.solve_affine(rhs))


def _taylor_rows(
    polys: Sequence[MPoly],
    gradients: Sequence[Sequence[MPoly]],
    x: tuple[int, ...],
    j: int,
    levels: int,
    p: int,
) -> list[list[int]]:
    """The rows (grad f(x), -f(x)/p^j) mod p^levels of the polys f at a level-j common zero x."""
    if levels > j:
        raise WalkInvariantError(f"no Taylor step to level {j + levels} from level {j}")
    step, reach = p**j, p**levels
    rows = []
    for f, partials in zip(polys, gradients):
        value = f.evaluate(x, step * reach)
        if value % step:
            raise WalkInvariantError(f"node {x} is not a zero of {f} at level {j}")
        rows.append([df.evaluate(x, reach) for df in partials] + [-(value // step)])
    return rows


def lift_counter(
    polys: Sequence[MPoly],
    gradients: Sequence[Sequence[MPoly]],
    x: tuple[int, ...],
    j: int,
    levels: int,
    p: int,
) -> Callable[[int], int]:
    """count(i): the y mod p^i with every f(x + p^j y) = 0 mod p^(j + i), for i <= levels <= j.

    x is a common zero of the polys mod p^j, and gradients[k] lists the
    partials of polys[k].  For i <= j, f(x + p^j y) = f(x) + p^j grad
    f(x) . y mod p^(j + i), as the Taylor tail carries p^(2j), so the
    lifts solve one linear system over Z/p^i, the row (grad f(x),
    -f(x)/p^j) per poly: one evaluation at x, mod p^(j + levels), serves
    every count.
    """
    rows = _taylor_rows(polys, gradients, x, j, levels, p)
    return lambda i: _solution_count(rows, len(x), p, i)


def _slopes(
    lifter: HenselLifter, gradient: Sequence[MPoly]
) -> Callable[[tuple[int, ...], int, int], tuple[int, int]]:
    """slope(x, j, e) -> (v, shift): the linear term of a target T on a level-j node's subtree.

    The lifter is smooth, gradient lists T's partials, and e <= j.  The
    Taylor tails of the constraints G and of T carry p^(2j), so the
    subtree's points are x + p^j y with grad G(x) y = -G(x)/p^j mod p^e,
    and T(x + p^j y) = T(x) + p^j g . y mod p^(j + e), g = grad T(x).
    Clearing g's entries at one unit pivot of each constraint row leaves
    a form in the dim free coordinates z of y, of content p^v (v = e
    where it is 0 mod p^e), and T = T(x) + p^j (shift + form(z)) mod
    p^(j + e).  So for v < e the
    values are one class mod p^(j + v), and past it T is a submersion on
    the node's ball: the form over p^v has a unit entry, and every term
    past it carries p^(j - v) more, so T's digits past j + v are those of
    a unit-Jacobian change of the free coordinates, spread evenly at every
    deeper level (Igusa's stationary phase, on one chart).  g mod p, and
    so whether v > 0, depends on x mod p alone: it is decided once per
    root, and the elimination mod p^e runs only above roots where it
    leaves g = 0 mod p; elsewhere the slope is (0, 0).  Where p^e divides
    the content of T's gradient, g = 0 mod p^e and the slope is (e, 0).
    """
    lifter = lifter.smooth()
    p, partials = lifter.p, lifter._partials
    content = min(
        (int_valuation(c, p) for df in gradient for c in df.terms.values()), default=math.inf
    )
    critical: dict[tuple[int, ...], bool] = {}  # root -> v > 0

    def slope(x: tuple[int, ...], j: int, e: int) -> tuple[int, int]:
        if content >= e:
            return e, 0
        root = tuple([c % p for c in x])
        if root not in critical:
            rows = [[df.evaluate(root, p) for df in row] + [0] for row in partials]
            row = _eliminated(rows, [df.evaluate(root, p) for df in gradient] + [0], p, 1)
            critical[root] = not any(row)
        if not critical[root]:
            return 0, 0
        rows = _taylor_rows(lifter.constraints, partials, x, j, e, p)
        row = _eliminated(rows, [df.evaluate(x, p**e) for df in gradient] + [0], p, e)
        # row[-1] = -g . (the y with zero free part)
        return min((int_valuation(c, p) for c in row[:-1] if c), default=e), -row[-1]

    return slope


def value_classes(
    lifter: HenselLifter,
    depth: int,
    target: MPoly,
    precision: int,
    support: Support | None,
    meter: BudgetMeter,
) -> Iterator[tuple[int, int, int]]:
    """(c, a, hits) per settled node: hits of its level-depth points on each r = c mod p^a mod p^precision.

    The settled nodes partition the level-depth points of a smooth
    lifter's tree that the support admits, and target mod p^precision
    must be a function of a point's class mod p^depth.  Let p^s be the
    content of the target T's non-constant coefficients, capped at
    p^precision, and sat = precision - s; T mod p^min(precision, j + s)
    is then a function of a node's class mod p^j.  Nodes below the
    support's level descend.  Every other node x of level j settles by
    one rule, with e = min(sat - j, j).  Where e <= 0 its class is T(x)
    mod p^precision.
    Otherwise `_slopes` of T/p^s gives (v, shift), and the node settles on
    c = T(x) + p^(j + s) shift mod p^a, a = j + s + v, hit evenly on each
    residue mod p^precision in it: for v < e, T is a submersion on the
    node's ball, and for v = e = sat - j the class is the residue.  Only a
    node with v = e = j < sat - j descends, as its deeper digits need the
    next Taylor order.  The walk charges the meter for its visited nodes.
    """
    lifter = lifter.smooth()
    p, n, dim = lifter.p, lifter.n, lifter.dim
    s = min([*(int_valuation(c, p) for k, c in target.terms.items() if any(k)), precision])
    sat = precision - s
    stripped = MPoly(n, {k: c // p**s for k, c in target.terms.items() if any(k)})
    slope = _slopes(lifter, [stripped.partial(k) for k in range(1, n + 1)])
    settle = min(support.level if support else 1, depth)

    def visit(x: tuple[int, ...], j: int):
        if support is not None and not support.admits_prefix(x, j, p):
            return PRUNE
        if j < settle:
            return DESCEND
        e, v, shift = min(sat - j, j), 0, 0
        if e > 0:
            v, shift = slope(x, j, e)
            if v == e == j < sat - j:
                return DESCEND
        a, spread = min(precision, j + s + v), (depth - j) * dim
        if spread < precision - a:
            raise WalkInvariantError(
                f"{p}^{spread} level-{depth} points cannot cover "
                f"{p}^{precision - a} residues mod p^{precision}"
            )
        c = (target.evaluate(x, p**a) + p ** (j + s) * shift) % p**a
        return c, a, p ** (spread - precision + a)

    return walk(lifter.roots(), lifter.children, visit, meter)


def zero_counts(
    lifter: HenselLifter,
    depth: int,
    target: MPoly,
    precision: int,
    support: Support | None,
    meter: BudgetMeter,
) -> list[int]:
    """zeros[m]: the level-depth points in the support with target = 0 mod p^m, m <= precision.

    Read off the classes of one `value_classes` walk, grouped by (c, a)
    first.  A class holds hits points on each residue mod p^precision
    that is c mod p^a, and p^(precision - max(a, m)) of those are 0 mod
    p^m when c = 0 mod p^min(a, m), none otherwise.
    """
    p = lifter.p
    classes: dict[tuple[int, int], int] = {}
    for c, a, hits in value_classes(lifter, depth, target, precision, support, meter):
        classes[c, a] = classes.get((c, a), 0) + hits
    zeros = [0] * (precision + 1)
    for (c, a), hits in classes.items():
        # c = 0 mod p^min(a, m) exactly for m <= ord c, every m when c = 0
        for m in range(precision + 1 if c == 0 else int_valuation(c, p) + 1):
            zeros[m] += hits * p ** (precision - max(a, m))
    return zeros


def _eliminated(rows: Sequence[Sequence[int]], row: Sequence[int], p: int, e: int) -> list[int]:
    """row minus the combination of the rows (*a, b) clearing it at a unit pivot of each, mod p^e.

    Each row pivots on a unit entry it still has once the earlier pivots
    are cleared from it; a row with none is a rank drop mod p.
    """
    rows, row = [list(r) for r in rows], list(row)
    while rows:
        pivot_row = rows.pop()
        c = next((c for c, a in enumerate(pivot_row[:-1]) if a % p), None)
        if c is None:
            raise WalkInvariantError("the constraint rows lose rank mod p on a smooth tree")
        _clear_column((*rows, row), pivot_row, c, 1, p**e)
    return row


def _clear_column(
    rows: Iterable[list[int]], pivot_row: Sequence[int], c: int, scale: int, modulus: int
) -> None:
    """Subtract from each row the multiple of pivot_row that zeroes its column c mod modulus.

    pivot_row[c] is scale times a unit, and scale divides each row's entry there.
    """
    inverse = pow(pivot_row[c] // scale, -1, modulus)
    for row in rows:
        if row[c]:
            factor = row[c] // scale * inverse % modulus
            row[:] = [(a - factor * b) % modulus for a, b in zip(row, pivot_row)]


def _solution_count(system: Sequence[Sequence[int]], n: int, p: int, i: int) -> int:
    """How many y mod p^i solve a . y = b mod p^i for every row (*a, b) of the system.

    A local Smith reduction: an entry of least valuation v pivots, and
    clearing its column from the other rows leaves its own row alone in
    its variable.  As v is least, that row has p^v solutions in it when
    p^v divides its right side, whatever the other variables are, and
    none otherwise.  Once every entry is 0 mod p^i, each remaining right
    side must be 0 and each remaining variable is free.
    """
    modulus = p**i
    rows = [[a % modulus for a in row] for row in system]
    free = list(range(n))
    power = 0
    while True:
        pivot = None  # (valuation, row, column)
        for r, row in enumerate(rows):
            for c in free:
                if row[c]:
                    v = int_valuation(row[c], p)
                    if pivot is None or v < pivot[0]:
                        pivot = (v, r, c)
        if pivot is None:
            break
        v, r, c = pivot
        pivot_row = rows.pop(r)
        if pivot_row[-1] % p**v:
            return 0
        power += v
        free.remove(c)
        _clear_column(rows, pivot_row, c, p**v, modulus)
    if any(row[-1] for row in rows):
        return 0
    return p ** (power + i * len(free))


def lifter_for(
    p: int, n: int, constraints: Sequence[MPoly], budget: int = DEFAULT_BUDGET
) -> HenselLifter:
    """The lifter of (p, n, constraints), built once and refused whenever p^n exceeds the budget.

    A lifter is a pure function of its arguments, so every module takes
    its lifters from this one memo (`lifter_for.cache_clear` empties
    it); the budget is checked on every lookup, hit or miss.
    """
    check_residue_scan(p, n, budget)
    return _build_lifter(p, n, tuple(constraints))


@functools.lru_cache(maxsize=256)
def _build_lifter(p: int, n: int, constraints: tuple[MPoly, ...]) -> HenselLifter:
    return HenselLifter(p, n, constraints)


lifter_for.cache_clear = _build_lifter.cache_clear


def _points_at(lifter: HenselLifter, m: int, budget: int, stage: str) -> Iterator[tuple[int, ...]]:
    """The level-m nodes of the lifter's tree.

    The roots sit at level 1, so a walk for m < 1 would never stop.
    """
    if m < 1:
        raise WalkInvariantError(f"no level {m} < 1 in the lift tree")

    def visit(x: tuple[int, ...], j: int):
        return x if j == m else DESCEND

    return walk(lifter.roots(), lifter.children, visit, BudgetMeter(budget, stage))


def iter_hensel_points(
    lifter: HenselLifter, m: int, budget: int = DEFAULT_BUDGET
) -> Iterator[tuple[int, ...]]:
    """Stream the level-m points of a smooth lifter's tree.

    Depth-first, lexicographic in the digit vectors, one root-to-leaf
    path in memory at a time.  The lifter comes from `lifter_for`; chart
    walks look theirs up through `smoothing.Decomposition.lifter`.  The
    meter stage is `hensel walk m=<m>`.
    """
    yield from _points_at(lifter.smooth(), m, budget, f"hensel walk m={m}")


def hensel_enumerate(
    system: PolySystem,
    m: int,
    budget: int = DEFAULT_BUDGET,
    angular_level: int | None = None,
) -> FiberCount:
    """Count level-m solutions by actual tree traversal (not the count law).

    The good-reduction count law #V(F_p) * p^((m-1)(n-l+1)) is what tests
    compare this against; the traversal never assumes it.
    """
    lifter = lifter_for(system.p, system.n, system.constraints, budget)
    return _fiber_count(system, m, iter_hensel_points(lifter, m, budget), angular_level)


# -- filtered congruence tree (no smoothness assumed) --------------------------


def iter_congruence_points(
    lifter: HenselLifter, m: int, budget: int = DEFAULT_BUDGET
) -> Iterator[tuple[int, ...]]:
    """Stream all x mod p^m with every lifter constraint = 0 mod p^m, level by level.

    Works for any system, with no smoothness assumption: the lifter's
    affine digit systems just have fewer conditions at singular points.
    The lifter comes from `lifter_for`, so walks of one system at several
    levels share its residue scan.  The budget meters node visits.
    """
    if m == 0:
        yield (0,) * lifter.n
        return
    yield from _points_at(lifter, m, budget, f"congruence walk m={m}")


def truncated_tree(
    p: int,
    n: int,
    polys: Sequence[MPoly],
    r: int,
    above: Callable[[tuple[int, ...], int], list[tuple[int, ...]]],
    budget: int = DEFAULT_BUDGET,
) -> tuple[list[tuple[int, ...]], Callable[[tuple[int, ...], int], list[tuple[int, ...]]]]:
    """Roots and children of a tree of x with every poly = 0 mod p^r.

    Below level r a node's children are its lifts, from the lifter of
    the polys; from level r on the polys impose nothing more, and a
    level-j node's children are above(x, j), in lexicographic order.
    For r < 1 the roots are every residue mod p.
    """
    if r >= 1:
        lifter = lifter_for(p, n, polys, budget)
        roots = lifter.roots()
    else:
        roots = list(itertools.product(range(p), repeat=n))

    def children(x: tuple[int, ...], j: int) -> list[tuple[int, ...]]:
        return lifter.children(x, j) if j < r else above(x, j)

    return roots, children


# -- image-level operations ----------------------------------------------------


def _class_search(
    roots: Sequence[tuple[int, ...]],
    children: Callable[[tuple[int, ...], int], list[tuple[int, ...]]],
    p: int,
    m: int,
    accuracy: int,
    budget: int,
    stage: str,
    settle: Callable[[tuple[int, ...], int, int], Callable[[int], bool] | None] | None = None,
) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Classes mod p^m of the tree's nodes at `accuracy`, each with its first lift.

    An existence search: a walk to level m, whose nodes are distinct
    classes mod p^m, then below each level-m node one first-hit walk
    toward accuracy + 1.  It records the first node it meets at
    `accuracy`, which represents the class, and its first node at
    accuracy + 1 ends it, with its pending stack dropped unvisited.  A
    class with a node at `accuracy` but none at accuracy + 1 raises
    NotStabilized; a lift at accuracy + 1 implies one at `accuracy`, so
    no other class differs between the two levels.  Every node is
    charged once, to the one meter of stage `<stage> m=<m>
    accuracy=<accuracy>`: a first-hit walk's roots are the children of
    its level-m node, and for m = 0, where every node is in the one
    class, the tree's roots.  `settle(x, j, level)`, when given, may
    decide a node x of level j < level: None descends as usual, or
    `lifts(i)` says whether x lifts to a level i <= `level`, and x stands
    in for its lifts.  A settled x meets accuracy + 1 when it lifts
    there, and when it does not `lifts(accuracy)` says whether it meets
    `accuracy`; the representative of a class is then any of its nodes.
    """
    if m < 0 or accuracy < max(m, 1):
        raise WalkInvariantError(
            f"no search mod p^{m} at accuracy {accuracy}: the roots sit at level 1"
        )
    meter = BudgetMeter(budget, f"{stage} m={m} accuracy={accuracy}")
    rep = None  # the current class's first node at `accuracy`

    def visit(x: tuple[int, ...], j: int):
        nonlocal rep
        if j > accuracy:
            return x
        lifts = settle(x, j, accuracy + 1) if settle is not None else None
        found = lifts(accuracy + 1) if lifts else None
        if rep is None and (j == accuracy or found or found is False and lifts(accuracy)):
            rep = x
        if found is None:
            return DESCEND
        return x if found else PRUNE

    def first_hit(nodes: Sequence[tuple[int, ...]], j: int):
        return next(walk(nodes, children, visit, meter, j), PRUNE)

    reps = {}
    for x in walk(roots, children, lambda x, j: x if j == m else DESCEND, meter) if m else [None]:
        rep = None
        hit = first_hit(roots, 1) if x is None else visit(x, m)
        if hit is DESCEND:
            hit = first_hit(children(x, m), m + 1)
        if rep is not None:
            if hit is PRUNE:
                raise NotStabilized(
                    f"classes mod p^{m} differ between accuracies {accuracy} and {accuracy + 1}"
                )
            reps[tuple(c % p**m for c in rep)] = rep
    return reps


def first_lifts(
    lifter: HenselLifter, m: int, accuracy: int, budget: int = DEFAULT_BUDGET
) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Classes mod p^m of the solutions mod p^accuracy, each with its first lift.

    The class search of `_class_search` over the filtered congruence
    tree of a lifter from `lifter_for` (meter stage `center search m=<m>
    accuracy=<accuracy>`).  Each class's representative is its first
    solution mod p^accuracy in walk order, lexicographic by digit vector
    level by level, and each first-hit walk stops at the first solution
    one level deeper.
    """
    return _class_search(
        lifter.roots(), lifter.children, lifter.p, m, accuracy, budget, "center search"
    )


def image_oracle(
    system: PolySystem,
    m: int,
    buffer: int,
    budget: int = DEFAULT_BUDGET,
) -> set[tuple[int, ...]]:
    """Classes mod p^m with a lift mod p^(m + buffer): the reduction image, overapproximated.

    The class set of `_class_search` at accuracy m + buffer, checked
    against m + buffer + 1 (raising NotStabilized if they differ), over the
    all-digit filtered tree: the roots are the residues mod p where
    every constraint vanishes, and a level-j node x has the children
    x + p^j d, for every digit vector d in lexicographic order, where
    every constraint vanishes mod p^(j + 1).  The roots are found by
    evaluation; a node's `_taylor_rows` to one level evaluate each
    constraint f once, as f(x)/p^j mod p, and its gradient mod p, and
    the node keeps the digit vectors with
    f(x)/p^j + grad f(x).d = 0 mod p for every f: the first-order
    Taylor step, exact because the rest of f(x + p^j d) - f(x) carries
    p^(2j) and 2j >= j + 1.  The survivors depend only on that step, so
    each distinct step is tested once per call.

    A node of level j with 2j >= accuracy + 1 is not descended: the same
    step is exact there, and `lift_counter` tells from one evaluation
    whether x lifts to accuracy + 1 and, if not, to the accuracy.  The
    oracle only evaluates: it builds no lifter and no F_p solver, so it
    shares nothing with the chart decomposition it checks (meter stage
    `image oracle m=<m> accuracy=<m + buffer>`).  For m = 0 the image is
    the one class (0, ..., 0) when some root has a lift at the accuracy,
    and empty otherwise.  Stability is evidence, not proof; the
    decomposition cross-checks catch a wrong-but-stable buffer.
    """
    p, n, constraints = system.p, system.n, system.constraints
    check_residue_scan(p, n, budget)
    digits = list(itertools.product(range(p), repeat=n))
    gradients = [[f.partial(k) for k in range(1, n + 1)] for f in constraints]
    survivors: dict[tuple, list[tuple[int, ...]]] = {}

    def children(x: tuple[int, ...], j: int) -> list[tuple[int, ...]]:
        key = tuple(map(tuple, _taylor_rows(constraints, gradients, x, j, 1, p)))
        kept = survivors.get(key)
        if kept is None:
            kept = survivors[key] = [
                d
                for d in digits
                # row = (grad f(x), -f(x)/p^j): map stops at d's last digit
                if all((sum(map(operator.mul, row, d)) - row[-1]) % p == 0 for row in key)
            ]
        step = p**j
        return [tuple([c + step * e for c, e in zip(x, d)]) for d in kept]

    def settle(x: tuple[int, ...], j: int, level: int) -> Callable[[int], bool] | None:
        if 2 * j < level:
            return None
        count = lift_counter(constraints, gradients, x, j, level - j, p)
        return lambda i: count(i - j) > 0

    roots = [x for x in digits if not any(f.evaluate(x, p) for f in constraints)]
    return set(_class_search(roots, children, p, m, m + buffer, budget, "image oracle", settle))


# -- critical locus probe -------------------------------------------------------


def jacobian_minors(
    partials: Sequence[Sequence[MPoly]], x: Sequence[int], p: int, j: int
) -> tuple[int, tuple[int, ...] | None]:
    """(e, lam): the l x l Jacobian minors at x, known mod p^j.

    partials[i][k] is the k-th partial of the i-th polynomial: the l - 1
    constraints G first, the target F last.  e is the least valuation of
    the minors mod p^j (j when they all vanish), read off one local Smith
    reduction mod p^j: an entry of least valuation v pivots, G rows first
    on ties, and its column is cleared from the other rows.  These
    invertible row operations keep the ideal of the minors, and as v is
    least the pivot row's other entries clear by column operations that
    touch no other row, so e is the sum of the pivot valuations, capped
    at j.  Each row carries its combination of the G rows.  When some
    (l - 1)-minor of G is a unit, every G row pivots on a unit before F,
    whose row is then grad F - lam . grad G = 0 mod p^e: lam is minus its
    carried part mod p^e, and subtracting lam . G clears F's gradient mod
    p^e along every column.  Otherwise lam is None.
    """
    modulus = p**j
    l, n = len(partials), len(partials[0])
    rows = [
        [df.evaluate(x, modulus) for df in row] + [int(i == k) for k in range(l - 1)]
        for i, row in enumerate(partials)
    ]
    target = rows[-1]
    e = unit_rows = 0  # unit_rows: the G rows that pivot on a unit
    while rows:
        v, bound, pivot = j, modulus, None  # the first entry of least valuation v
        for r, row in enumerate(rows):
            for c in range(n):
                if row[c] % bound:
                    v = int_valuation(row[c], p)
                    bound, pivot = p**v, (r, c)
            if not v:  # a unit: no later row pivots before it
                break
        if pivot is None:  # the rows left vanish mod p^j, and so does every minor
            e = j
            break
        r, c = pivot
        pivot_row = rows.pop(r)
        e += v
        unit_rows += v == 0 and pivot_row is not target
        inverse = pow(pivot_row[c] // bound, -1, modulus)
        for row in rows:
            if row[c]:
                factor = row[c] // bound * inverse % modulus
                row[:] = [(a - factor * b) % modulus for a, b in zip(row, pivot_row)]
    e = min(e, j)
    if unit_rows < l - 1:
        return e, None
    return e, tuple([-a % p**e for a in target[n:]])


class CriticalLocusReport(NamedTuple):
    """Finite-level probe for critical residues of the target on the variety.

    An empty suspect list is evidence (not proof) that the critical
    locus sits inside the target's zero set; the probe can flag false
    suspects whose minors gain valuation at deeper levels, but it never
    misses a genuine critical residue at this level.
    """

    level: int
    suspects: tuple[tuple[int, ...], ...]

    @property
    def clean(self) -> bool:
        return not self.suspects


def critical_locus_probe(
    system: PolySystem, M: int, budget: int = DEFAULT_BUDGET
) -> CriticalLocusReport:
    """List residues mod p^M where all l x l Jacobian minors vanish mod p^M.

    Suspects additionally satisfy the constraints mod p^M and have
    target valuation < M (deeper target zeros are allowed by the
    hypothesis being probed).
    """
    p, n = system.p, system.n
    partials = [[f.partial(j) for j in range(1, n + 1)] for f in system.all_polys()]
    suspects = tuple(
        x
        for x in iter_congruence_points(lifter_for(p, n, system.constraints, budget), M, budget)
        if system.target.evaluate(x, p**M) and jacobian_minors(partials, x, p, M)[0] >= M
    )
    return CriticalLocusReport(level=M, suspects=suspects)
