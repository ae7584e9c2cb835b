"""Structure guards over the source of the package.

Every enumeration of the Hensel lift tree goes through `variety.walk`.
These tests fail when a module expands lift-tree nodes itself (a call to
`.children(`), keeps its own work stack (a while loop that pops and
pushes the same list), or recurses (a function that calls itself), so
the walk cannot fork into private copies again.  Lifters come from one
memo: the only `HenselLifter(...)` call is the one inside it, so no
module builds a private lifter again.  Every walk has one visit
protocol: `visit(x, j)` returns PRUNE, DESCEND or a value for the whole
subtree, so `walk` takes no `state` to hand open work down the tree.
The linear-system lift counts (`lift_counter`) serve only
the ambient walk and the image oracle.  One walk settles subtrees by
the target's slope: `_slopes` has the one caller `value_classes`, and
no second tally walk is defined.
The delta regularization integrates the trivial character alone: it
imports nothing from `characters` and takes no `chi` or `angular`.
Only `variety.walk` charges a budget meter: no other code writes a
meter's `used` count, so the budget bounds the nodes the walks visit,
not the counts they return.
A chart is built from the Jacobian at its center: constraint
polynomials are expanded only through `mpoly.shift_rescale`, the target
once in `neron_rescale` and once in `recenter`, and the echelon carries
its transform, so no module logs row operations to replay them.
Invariants raise typed errors: an `assert` statement, which
`python -O` strips, fails the suite.  A module's private names stay its own: no module imports an
`_`-prefixed name from another.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "padiczeta"

# self-recursive functions that do not walk a lift tree
RECURSION_ALLOWED = {
    ("ratfn.py", "search"),  # candidate-pole multiplicity search
}


def _modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text())


def _functions(tree):
    return [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _method_calls(node, attr):
    return [
        n
        for n in ast.walk(node)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == attr
    ]


def _receivers(node, attrs):
    return {
        call.func.value.id
        for attr in attrs
        for call in _method_calls(node, attr)
        if isinstance(call.func.value, ast.Name)
    }


def _stack_loops(fn):
    """While loops in fn that pop from and push onto the same list."""
    return [
        loop
        for loop in ast.walk(fn)
        if isinstance(loop, ast.While)
        and _receivers(loop, ["pop"]) & _receivers(loop, ["append", "extend"])
    ]


def _calls_itself(fn):
    return any(
        isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == fn.name
        for n in ast.walk(fn)
    )


def _enclosing(tree, node):
    """Names of the functions whose bodies contain node."""
    return [fn.name for fn in _functions(tree) if node in ast.walk(fn)]


def test_only_variety_expands_lift_tree_nodes():
    offenders = [
        f"{name}:{call.lineno}"
        for name, tree in _modules()
        if name != "variety.py"
        for call in _method_calls(tree, "children")
    ]
    assert offenders == [], "lift-tree nodes expanded outside variety.walk"


def test_variety_expands_nodes_only_for_the_walk():
    tree = dict(_modules())["variety.py"]
    # the truncated tree lifts below level r and hands its children to walk
    for call in _method_calls(tree, "children"):
        assert "truncated_tree" in _enclosing(tree, call), call.lineno


def test_only_the_memo_builds_lifters():
    builds = [
        (name, _enclosing(tree, call))
        for name, tree in _modules()
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        and getattr(call.func, "id", getattr(call.func, "attr", None)) == "HenselLifter"
    ]
    assert builds == [("variety.py", ["_build_lifter"])], "a lifter built outside lifter_for"


def test_exactly_one_walk_loop():
    loops = [
        (name, fn.name)
        for name, tree in _modules()
        for fn in _functions(tree)
        if _stack_loops(fn)
    ]
    assert loops == [("variety.py", "walk")]


def test_every_walk_has_one_visit_protocol():
    # a node settles or descends whole: walk threads no per-node state
    # from a node to its children, and no caller hands it one
    (walk,) = [fn for fn in _functions(dict(_modules())["variety.py"]) if fn.name == "walk"]
    params = [arg.arg for arg in [*walk.args.posonlyargs, *walk.args.args, *walk.args.kwonlyargs]]
    assert "state" not in params, params
    calls = [
        (name, call)
        for name, tree in _modules()
        for call in ast.walk(tree)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "walk"
    ]
    assert calls, "no walk call found"
    offenders = [
        f"{name}:{call.lineno}"
        for name, call in calls
        if len(call.args) > len(params) or any(kw.arg == "state" for kw in call.keywords)
    ]
    assert offenders == [], "a walk call hands on a state"


def _scope(tree, node):
    """Dotted name of the classes and functions whose bodies contain node."""
    scopes = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return ".".join(s.name for s in ast.walk(tree) if isinstance(s, scopes) and node in ast.walk(s))


def test_no_visit_charges_the_meter():
    # walk charges one node per visit, and no other code writes the count:
    # not a visit callback, whose charge walk would overwrite, and not a
    # consumer charging nodes it counted without visiting them
    writes = [
        (name, _scope(tree, node), node.lineno)
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "used" and isinstance(node.ctx, ast.Store)
    ]
    allowed = {("variety.py", "walk"), ("variety.py", "BudgetMeter.__init__")}
    offenders = [f"{name}:{line}" for name, scope, line in writes if (name, scope) not in allowed]
    assert offenders == [], "a meter charged outside variety.walk"


def test_lift_counts_serve_only_the_independent_routes():
    # the linear-system counts of a node's lifts serve the two routes that
    # share nothing with the chart tallies, the ambient walk of the delta
    # integrals and the image oracle; the tallies count by the target's slope
    callers = {
        (name, _scope(tree, call).split(".")[0])
        for name, tree in _modules()
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        and getattr(call.func, "id", getattr(call.func, "attr", None)) == "lift_counter"
    }
    assert callers == {("regularize.py", "_ambient_walk"), ("variety.py", "image_oracle")}


def test_one_walk_settles_by_the_slope():
    # counts, tail measures, recounts and direct sums all read the classes
    # of value_classes, the only code that reads the target's slope
    callers = [
        (name, _scope(tree, call))
        for name, tree in _modules()
        for call in ast.walk(tree)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_slopes"
    ]
    assert callers == [("variety.py", "value_classes")]
    assert "tally_zeros" not in {fn.name for _, tree in _modules() for fn in _functions(tree)}


def test_delta_regularization_integrates_the_trivial_character():
    # no command asks for a twisted integrand chi(ac f) |f|^s, so the
    # regularization neither reads characters nor threads an angular level
    tree = dict(_modules())["regularize.py"]
    imports = {
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module is not None
    }
    assert "characters" not in imports and "padiczeta.characters" not in imports
    params = {
        (fn.name, arg.arg)
        for fn in _functions(tree)
        for arg in [*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs]
        if arg.arg in ("chi", "angular")
    }
    assert params == set(), params


def test_constraints_are_expanded_only_by_shift_rescale():
    # the echelon at a center comes from the Jacobian there, not from a
    # translated copy of each constraint, and each combined constraint is
    # shifted and rescaled in one substitution
    calls = sorted(
        (name, _scope(tree, call), ast.unparse(call.func.value))
        for name, tree in _modules()
        for call in _method_calls(tree, "substitute_affine")
    )
    assert calls == [
        ("mpoly.py", "shift_rescale", "f"),
        ("smoothing.py", "neron_rescale", "system.target"),
        ("smoothing.py", "recenter", "system.target"),
    ]


def _identifiers(node):
    for attr in ("id", "attr", "arg", "name"):
        value = getattr(node, attr, None)
        if isinstance(value, str):
            yield value


def test_no_module_logs_row_operations():
    # dvr_echelon carries each row's combination of the input rows, so
    # no module records row operations or replays them on polynomials
    logs = [
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Constant) and node.value in ("rswap", "rcomb"))
        or any(re.search("row_?op", ident, re.IGNORECASE) for ident in _identifiers(node))
    ]
    assert logs == [], "a row-operation log"


def test_no_hand_rolled_recursion():
    recursive = {
        (name, fn.name)
        for name, tree in _modules()
        for fn in _functions(tree)
        if _calls_itself(fn)
    }
    assert recursive <= RECURSION_ALLOWED, recursive - RECURSION_ALLOWED


def test_no_assert_statements():
    asserts = [
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert asserts == [], "invariants must raise a PadicZetaError, not assert"


def test_no_private_cross_module_imports():
    offenders = [
        f"{name}:{node.lineno} {alias.name}"
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("padiczeta"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert offenders == [], "private names imported from another module"
