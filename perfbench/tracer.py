"""Call tracing for the benchmark's traced runs, installed from outside the program.

`install()` wraps the public functions listed in TARGETS and rebinds
every by-name reference to them in every loaded `padiczeta` module, so
`from .padic import int_valuation` inside zeta.py is counted as well.
Each wrapped call pushes a frame on one stack.  When it returns, its
inclusive time is added to the function's totals and to its parent
frame's child time; self time is inclusive time minus the time spent in
wrapped callees.  Frames are folded into per-function totals as they
close, so memory stays flat however many calls a job makes.  The hot
leaves in LEAVES (millions of calls per workload) call no wrapped
function and push no frame: their time goes straight into the
enclosing frame.

A generator is timed per resumption: each `next()` counts as a span
under whichever frame consumed it, so the consumer's own time between
items is not charged to the generator.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

TARGETS = {
    "mpoly": ("MPoly.evaluate", "MPoly.substitute_affine"),
    "padic": ("int_valuation", "psi_ratio"),
    "characters": ("chi_value", "gauss_sum"),
    "variety": (
        "HenselLifter.children",
        "HenselLifter.__init__",
        "iter_congruence_points",
        "iter_hensel_points",
        "image_oracle",
        "critical_locus_probe",
        "good_reduction_test",
    ),
    "smoothing": (
        "measure_charts",
        "global_decompose",
        "neron_rescale",
        "dvr_echelon",
        "Decomposition.image_count",
        "verify_certificate",
    ),
    "zeta": ("build_shell_table", "conductor_vanishing_scan", "tail_measure", "coefficient_table"),
    "ratfn": ("reconstruct_rational", "pole_analysis", "candidate_pole_check"),
    "expsum": (
        "exponential_sum",
        "oscillatory_integral",
        "build_stationary_phase_context",
        "stationary_phase_eval",
    ),
    "poincare": ("congruence_count", "poincare_series", "check_series_zeta_identity"),
    "regularize": ("delta_integral", "delta_limit_check"),
    "cli": ("load_problem",),
}

LEAVES = {"mpoly.MPoly.evaluate", "padic.int_valuation", "padic.psi_ratio", "characters.chi_value"}


def metric_key(module: str, qualname: str) -> str:
    return f"{module}.{qualname.replace('__init__', 'init')}"


class Stat:
    __slots__ = ("calls", "self_s", "yielded", "raised", "rows")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.yielded = 0
        self.raised = 0
        self.rows = 0  # shell-table rows built (build_shell_table only)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class Tracer:
    def __init__(self):
        # Each frame is a one-element list holding the wrapped-callee time.
        self.stack = [[0.0]]
        self.stats: dict[str, Stat] = {}
        self.originals: dict[str, object] = {}

    # -- wrappers ------------------------------------------------------------

    def _leaf(self, fn, stat: Stat):
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stat.calls += 1
                stat.self_s += dt
                stack[-1][0] += dt

        return wrapper

    def _call(self, fn, stat: Stat, counts_rows: bool = False):
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stat.raised += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stat.calls += 1
                stat.self_s += dt - frame[0]
                stack[-1][0] += dt
            if counts_rows:
                stat.rows += result.depth + 1
            return result

        return wrapper

    def _generator(self, fn, stat: Stat):
        stack = self.stack

        def drive(gen):
            try:
                while True:
                    frame = [0.0]
                    stack.append(frame)
                    t0 = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    except Exception:
                        stat.raised += 1
                        raise
                    finally:
                        dt = perf_counter() - t0
                        stack.pop()
                        stat.self_s += dt - frame[0]
                        stack[-1][0] += dt
                    stat.yielded += 1
                    yield item
            finally:
                gen.close()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return drive(fn(*args, **kwargs))

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        replacements = {}  # id(original) -> wrapper
        for module_name, names in TARGETS.items():
            module = sys.modules[f"padiczeta.{module_name}"]
            for qualname in names:
                key = metric_key(module_name, qualname)
                owner = module
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = owner.__dict__[attr] if path else getattr(owner, attr)
                stat = self.stats[key] = Stat()
                if key in LEAVES:
                    wrapper = self._leaf(fn, stat)
                elif inspect.isgeneratorfunction(fn):
                    wrapper = self._generator(fn, stat)
                else:
                    wrapper = self._call(fn, stat, counts_rows=key == "zeta.build_shell_table")
                self.originals[key] = fn
                replacements[id(fn)] = wrapper
                if path:
                    setattr(owner, attr, wrapper)
        # Rebind every module-level name that refers to a wrapped function,
        # including the by-name imports in other modules.
        for module in _padiczeta_modules():
            for name, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    setattr(module, name, wrapper)

    def unwrapped_references(self) -> list[str]:
        """Places in loaded padiczeta modules that still hold an original."""
        originals = {id(fn) for fn in self.originals.values()}
        found = []
        for module in _padiczeta_modules():
            for name, value in vars(module).items():
                if id(value) in originals:
                    found.append(f"{module.__name__}.{name}")
                if isinstance(value, dict):
                    found += [
                        f"{module.__name__}.{name}[{k!r}]"
                        for k, v in value.items()
                        if id(v) in originals
                    ]
                if inspect.isclass(value) and value.__module__ == module.__name__:
                    found += [
                        f"{module.__name__}.{name}.{attr}"
                        for attr, v in vars(value).items()
                        if id(v) in originals
                    ]
        return found

    def snapshot(self) -> dict:
        stats = {key: stat.as_dict() for key, stat in self.stats.items()}
        info = self.originals["smoothing.measure_charts"].cache_info()
        stats["smoothing.measure_charts"].update(hits=info.hits, misses=info.misses)
        return stats


def _padiczeta_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if (name == "padiczeta" or name.startswith("padiczeta.")) and module is not None
    ]
