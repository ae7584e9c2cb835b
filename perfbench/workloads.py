"""The benchmark's workloads: lists of `padiczeta` CLI jobs and their inputs.

A job is one `padiczeta <command>` invocation on one problem file.  Its
spec comes either from a shipped file under `scripts/specs/` or from an
instance in `padiczeta.bundled`, with a few fields edited.  Seed 0 runs
those specs unchanged.  Any other seed applies a seed-drawn permutation
of the variables and a small nonzero integer translation x -> x + b to
every spec, and moves coset-support centers with it.  Both maps are
bijections of Z_p^n that preserve Haar measure, so every exact output
(counts, shell measures, chart levels, r0) is the same at every seed and
one committed reference serves them all.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Job:
    name: str
    command: str
    source: str  # "shipped:<file stem>" or "bundled:<attribute name>"
    edits: dict = field(default_factory=dict)  # spec fields to override
    args: tuple[str, ...] = ()  # extra CLI arguments


def _coset(level, centers):
    return {"support": {"type": "cosets", "level": level, "centers": centers}}


WORKLOADS: dict[str, tuple[Job, ...]] = {
    # Twisted stationary-phase route: shallow shell tables with a conductor
    # scan that escalates to c=3 on threevar.  Dominated by the Hensel walk
    # (HenselLifter.children, MPoly.evaluate) inside build_shell_table.
    "formula": (
        Job("threevar_sps", "sps-verify", "shipped:threevar", args=("--max-level", "3")),
        Job("line_x2_p5_sps", "sps-verify", "bundled:LINE_X2_P5", {"max_level": 5}),
        Job(
            "line_x3_coset_sps",
            "sps-verify",
            "bundled:LINE_X3",
            {"max_level": 5, **_coset(2, [[0, 0], [0, 3], [0, 1], [0, 4]])},
        ),
        Job("line_x2_zeta", "zeta", "shipped:line_x2"),
        Job("threevar_zeta", "zeta", "shipped:threevar"),
    ),
    # Bad reduction: chart decomposition through the filtered congruence tree
    # (global_decompose -> iter_congruence_points); shell tables are trivial.
    "charts": (
        Job("bad_line_p5_smooth", "smooth", "bundled:BAD_LINE_P5", {"max_level": 2}),
        Job("bad_line_smooth", "smooth", "shipped:bad_line"),
        Job("bad_line_count", "count", "shipped:bad_line"),
        Job("bad_line_expsum", "expsum", "shipped:bad_line"),
        Job("bad_line_sps", "sps-verify", "shipped:bad_line"),
        Job("bad_line_poincare", "poincare", "shipped:bad_line"),
        Job(
            "bad_line_coset_sps",
            "sps-verify",
            "shipped:bad_line",
            _coset(1, [[0, 0], [1, 1]]),
        ),
    ),
    # Pruned count walks across p = 3, 5, 7, deep trivial-character shell
    # tables (c=1, depth up to 12), rational reconstruction and the delta
    # regularization's ambient walk.
    "series": (
        Job("threevar_count", "count", "shipped:threevar", {"max_level": 9}),
        Job("line_x2_p7_poincare", "poincare", "bundled:LINE_X2_P7", {"max_level": 9}),
        Job("line_x2_p5_poincare", "poincare", "bundled:LINE_X2_P5", {"max_level": 10}),
        Job("line_x3_poincare", "poincare", "bundled:LINE_X3", {"max_level": 12}),
        Job("plane_line_poincare", "poincare", "bundled:PLANE_LINE", {"max_level": 12}),
        Job("threevar_poincare", "poincare", "shipped:threevar"),
        Job("line_x2_delta", "delta-check", "shipped:line_x2", args=("--r-max", "8")),
        Job("parabola_delta", "delta-check", "bundled:PARABOLA", {"max_level": 9}),
    ),
}

# Jobs that exit nonzero today, kept so the defects stay visible: job name
# -> (exit code, reason).  Such a job may exit with this code or with 0 (a
# fix); any other code, and any nonzero code for a job not listed, fails
# the output check.
KNOWN_DEFECTS = {
    "threevar_zeta": (3, "ValidationFailed: depth too shallow, reported as falsified"),
    "bad_line_sps": (3, "formula side is 3x the direct sum on a weighted chart"),
    "bad_line_poincare": (3, "ValidationFailed: depth too shallow, reported as falsified"),
    "threevar_poincare": (3, "ValidationFailed: depth too shallow, reported as falsified"),
}

# Shipped runs deliberately left out of every workload, with the reason.
EXCLUDED = {
    "threevar delta-check": "exits 2 (budget exceeded) after about 93 s, "
    "past the per-run time limit",
}


def base_spec(source: str, root: Path) -> dict:
    """The unedited spec a job starts from."""
    kind, name = source.split(":")
    if kind == "shipped":
        return json.loads((root / "scripts" / "specs" / f"{name}.json").read_text())
    from padiczeta import bundled  # the parent puts src/ on sys.path first

    system = getattr(bundled, name).system
    spec = {
        "schema": 1,
        "p": system.p,
        "n": system.n,
        "constraints": [str(f) for f in system.constraints],
        "target": str(system.target),
    }
    if system.resolution_data is not None:
        spec["resolution_data"] = [list(pair) for pair in system.resolution_data]
    return spec


def _substitute(text: str, perm: list[int], shift: list[int]) -> str:
    """Replace x_k by (x_perm[k] + shift[k]) in a polynomial string."""

    def repl(match: re.Match) -> str:
        k = int(match.group(1)) - 1
        b = shift[k]
        sign = "+" if b >= 0 else "-"
        return f"(x{perm[k] + 1} {sign} {abs(b)})"

    return re.sub(r"x(\d+)", repl, text)


def seed_map(seed: int, job_name: str, n: int) -> tuple[list[int], list[int]]:
    """The seed's variable permutation and translation for one job."""
    rng = random.Random(f"{seed}:{job_name}")
    perm = list(range(n))
    rng.shuffle(perm)
    return perm, [rng.choice((-2, -1, 1, 2)) for _ in range(n)]


def seeded_spec(spec: dict, seed: int, job_name: str) -> dict:
    """Apply the seed's variable permutation and translation to a spec.

    The new variables y relate to the old ones by x_k = y_perm[k] + b_k,
    so a coset center c moves to y_perm[k] = c_k - b_k.
    """
    if seed == 0:
        return spec
    n, p = spec["n"], spec["p"]
    perm, shift = seed_map(seed, job_name, n)
    out = dict(spec)
    out["constraints"] = [_substitute(f, perm, shift) for f in spec["constraints"]]
    out["target"] = _substitute(spec["target"], perm, shift)
    support = spec.get("support")
    if support and support.get("type") == "cosets":
        modulus = p ** support["level"]
        centers = []
        for c in support["centers"]:
            y = [0] * n
            for k in range(n):
                y[perm[k]] = (c[k] - shift[k]) % modulus
            centers.append(y)
        out["support"] = {**support, "centers": centers}
    return out


def job_spec(job: Job, seed: int, root: Path) -> dict:
    spec = {**base_spec(job.source, root), **job.edits}
    return seeded_spec(spec, seed, job.name)
