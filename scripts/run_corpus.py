#!/usr/bin/env python3
"""Run the whole verification battery over the bundled corpus.

Writes one summary line per (instance, check) and exits nonzero if any
check fails, so the corpus doubles as a regression suite.  Artifacts
(CSV tables per instance) land in the output directory.

Usage: python scripts/run_corpus.py [outdir]
"""

from __future__ import annotations

import csv
import itertools
import sys
import time
from fractions import Fraction
from pathlib import Path

from padiczeta.bundled import (
    BAD_LINE,
    BAD_LINE_P5,
    GOOD_REDUCTION,
    LINE_X2,
    LINE_X2_P2,
    LINE_X2_P5,
    LINE_X3,
    LINE_X4,
    PARABOLA,
    PLANE_LINE,
    THREEVAR,
)
from padiczeta.expsum import decomposed_expsum_check, stationary_phase_check
from padiczeta.mpoly import system_from_strings
from padiczeta.poincare import (
    check_series_zeta_identity,
    congruence_counts,
    decomposed_count_check,
    poincare_series,
)
from padiczeta.ratfn import candidate_pole_check
from padiczeta.regularize import delta_limit_check
from padiczeta.smoothing import global_decompose
from padiczeta.support import Support
from padiczeta.variety import brute_force_points, hensel_enumerate, image_oracle
from padiczeta.zeta import build_shell_table


def main() -> int:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("corpus_out")
    outdir.mkdir(parents=True, exist_ok=True)
    failures = 0
    rows = []

    def record(instance, check, ok, note=""):
        nonlocal failures
        status = "ok" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{status:4} {instance:12} {check:28} {note}")
        rows.append([instance, check, status, note])

    t0 = time.time()
    for instance in GOOD_REDUCTION:
        system = instance.system
        top = 3 if system.n == 3 else 4
        ok = all(
            hensel_enumerate(system, m).count == brute_force_points(system, m).count
            for m in range(1, top)
        )
        record(instance.name, "hensel vs brute", ok)
        # the count walk against the brute-force points where the target vanishes
        brute = [1]
        for m in range(1, top):
            _, points = brute_force_points(system, m, collect=True)
            brute.append(sum(1 for x in points if system.target.evaluate(x, system.p**m) == 0))
        record(instance.name, "counts vs brute force", congruence_counts(system, top - 1) == brute)

    # the shell walk resolves smooth subtrees in closed form, and nodes at the
    # target's critical point mod p^(2j); the Hensel enumeration counts every
    # point of each shell at level m + 2.  The cube x2^3 of line_x3 descends
    # to its critical point
    for instance, depth in ((THREEVAR, 3), (LINE_X3, 6)):
        system = instance.system
        table = build_shell_table(system, depth, c_level=2)
        ok = True
        for m in range(depth + 1):
            fiber = hensel_enumerate(system, m + 2, angular_level=2)
            oracle = {u: count for (v, u), count in fiber.by_shell.items() if v == m}
            scale = system.p ** ((m + 2) * system.dim)
            ok = ok and {u: measure * scale for u, measure in table.measures[m].items()} == oracle
        record(instance.name, "shell table vs Hensel oracle", ok)

    for instance in (LINE_X2, LINE_X3, PARABOLA, PLANE_LINE):
        series = poincare_series(instance.system, 12)
        table = build_shell_table(instance.system, 12)
        zeta_fn = table.trivial_fn()
        record(
            instance.name,
            "series-zeta identity",
            bool(check_series_zeta_identity(series.reconstructed, zeta_fn)),
        )
        if instance.system.resolution_data:
            try:
                candidate_pole_check(zeta_fn, instance.system.resolution_data, instance.system.p)
                record(instance.name, "candidate poles", True)
            except Exception as exc:  # noqa: BLE001 - report and count
                record(instance.name, "candidate poles", False, str(exc)[:50])

    # counts past brute force's reach, where the count walks settle most nodes
    # by the target's slope, against the independent route: P = (1 - t Z) /
    # (1 - t), with Z reconstructed from a shell table two levels deeper
    # (line_x4 and line_x2_p2 are where the slope settles fewest nodes)
    curve = system_from_strings(3, 4, ["x1 - x2*x3", "x4 - x2^2"], "x3^2 + x4^3")
    for name, system, m in (
        (THREEVAR.name, THREEVAR.system, 14),
        ("curve_z3^4", curve, 12),
        (LINE_X4.name, LINE_X4.system, 12),
        (LINE_X2_P2.name, LINE_X2_P2.system, 10),
    ):
        zeta_coeffs = build_shell_table(system, m + 2).trivial_fn().series(m)
        scaled = itertools.accumulate([Fraction(1), *(-z for z in zeta_coeffs)])
        q_dim = system.p**system.dim
        expected = [value * q_dim**k for k, value in enumerate(scaled)]
        record(name, f"counts to m={m} vs zeta", congruence_counts(system, m) == expected)

    # LINE_X2_P5 to m = 20 and threevar to m = 12 lie past what walking
    # each chart to half depth could afford (5^10 and 3^12 nodes in one
    # walk): the direct side descends only the nodes where the target's
    # slope is 0 mod p^j and settles every other subtree on one class.  The
    # bad-reduction lines (L = 2) and the coset supports take the weighted
    # direct side, the oscillatory integral over the charts the support meets
    bad_line_cosets = Support.cosets(2, 1, [(0, 0), (1, 1)], 3)
    line_x3_cosets = Support.cosets(2, 2, [(0, 0), (0, 3), (0, 1), (0, 4)], 3)
    for instance, m_max, support in (
        (LINE_X2, 5, None),
        (LINE_X3, 5, None),
        (THREEVAR, 12, None),
        (PLANE_LINE, 5, None),
        (LINE_X2_P5, 20, None),
        (BAD_LINE, 6, None),
        (BAD_LINE_P5, 5, None),
        (BAD_LINE, 6, bad_line_cosets),
        (LINE_X3, 6, line_x3_cosets),
    ):
        report = stationary_phase_check(instance.system, list(range(1, m_max + 1)), support=support)
        record(
            instance.name,
            "stationary phase" if support is None else "stationary phase on cosets",
            report.max_discrepancy < 1e-9,
            f"m <= {m_max}, max gap {report.max_discrepancy:.2e}",
        )

    # line_x2 as the `delta-check --r-max 8` run of its shipped spec: r = 0..8, depth 10;
    # each instance also at s = 2, and on the level-1 cosets where the target's
    # variable, the last, is 0 or 1 and the others are 0
    for instance, r_max, depth in ((LINE_X2, 8, 10), (PARABOLA, 4, 9), (PLANE_LINE, 4, 9)):
        system = instance.system
        centers = [(0,) * (system.n - 1) + (last,) for last in (0, 1)]
        cosets = Support.cosets(system.n, 1, centers, system.p)
        for check, s, support in (
            ("delta limit", 1, None),
            ("delta limit s=2", 2, None),
            ("delta limit on cosets", 1, cosets),
        ):
            report = delta_limit_check(system, s, list(range(r_max + 1)), depth, support)
            record(instance.name, check, report.passed, f"r0={report.r0}")

    decomposition = global_decompose(BAD_LINE.system)
    ok = all(
        decomposition.image_count(m) == len(image_oracle(BAD_LINE.system, m, 3))
        for m in range(1, 5)
    )
    record(BAD_LINE.name, "image counts vs oracle", ok)
    ms = [decomposition.L + 1, decomposition.L + 2, decomposition.L + 3]
    ok = all(r.gap < 1e-9 for r in decomposed_expsum_check(BAD_LINE.system, ms))
    record(BAD_LINE.name, "expsum decomposition", ok)
    record(BAD_LINE.name, "count decomposition", decomposed_count_check(BAD_LINE.system, ms).exact())

    decomposition = global_decompose(BAD_LINE_P5.system)
    ok = all(
        decomposition.image_count(m) == len(image_oracle(BAD_LINE_P5.system, m, 3))
        for m in (1, 2)
    )
    record(BAD_LINE_P5.name, "image counts vs oracle", ok)

    with open(outdir / "corpus_results.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["instance", "check", "status", "note"])
        writer.writerows(rows)
    print(f"\n{len(rows)} checks, {failures} failures, {time.time() - t0:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
