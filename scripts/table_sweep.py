#!/usr/bin/env python3
"""Fingerprint shell tables and conductor scans over a fixed sweep, with no timings.

The sweep covers every bundled system and four more (a curved
bad-reduction line, the cusp surface, a curve cut out by two constraints
and a 27-chart line with rescaling level 3), each on the unit polydisc
and on one coset support at level 1 and at level 2 (centers: the first
and last residues, in lexicographic order, where every constraint
vanishes mod p^level).  On each, at two
depths (3 and 8, or 3 and 5 past two variables), it builds the shell
tables at angular levels c = 1..3 and runs the conductor scan from
c_max = 1.  OUTDIR/sweep.json records per case the repr of the
result (the table's level, depth and measures; the scan's cutoff, its
nonzero characters and its table), or of the error raised, together with
the stage and `used` count of every budget meter the zeta module made,
so it shows the nodes each walk visited.  Two versions of the package
agree on the sweep exactly when their files are equal: diff them as the
manifests of `scripts/cli_matrix.py`.

Usage: python scripts/table_sweep.py OUTDIR
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

from padiczeta import zeta
from padiczeta.bundled import ALL
from padiczeta.errors import PadicZetaError
from padiczeta.mpoly import system_from_strings
from padiczeta.support import Support

EXTRA = {
    "curve": system_from_strings(3, 2, ["3*x1 + 3*x2^2"], "x2^2 - x2"),
    "cusp_surface": system_from_strings(3, 4, ["x1 - x2*x3*x4"], "x2^2 + x3^3 + x4^5"),
    "two_constraint_curve": system_from_strings(3, 4, ["x1 - x2*x3", "x4 - x2^2"], "x3^2 + x4^3"),
    "level3_line": system_from_strings(3, 2, ["9*x1 - 27*x2"], "x2^2"),
}


def coset_support(system, level):
    """Cosets at the first and last residues mod p^level where every constraint vanishes."""
    modulus = system.p**level
    hits = [
        x
        for x in itertools.product(range(modulus), repeat=system.n)
        if all(g.evaluate(x, modulus) == 0 for g in system.constraints)
    ]
    return Support.cosets(system.n, level, [hits[0], hits[-1]], system.p)


def table_repr(table):
    return repr((table.c_level, table.depth, table.measures))


def scan_repr(scan):
    nonzero = [(chi.c_level, chi.index, chi.conductor) for chi in scan.nonzero]
    return f"{scan.cutoff!r} {nonzero!r} {table_repr(scan.table)}"


def cases(system, depth, support):
    """(label, thunk) per table and scan of one (system, support)."""
    for c in (1, 2, 3):
        yield f"table c={c}", lambda c=c: table_repr(zeta.build_shell_table(system, depth, c, support))
    yield "scan c_max=1", lambda: scan_repr(zeta.conductor_vanishing_scan(system, 1, depth, support))


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 1
    outdir = Path(sys.argv[1])
    outdir.mkdir(parents=True, exist_ok=True)
    meters = []

    class RecordingMeter(zeta.BudgetMeter):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            meters.append(self)

    zeta.BudgetMeter = RecordingMeter
    systems = {instance.name: instance.system for instance in ALL} | EXTRA
    sweep = {}
    for name, system in systems.items():
        for depth, level in itertools.product((3, 8 if system.n == 2 else 5), (0, 1, 2)):
            support = coset_support(system, level) if level else None
            for label, thunk in cases(system, depth, support):
                meters.clear()
                try:
                    text = thunk()
                except PadicZetaError as exc:
                    text = f"{type(exc).__name__}: {exc}"
                key = f"{name} depth={depth} support={level} {label}"
                sweep[key] = {"result": text, "walks": [[m.stage, m.used] for m in meters]}
                print(f"{key:48} {len(meters):3} walks {sum(m.used for m in meters):7} nodes")
    (outdir / "sweep.json").write_text(json.dumps(sweep, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
