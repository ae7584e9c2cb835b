"""Exact outputs of a job, compared against the committed reference.

Only exact columns are compared: N_m in counts.csv, exact_num and
exact_den in zeta_*.csv, the (m, u) rows of expsum.csv, the chart level
and chart count of `smooth`, and r0 of `delta-check`.  Float columns are
left out on purpose; they change whenever a route's floating-point
evaluation is corrected.

A job that exits with its known-defect code must also show that defect's
signature (`failure_signature`): the CLI's error line, which for a
too-shallow Poincare series carries the raw counts, and the summary's
`passed` flag.  Another failure that happens to share the exit code does
not pass for the known one.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

SUMMARY_FIELDS = {"smooth": ("level", "charts"), "delta-check": ("r0",)}


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def exact_outputs(command: str, out: Path) -> dict:
    """Exact values keyed by file, then by row (m as a string) or field."""
    found = {}
    counts = out / "counts.csv"
    if counts.exists():
        found["counts.csv"] = {row["m"]: row["N_m"] for row in _rows(counts)}
    for path in sorted(out.glob("zeta_*.csv")):
        found[path.name] = {
            row["m"]: [row["exact_num"], row["exact_den"]] for row in _rows(path)
        }
    expsum = out / "expsum.csv"
    if expsum.exists():
        units: dict[str, list[str]] = {}
        for row in _rows(expsum):
            units.setdefault(row["m"], []).append(row["u"])
        found["expsum.csv"] = units
    fields = SUMMARY_FIELDS.get(command)
    summary = out / "summary.json"
    if fields and summary.exists():
        payload = json.loads(summary.read_text())
        found["summary.json"] = {name: payload.get(name) for name in fields}
    return found


def failure_signature(out: Path, log: Path) -> dict:
    """The job's last `error:` line and its summary's `passed` flag (None if absent)."""
    errors = [line for line in log.read_text().splitlines() if line.startswith("error: ")]
    summary = out / "summary.json"
    return {
        "error": errors[-1] if errors else None,
        "passed": json.loads(summary.read_text()).get("passed") if summary.exists() else None,
    }


def mismatches(reference: dict, found: dict) -> list[str]:
    """Every reference value that is missing or different in `found`.

    Rows beyond the reference (a deeper table) are not an error.
    """
    problems = []
    for file, expected in reference.items():
        actual = found.get(file)
        if actual is None:
            problems.append(f"{file} missing")
            continue
        for key, value in expected.items():
            if actual.get(key) != value:
                problems.append(f"{file}[{key}] = {actual.get(key)!r}, expected {value!r}")
    return problems


def csv_digests(out: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.glob("*.csv"))
    }
