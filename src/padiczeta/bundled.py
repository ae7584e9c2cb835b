"""Bundled desk-scale instances used by the verification suite and scripts.

Each instance is small enough that every identity in the package can be
cross-checked against brute force in seconds, and together they cover:
good and bad reduction, one and two constraints, monomial and mixed
targets, and the primes 2, 3, 5, 7 (p = 2 only in trivial-character
paths).
"""

from __future__ import annotations

from typing import NamedTuple

from .mpoly import PolySystem, system_from_strings


class Instance(NamedTuple):
    name: str
    system: PolySystem
    good_reduction: bool
    notes: str = ""


def _make(name, p, n, constraints, target, data=None, good=True, notes=""):
    return Instance(
        name=name,
        system=system_from_strings(p, n, constraints, target, resolution_data=data),
        good_reduction=good,
        notes=notes,
    )


LINE_X1 = _make("line_x1", 3, 2, ["x1"], "x2", data=[(1, 1)], notes="coordinate line, linear target")
LINE_X2 = _make("line_x2", 3, 2, ["x1"], "x2^2", data=[(2, 1)], notes="coordinate line, square target")
LINE_X3 = _make("line_x3", 3, 2, ["x1"], "x2^3", data=[(3, 1)])
LINE_X4 = _make("line_x4", 3, 2, ["x1"], "x2^4", data=[(4, 1)])
PARABOLA = _make("parabola", 3, 2, ["x1 - x2^2"], "x2", data=[(1, 1)], notes="curved constraint")
THREEVAR = _make(
    "threevar",
    3,
    3,
    ["x1 - x2*x3"],
    "x2^2 + x3^3",
    notes="surface in three variables, cusp target",
)
PLANE_LINE = _make(
    "plane_line", 3, 3, ["x1", "x2"], "x3^2", data=[(2, 1)], notes="two constraints"
)
BAD_LINE = _make(
    "bad_line",
    3,
    2,
    ["3*x1 - 9*x2"],
    "x2^2",
    data=[(2, 1)],
    good=False,
    notes="constraint gradient vanishes mod 3; rescale level L = 2",
)
BAD_LINE_P5 = _make(
    "bad_line_p5",
    5,
    2,
    ["5*x1 - 25*x2"],
    "x2^2",
    data=[(2, 1)],
    good=False,
    notes="p = 5 twin of bad_line",
)
LINE_X2_P2 = _make("line_x2_p2", 2, 2, ["x1"], "x2^2", data=[(2, 1)], notes="p = 2, trivial twists only")
LINE_X2_P5 = _make("line_x2_p5", 5, 2, ["x1"], "x2^2", data=[(2, 1)])
LINE_X2_P7 = _make("line_x2_p7", 7, 2, ["x1"], "x2^2", data=[(2, 1)])

GOOD_REDUCTION = (LINE_X1, LINE_X2, LINE_X3, LINE_X4, PARABOLA, THREEVAR, PLANE_LINE, LINE_X2_P5)
BAD_REDUCTION = (BAD_LINE, BAD_LINE_P5)
ALL = GOOD_REDUCTION + BAD_REDUCTION + (LINE_X2_P2, LINE_X2_P7)
