"""Value semantics of the package's records after parsing and caching.

Systems, polynomials, supports and characters are cache keys, so two
independently built equal instances must compare equal, hash equally and
hit the same cache entry.  Every record that is immutable stays so: a
field assignment raises AttributeError.  The reprs of polynomials and
systems are what Hypothesis prints for a failing draw, so they keep the
`Name(field=value, ...)` form.
"""

import pytest

from padiczeta import (
    bundled,
    characters,
    expsum,
    mpoly,
    padic,
    poincare,
    ratfn,
    regularize,
    smoothing,
    support,
    variety,
    zeta,
)
from padiczeta.bundled import BAD_LINE, LINE_X2
from padiczeta.characters import enumerate_characters, trivial_character
from padiczeta.errors import Frozen
from padiczeta.mpoly import parse_polynomial, system_from_strings
from padiczeta.padic import ScaledUnit
from padiczeta.ratfn import RationalFn
from padiczeta.smoothing import measure_charts
from padiczeta.support import Support
from padiczeta.variety import DEFAULT_BUDGET, lifter_for

MODULES = (
    bundled,
    characters,
    expsum,
    mpoly,
    padic,
    poincare,
    ratfn,
    regularize,
    smoothing,
    support,
    variety,
    zeta,
)

# the immutable records built as named tuples, by module
NAMED_RECORDS = {
    bundled: ("Instance",),
    expsum: (
        "ExpSumRecord",
        "StationaryPhaseReport",
        "DecayRow",
        "DecayReport",
        "DecompositionIdentityRow",
    ),
    poincare: ("IdentityVerdict", "DecomposedCountRow", "DecomposedCountReport"),
    ratfn: ("PoleData", "CandidateMatch"),
    regularize: ("DeltaApprox", "DeltaLimitRow", "DeltaLimitReport"),
    smoothing: ("EchelonResult", "Decomposition"),
    variety: ("GoodReductionVerdict", "CriticalLocusReport"),
    zeta: ("CoeffTable", "ConductorScan"),
}


def _line_x2(target: str = "x2^2"):
    return system_from_strings(3, 2, ["x1"], target, resolution_data=[(2, 1)])


def test_equal_systems_share_one_decomposition():
    first, second = _line_x2(), _line_x2()
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert first != _line_x2("x2^3")
    measure_charts.cache_clear()
    decomposition = measure_charts(first, DEFAULT_BUDGET)
    assert measure_charts(second, DEFAULT_BUDGET) is decomposition
    info = measure_charts.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_equal_polynomials_share_one_lifter():
    first, second = parse_polynomial("x1 - x2^2", 2), parse_polynomial("-x2^2 + x1", 2)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert first != parse_polynomial("x1 - x2^3", 2)
    lifter_for.cache_clear()
    assert lifter_for(3, 2, (first,)) is lifter_for(3, 2, [second])


def test_equal_supports_share_one_projection():
    first = Support.cosets(2, 2, [(0, 1), (3, 4)], 3)
    second = Support.cosets(2, 2, [(3, 4), (9, 1)], 3)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert first != Support.cosets(2, 1, [(0, 1)], 3)
    Support.projected.cache_clear()
    assert first.projected(3, 1) == second.projected(3, 1)
    info = Support.projected.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_equal_characters_are_one_key():
    first, second = enumerate_characters(3, 2), enumerate_characters(3, 2)
    table = {chi: chi.index for chi in first}
    for chi in second:
        assert table[chi] == chi.index and hash(chi) == hash(first[chi.index])
    assert first[1].inverse().inverse() == first[1] != first[2]
    assert trivial_character(3) == trivial_character(3) != trivial_character(3, 2)


def _frozen_instances():
    system = LINE_X2.system
    return [
        (system.target, "n"),
        (system, "target"),
        (Support.cosets(2, 1, [(0, 1)], 3), "centers"),
        (ScaledUnit(3, 2, 4), "u"),
        (RationalFn.one(), "num"),
        (trivial_character(3), "index"),
        (variety._FpSolver.build(((1, 0),), 3), "kernel"),
        (measure_charts(BAD_LINE.system).charts[0], "L"),
    ]


def test_frozen_classes_refuse_assignment():
    instances = _frozen_instances()
    for instance, field in instances:
        before = getattr(instance, field)
        with pytest.raises(AttributeError):
            setattr(instance, field, None)
        with pytest.raises(AttributeError):
            delattr(instance, field)
        assert getattr(instance, field) is before
    # every immutable class of the package is among them
    frozen = {
        obj
        for module in MODULES
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, Frozen) and obj is not Frozen
    }
    assert frozen == {type(instance) for instance, _ in instances}


def test_named_records_refuse_assignment():
    for module, names in NAMED_RECORDS.items():
        for name in names:
            cls = getattr(module, name)
            record = cls._make(range(len(cls._fields)))
            with pytest.raises(AttributeError):
                setattr(record, cls._fields[0], None)
            assert getattr(record, cls._fields[0]) == 0


def test_polynomial_and_system_reprs():
    assert repr(parse_polynomial("x1 + 2*x2^2", 2)) == "MPoly(n=2, terms={(1, 0): 1, (0, 2): 2})"
    assert repr(LINE_X2.system) == (
        "PolySystem(p=3, n=2, constraints=(MPoly(n=2, terms={(1, 0): 1}),), "
        "target=MPoly(n=2, terms={(0, 2): 1}), resolution_data=((2, 1),))"
    )
