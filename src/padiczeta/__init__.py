"""Exact computation of congruence counts, local zeta data, and exponential
sums along p-adic submanifolds of Z_p^n, with brute-force oracles and
certified cross-checks at desk scale."""

from .characters import MultChar, chi_value, enumerate_characters, gauss_sum, trivial_character
from .mpoly import MPoly, PolySystem, parse_polynomial, shift_rescale, system_from_strings
from .padic import ScaledUnit
from .ratfn import PoleData, RationalFn, candidate_pole_check, pole_analysis, reconstruct_rational
from .smoothing import dvr_echelon, global_decompose, measure_charts, neron_rescale
from .support import Support
from .variety import (
    FiberCount,
    brute_force_points,
    critical_locus_probe,
    good_reduction_test,
    hensel_enumerate,
)
from .zeta import build_shell_table, conductor_vanishing_scan

__version__ = "0.1.0"

__all__ = [
    "FiberCount",
    "MPoly",
    "MultChar",
    "PoleData",
    "PolySystem",
    "RationalFn",
    "ScaledUnit",
    "Support",
    "brute_force_points",
    "build_shell_table",
    "candidate_pole_check",
    "chi_value",
    "conductor_vanishing_scan",
    "critical_locus_probe",
    "dvr_echelon",
    "enumerate_characters",
    "gauss_sum",
    "global_decompose",
    "good_reduction_test",
    "hensel_enumerate",
    "measure_charts",
    "neron_rescale",
    "parse_polynomial",
    "pole_analysis",
    "reconstruct_rational",
    "shift_rescale",
    "system_from_strings",
    "trivial_character",
]
