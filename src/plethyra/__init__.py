"""Exact-arithmetic toolkit for plethysm and ramified branching coefficients.

Everything is computed over exact integers: symmetric functions in the
Schur and power-sum bases, the partition and ramified partition diagram
algebras, and desk-scale Schur-Weyl checks on tensor space.
"""

from plethyra.partitions import (
    MarkedPartition,
    marked_partitions,
    marked_partitions_distinct,
    partitions_no_singletons,
    partitions_of,
    stable_two_row_gf,
    std_tableaux_count,
)
from plethyra.symfunc import SchurPoly, h_eps, g_sym, lr_coefficient, plethysm
from plethyra.coefficients import (
    CoefficientReport,
    cayley_sylvester,
    hook_stable,
    one_row_kappa_stable,
    plethysm_coefficient,
    ramified_branching,
    small_r_stable,
    stable_plethysm,
    tightness_check,
    two_row_stable,
)

__all__ = [
    "CoefficientReport",
    "MarkedPartition",
    "SchurPoly",
    "cayley_sylvester",
    "g_sym",
    "h_eps",
    "hook_stable",
    "lr_coefficient",
    "marked_partitions",
    "marked_partitions_distinct",
    "one_row_kappa_stable",
    "partitions_no_singletons",
    "partitions_of",
    "plethysm",
    "plethysm_coefficient",
    "ramified_branching",
    "small_r_stable",
    "stable_plethysm",
    "stable_two_row_gf",
    "std_tableaux_count",
    "tightness_check",
    "two_row_stable",
]
