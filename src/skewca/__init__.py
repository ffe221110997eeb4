"""Correspondence analysis of departures from symmetry in square contingency tables.

The package namespace holds the names the README's examples and the
scripts use; everything else is imported from its submodule.
"""

from .confidence import confidence_regions
from .decomposition import decompose, origin_distances, scan_lambda, skew_from_profile, skew_matrix
from .divergence import asymmetry_measure
from .matched import build_matched
from .reporting import AnalysisConfig, run_analyze, run_matched, run_scan
from .table import validate_table

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "asymmetry_measure",
    "build_matched",
    "confidence_regions",
    "decompose",
    "origin_distances",
    "run_analyze",
    "run_matched",
    "run_scan",
    "scan_lambda",
    "skew_from_profile",
    "skew_matrix",
    "validate_table",
]
