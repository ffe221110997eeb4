"""Correspondence analysis of departures from symmetry in square contingency tables."""

from .chisquare import chi_square_cdf, chi_square_quantile
from .confidence import ConfidenceRegion, confidence_regions
from .decomposition import (
    LambdaScanResult,
    PairedSVD,
    SkewMatrix,
    SymmetryDecomposition,
    block_rotation_matrix,
    decompose,
    default_lambda_grid,
    metric_weights,
    origin_distances,
    paired_svd,
    scan_lambda,
    skew_from_profile,
    skew_matrix,
)
from .divergence import (
    NAMED_DIVERGENCES,
    AsymmetryProfile,
    BowkerResult,
    asymmetry_measure,
    bowker_statistic,
    cell_departure,
    power_divergence_scale,
    power_divergence_statistic,
)
from .matched import (
    DimensionClass,
    MatchedAnalysis,
    MatchedCoordinates,
    build_matched,
    matched_coordinates,
)
from .reporting import (
    AnalysisConfig,
    AnalysisReport,
    render_report,
    resolve_lambda,
    run_analyze,
    run_bowker,
    run_matched,
    run_scan,
)
from .svg import render_svg_plot
from .table import (
    ContingencyTable,
    ProbabilityTable,
    to_probabilities,
    validate_table,
)
from .tableio import (
    load_table,
    parse_table_csv,
    parse_table_json,
    serialize_table_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "AnalysisReport",
    "AsymmetryProfile",
    "BowkerResult",
    "ConfidenceRegion",
    "ContingencyTable",
    "DimensionClass",
    "LambdaScanResult",
    "MatchedAnalysis",
    "MatchedCoordinates",
    "NAMED_DIVERGENCES",
    "PairedSVD",
    "ProbabilityTable",
    "SkewMatrix",
    "SymmetryDecomposition",
    "asymmetry_measure",
    "block_rotation_matrix",
    "bowker_statistic",
    "build_matched",
    "cell_departure",
    "chi_square_cdf",
    "chi_square_quantile",
    "confidence_regions",
    "decompose",
    "default_lambda_grid",
    "load_table",
    "matched_coordinates",
    "metric_weights",
    "origin_distances",
    "paired_svd",
    "parse_table_csv",
    "parse_table_json",
    "power_divergence_scale",
    "power_divergence_statistic",
    "render_report",
    "render_svg_plot",
    "resolve_lambda",
    "run_analyze",
    "run_bowker",
    "run_matched",
    "run_scan",
    "scan_lambda",
    "serialize_table_csv",
    "skew_from_profile",
    "skew_matrix",
    "to_probabilities",
    "validate_table",
]
