"""Bivariate means, their hyperbolic kernels, and sharp bound verification."""

from .kernels import (
    curvature_coefficient,
    curvature_kernel,
    log_gap,
    log_gap_slope,
    slope_kernel,
)
from .means import (
    MeanKind,
    eval_mean,
    growth_offset,
    half_log_ratio,
    log_mean_normalized,
    parse_mean,
    quadratic_coefficient,
)
from .series import power_bound_certificate
from .solver import (
    EndpointReport,
    SharpConstantTable,
    best_exponent,
    chain_margins,
    chain_table,
    constants_table,
    find_witness,
    gap_peak,
    literature_endpoints,
    peak_ratio,
    sharp_factor,
    sharp_lower_exponent,
    squeeze_margins,
    verify_chain,
    verify_seiffert_lehmer,
    verify_squeeze,
)

__version__ = "0.1.0"

__all__ = [
    "EndpointReport",
    "MeanKind",
    "SharpConstantTable",
    "best_exponent",
    "chain_margins",
    "chain_table",
    "constants_table",
    "curvature_coefficient",
    "curvature_kernel",
    "eval_mean",
    "find_witness",
    "gap_peak",
    "growth_offset",
    "half_log_ratio",
    "literature_endpoints",
    "log_gap",
    "log_gap_slope",
    "log_mean_normalized",
    "parse_mean",
    "peak_ratio",
    "power_bound_certificate",
    "quadratic_coefficient",
    "sharp_factor",
    "sharp_lower_exponent",
    "slope_kernel",
    "squeeze_margins",
    "verify_chain",
    "verify_seiffert_lehmer",
    "verify_squeeze",
    "__version__",
]
