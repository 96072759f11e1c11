"""Continuous-state chains and numeric condition verification."""

from .chains import (
    HALFLINE_OVERLAP_EPSILON,
    Kernel,
    RWM_OVERLAP_EPSILON,
    RWM_SMALL_SET,
    RWM_STEP_RADIUS,
    TargetDensity,
    halfline_mixture_kernel,
    point_process_overlap,
    metropolis_point_process,
    metropolis_rwm_laplace,
)
from .verify import (
    MAX_DRIFT_POINTS,
    MAX_PROBE_PAIRS,
    DriftVerificationReport,
    MinorizationVerificationReport,
    containment_escape_mass,
    expected_value_after_step,
    two_step_density,
    verify_minorization_numeric,
    verify_univariate_drift,
)

__all__ = [
    "HALFLINE_OVERLAP_EPSILON",
    "Kernel",
    "RWM_OVERLAP_EPSILON",
    "RWM_SMALL_SET",
    "RWM_STEP_RADIUS",
    "TargetDensity",
    "halfline_mixture_kernel",
    "point_process_overlap",
    "metropolis_point_process",
    "metropolis_rwm_laplace",
    "MAX_DRIFT_POINTS",
    "MAX_PROBE_PAIRS",
    "DriftVerificationReport",
    "MinorizationVerificationReport",
    "containment_escape_mass",
    "expected_value_after_step",
    "two_step_density",
    "verify_minorization_numeric",
    "verify_univariate_drift",
]
