"""Quantitative convergence bounds for Markov chains.

Exact finite-chain analysis (stationary distributions, total variation,
minorization constants, eigenvalue bounds), continuous-state kernels with
numeric drift/minorization verification, analytic bound calculators, and a
seeded coupling simulator that checks the bounds empirically.
"""

from .bounds import (
    BivariateDrift,
    BoundReport,
    Interval,
    DriftMinorizationInputs,
    UnivariateDrift,
    b_constant,
    bivariate_from_univariate,
    optimize_drift_minorization,
    stationary_moment_bound,
    steps_to_threshold,
    sup_rh_via_containment,
    minorization_bound,
    minorization_curve,
    drift_minorization_bound,
)
from .finite_chain import (
    EigenBound,
    MinorizationCert,
    ProbVector,
    StochasticMatrix,
    build_grid_walk,
    eigen_bound,
    evolve,
    exact_tv_curve,
    matrix_power,
    minorization_pseudo,
    minorization_uniform,
    stationary,
    tv_distance,
)

__version__ = "0.1.0"

# there is no compiled backend: every engine is numpy array code
NUMBA_ENABLED = False
