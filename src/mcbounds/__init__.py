"""Quantitative convergence bounds for Markov chains.

Exact finite-chain analysis (stationary distributions, total variation,
minorization constants, eigenvalue bounds), continuous-state kernels with
numeric drift/minorization verification, analytic bound calculators, and a
seeded coupling simulator that checks the bounds empirically.

The public names below load their module on first use (PEP 562), so importing
the package, or one name from it, loads no more than that name needs.
"""

from importlib import import_module

__version__ = "0.1.0"

# there is no compiled backend: every engine is numpy array code
NUMBA_ENABLED = False

_LAZY = {
    "bounds": (
        "BoundReport",
        "Interval",
        "DriftMinorizationInputs",
        "UnivariateDrift",
        "b_constant",
        "bivariate_from_univariate",
        "optimize_drift_minorization",
        "stationary_moment_bound",
        "steps_to_threshold",
        "sup_rh_via_containment",
        "minorization_bound",
        "minorization_crossing",
        "minorization_curve",
        "drift_minorization_bound",
    ),
    "finite_chain": (
        "EigenBound",
        "MinorizationCert",
        "ProbVector",
        "StochasticMatrix",
        "build_grid_walk",
        "eigen_bound",
        "evolve",
        "exact_tv_curve",
        "matrix_power",
        "minorization_pseudo",
        "minorization_uniform",
        "stationary",
    ),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
