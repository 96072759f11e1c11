"""Seeded Monte Carlo simulation of the coupling constructions."""

from .runner import (
    CouplingConfig,
    CouplingResult,
    TvEstimate,
    empirical_tv,
    run_small_set_coupling,
    run_uniform_coupling,
)

__all__ = [
    "CouplingConfig",
    "CouplingResult",
    "TvEstimate",
    "empirical_tv",
    "run_small_set_coupling",
    "run_uniform_coupling",
]
