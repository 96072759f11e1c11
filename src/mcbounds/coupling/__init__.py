"""Seeded Monte Carlo simulation of the coupling constructions."""

from .runner import (
    CouplingConfig,
    CouplingResult,
    TvEstimate,
    empirical_tv,
    run_coupling,
)

__all__ = [
    "CouplingConfig",
    "CouplingResult",
    "TvEstimate",
    "empirical_tv",
    "run_coupling",
]
