"""Seeded Monte Carlo simulation of the coupling constructions."""

from .runner import (
    CouplingConfig,
    CouplingResult,
    run_coupling,
)

__all__ = [
    "CouplingConfig",
    "CouplingResult",
    "run_coupling",
]
