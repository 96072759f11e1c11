"""Seeded Monte Carlo simulation of the coupling constructions."""

from .runner import ChainModel, CouplingConfig, CouplingResult, FiniteModel, run_coupling

__all__ = ["ChainModel", "CouplingConfig", "CouplingResult", "FiniteModel", "run_coupling"]
