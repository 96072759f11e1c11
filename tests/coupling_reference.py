"""Whole-matrix reference for the coupling statistics that the engines stream.

``rebuilt`` builds a config or model record again with some fields
changed, so the new one is checked as any other. ``run_with_paths`` collects a run's recorded states block by block through
``run_coupling``'s ``on_block`` consumer. ``reference_summary`` is the
summary as it was computed from the full replications x lattice matrices:
``p_neq`` as one minus the column means of ``xs == xps``, marginal counts as
column ``bincount``s, and the coupling-time mean and quantiles from the
sorted per-replication coupling steps. ``tv_exact`` is not streamed, so the
reference takes it from the run (``TestGridCoupling`` pins it to the exact
curve).
"""

from __future__ import annotations

import numpy as np

from mcbounds.coupling import CouplingResult, FiniteModel, run_coupling


def rebuilt(record, **changes):
    """``record`` with ``changes``, built and checked again."""
    fields = {name: getattr(record, name) for name in record.__slots__}
    return type(record)(**{**fields, **changes})


def run_with_paths(config):
    """``(result, xs, xps)``: ``run_coupling(config)`` and its recorded
    states, replications x lattice points, gathered from every block."""
    blocks = []

    def keep(first, xs, xps):
        assert first == sum(len(b) for b, _ in blocks)
        blocks.append((xs.copy(), xps.copy()))  # the engine reuses its buffer

    result = run_coupling(config, on_block=keep)
    return result, np.concatenate([b for b, _ in blocks]), np.concatenate([b for _, b in blocks])


def first_coupling_steps(xs, xps):
    """Per replication, the first column at which x == x', -1 if none."""
    eq = xs == xps
    return np.where(eq.any(axis=1), eq.argmax(axis=1), -1)


def coin_opportunities(xs, xps, small_set):
    """Per replication, the lattice steps that flip the Metropolis coin: both
    chains in the small set and apart, before the last point (every lattice
    point recorded)."""
    lo, hi = small_set
    coin = (xs != xps) & (lo <= xs) & (xs <= hi) & (lo <= xps) & (xps <= hi)
    return coin[:, :-1].sum(axis=1)


def reference_summary(config, xs, xps, couple_at, opportunities, tv_exact):
    """The statistics of ``config`` from whole matrices: ``xs``/``xps`` hold its
    recorded lattice points, ``couple_at`` the exact lattice step of coupling
    per replication, ``opportunities`` the coin chances per replication and
    ``tv_exact`` the run's exact distances (None for a continuous chain)."""
    reps = config.replications
    n0 = config.model.certificate().n0
    n_steps = config.n_max // n0
    lattice = tuple(k * n0 for k in range(0, n_steps + 1, config.record_every))
    couple_steps = np.where(couple_at >= 0, couple_at * n0, -1)
    eq = xs == xps
    assert eq.shape[1] == 1 or np.all(~eq[:, :-1] | eq[:, 1:])
    p_neq = 1.0 - eq.mean(axis=0)
    p_se = np.sqrt(p_neq * (1.0 - p_neq) / reps)

    counts = counts_prime = None
    if isinstance(config.model, FiniteModel):
        size = config.model.matrix.size
        counts = tuple(
            tuple(int(c) for c in np.bincount(xs[:, k], minlength=size))
            for k in range(xs.shape[1])
        )
        counts_prime = tuple(
            tuple(int(c) for c in np.bincount(xps[:, k], minlength=size))
            for k in range(xps.shape[1])
        )

    coupled = couple_steps[couple_steps >= 0]
    quantiles = ()
    if coupled.size:
        quantiles = tuple(
            (str(q), float(np.quantile(coupled, q))) for q in (0.5, 0.9, 0.99)
        )
    return CouplingResult(
        mode=config.model.mode(),
        n0=n0,
        lattice=lattice,
        p_neq=tuple(float(v) for v in p_neq),
        p_neq_se=tuple(float(v) for v in p_se),
        tv_exact=tv_exact,
        marginal_counts=counts,
        marginal_counts_prime=counts_prime,
        coupling_time_mean=float(coupled.mean()) if coupled.size else None,
        coupling_time_quantiles=quantiles,
        uncoupled=int(reps - coupled.size),
        opportunities_mean=(
            float(opportunities.mean()) if opportunities is not None else None
        ),
    )


def reference_for(config, small_set=None):
    """``reference_summary`` of ``config``, from the paths of the same run
    recorded at every lattice point and thinned to ``config.record_every``."""
    run, xs, xps = run_with_paths(rebuilt(config, record_every=1))
    opportunities = None if small_set is None else coin_opportunities(xs, xps, small_set)
    every = config.record_every
    tv_exact = None if run.tv_exact is None else run.tv_exact[::every]
    return reference_summary(
        config, xs[:, ::every], xps[:, ::every], first_coupling_steps(xs, xps),
        opportunities, tv_exact,
    )
