"""Lockstep trajectory engines for the coupling simulator.

Randomness contract: replications are cut into blocks of ``BLOCK``
consecutive replications. Block b draws from its own ``np.random.Generator``
seeded by child b of ``SeedSequence(master_seed).spawn(...)``, and all pairs
of a block advance together, one array operation per step. Output is a
function of the master seed, the config and ``BLOCK``. Child b does not depend
on how many children are spawned, so a run with more replications repeats
every full block of a run with fewer.

Construction per lattice step, given the overlap constant eps at lag n0:
chains already equal move together; unequal chains inside the small set flip
an eps-coin (heads: both jump to a shared overlap draw; tails: independent
residual draws); chains outside the small set update independently.

Every engine returns ``(xs, xps, couple_at, ...)``: the states at the
recorded lattice steps (step k is recorded in slot k // record_every when
record_every divides k) and the exact lattice step at which each pair first
coincides, -1 if it never does within the run.
"""

from __future__ import annotations

import numpy as np

from ..errors import MathError
from ..kernels.laws import (
    hl_density,
    hl_nu_density,
    hl_stationary,
    hl_step,
    rwm_nu_density,
    rwm_stationary,
    rwm_step,
    rwm_two_step_density,
    rwm_two_steps,
)

# replications per Generator stream; changing it changes every seeded output
BLOCK = 4096

# recorded pair states per run, replications x (lattice steps // record_every
# + 1): the two recorded arrays take 16 bytes a state as float64 (8 as the
# finite chain's int32), so the cap keeps them within 1 GiB; the defaults
# record 610 000 states
MAX_RECORDED_STATES = 1 << 26

# a residual sampler accepts each proposal with probability 1 - eps >= 1/2
# under the certified overlaps, so a pair still pending after this many
# rounds means the residual law is not what the certificate promises
MAX_REDRAW_ROUNDS = 100


def _blocks(master_seed: int, replications: int):
    """(rows, generator) per block of replications, in order."""
    children = np.random.SeedSequence(master_seed).spawn(-(-replications // BLOCK))
    for b, child in enumerate(children):
        yield slice(b * BLOCK, min((b + 1) * BLOCK, replications)), np.random.default_rng(child)


class _Paths:
    """Recorded states and first coupling steps of every replication."""

    def __init__(self, replications: int, n_steps: int, record_every: int, dtype):
        shape = (replications, n_steps // record_every + 1)
        self.xs = np.empty(shape, dtype)
        self.xps = np.empty(shape, dtype)
        self.couple_at = np.full(replications, -1, np.int64)
        self.every = record_every

    def store(self, rows: slice, k: int, x: np.ndarray, xp: np.ndarray) -> None:
        """Take lattice step k of the pairs in ``rows``."""
        at = self.couple_at[rows]  # a view: rows is a slice
        at[(at < 0) & (x == xp)] = k
        if k % self.every == 0:
            self.xs[rows, k // self.every] = x
            self.xps[rows, k // self.every] = xp

    def result(self):
        return self.xs, self.xps, self.couple_at


def _lockstep(n_steps, master_seed, replications, record_every, dtype, start, step):
    """Run the coupled pairs block by block; returns ``(xs, xps, couple_at)``.

    ``start(rng, m)`` draws the two start arrays of an m-pair block, and
    ``step(rng, x, xp, reps)`` returns the next lattice states of the pairs
    ``(x, xp)``, which are replications ``reps`` of the run; it may overwrite
    ``x`` and ``xp``, which are already recorded. Each block draws its starts
    and then its steps from its own generator, and every pair of the block
    takes every lattice step.
    """
    paths = _Paths(replications, n_steps, record_every, dtype)
    for rows, rng in _blocks(master_seed, replications):
        reps = np.arange(rows.start, rows.stop)
        x, xp = start(rng, reps.size)
        paths.store(rows, 0, x, xp)
        for k in range(1, n_steps + 1):
            x, xp = step(rng, x, xp, reps)
            paths.store(rows, k, x, xp)
    return paths.result()


def _stationary_start(x0: float, burn_in: int, stationary, kernel_step):
    """Start draw of a continuous chain: x at x0, x' an exact stationary draw
    followed by ``burn_in`` kernel steps, which leave its law at pi."""

    def start(rng, m):
        xp = stationary(rng, m)
        for _ in range(burn_in):
            xp = kernel_step(rng, xp)
        return np.full(m, float(x0)), xp

    return start


def inverse_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf[i], u[i], side="right")`` for every i, exactly.

    ``cdf`` holds one CDF row per uniform, or a single row for all of them.
    The entries <= u form a prefix of each row, whose length is the drawn
    state: a zero-probability state repeats its predecessor's entry, so no
    prefix ends on it.
    """
    return np.count_nonzero(cdf <= u[:, None], axis=-1)


def residual_draw(rng, x: np.ndarray, propose, keep_prob) -> np.ndarray:
    """One residual-law draw per state in ``x``, by masked rejection rounds.

    Each round proposes ``z = propose(rng, x)`` for the pending states and
    accepts with probability ``keep_prob(x, z)``; accepted states leave the
    pending set. Raises ``MathError`` on a negative acceptance probability,
    which means the overlap exceeds the kernel somewhere, on an undefined
    (NaN) one, which means the density is not finite there, and when states
    are still pending after ``MAX_REDRAW_ROUNDS`` rounds.
    """
    out = np.empty_like(x)
    pending = np.arange(x.size)
    for _ in range(MAX_REDRAW_ROUNDS):
        if pending.size == 0:
            return out
        at = x[pending]
        z = propose(rng, at)
        keep = keep_prob(at, z)
        bad = ~(keep >= 0.0)
        if bad.any():
            if np.isnan(keep[bad]).any():
                raise MathError(
                    "residual acceptance probability undefined (NaN): the "
                    "transition density is not finite at some proposal"
                )
            raise MathError(
                "residual acceptance probability below zero: the overlap "
                "exceeds the transition law, so the certificate does not hold"
            )
        accept = rng.random(pending.size) < keep
        out[pending[accept]] = z[accept]
        pending = pending[~accept]
    if pending.size:
        raise MathError(
            f"residual sampler still pending after {MAX_REDRAW_ROUNDS} rounds"
        )
    return out


def finite_coupling_paths(
    n_lat: int,
    master_seed: int,
    replications: int,
    record_every: int,
    mu0_cdf: np.ndarray,
    pi_cdf: np.ndarray,
    step_cdf: np.ndarray,
    eps: float,
    nu_cdf: np.ndarray,
    resid_cdf: np.ndarray,
    in_small_set: np.ndarray,
):
    """Coupled paths of a finite chain on the lag-n0 lattice.

    ``step_cdf`` holds row CDFs of the n0-step matrix, ``in_small_set`` one
    bool per state. The overlap table ``nu_cdf`` and the residual table
    ``resid_cdf`` hold one row for all pairs, one per start state (row x) or
    one per ordered start pair (row x * size + x'); their row counts select
    which. Each step takes three uniforms per pair: the coin, then one
    inverse-CDF draw per chain.
    """
    size = step_cdf.shape[0]
    table = np.concatenate([step_cdf, nu_cdf, resid_cdf])

    def row(first: int, count: int, x, xp):
        """Row of ``table`` for the pair (x, xp) in the ``count`` rows from ``first``."""
        if count == 1:
            return first
        return first + (x if count == size else x * size + xp)

    def nu_row(x, xp):
        return row(size, nu_cdf.shape[0], x, xp)

    def resid_row(x, xp):
        return row(size + nu_cdf.shape[0], resid_cdf.shape[0], x, xp)

    def start(rng, m):
        u = rng.random((2, m))
        return inverse_cdf(mu0_cdf, u[0]), inverse_cdf(pi_cdf, u[1])

    def step(rng, x, xp, _reps):
        u = rng.random((3, x.size))
        eq = x == xp
        coin = ~eq & in_small_set[x] & in_small_set[xp]
        heads = coin & (u[0] < eps)
        tails = coin & ~heads
        row_x = np.where(heads, nu_row(x, xp), np.where(tails, resid_row(x, xp), x))
        row_xp = np.where(tails, resid_row(xp, x), xp)
        new_x = inverse_cdf(table[row_x], u[1])
        return new_x, np.where(eq | heads, new_x, inverse_cdf(table[row_xp], u[2]))

    return _lockstep(n_lat, master_seed, replications, record_every, np.int32, start, step)


# ---------------------------------------------------------------------------
# half-line mixture chain


def _hl_keep(eps: float):
    """Acceptance 1 - eps * nu(z) / p(x, z) of the half-line residual sampler."""

    def keep(x, z):
        return 1.0 - eps * hl_nu_density(z) / hl_density(x, z)

    return keep


def halfline_coupling_paths(
    n_lat: int,
    master_seed: int,
    replications: int,
    record_every: int,
    x0: float,
    eps: float,
    burn_in: int,
):
    """Coupled paths of the half-line mixture chain (whole-space overlap, lag 1).

    The second chain starts from an exact stationary draw (``hl_stationary``)
    advanced by ``burn_in`` further steps.
    """
    keep = _hl_keep(eps)

    def step(rng, x, xp, _reps):
        n = x.size
        eq = x == xp
        heads = ~eq & (rng.random(n) < eps)
        tails = ~(eq | heads)
        new = np.where(eq, hl_step(rng, x), rng.exponential(0.5, n))
        if tails.any():
            both = residual_draw(rng, np.concatenate([x[tails], xp[tails]]), hl_step, keep)
            x[tails], xp[tails] = np.split(both, 2)
        return np.where(tails, x, new), np.where(tails, xp, new)

    start = _stationary_start(x0, burn_in, hl_stationary, hl_step)
    return _lockstep(n_lat, master_seed, replications, record_every, np.float64, start, step)


# ---------------------------------------------------------------------------
# random-walk Metropolis with target exp(-|x|)


def _rwm_keep(eps: float):
    """Acceptance 1 - eps * nu(w) / p2(x, w) of the two-step residual sampler.

    A proposal equal to x is the double-rejection atom and one outside
    [-1, 1] lies where nu is 0: both are always kept.
    """

    def keep(x, w):
        out = np.ones_like(w)
        nu = rwm_nu_density(w)
        inside = (w != x) & (nu > 0.0)
        out[inside] = 1.0 - eps * nu[inside] / rwm_two_step_density(x[inside], w[inside])
        return out

    return keep


def rwm_coupling_paths(
    n_pairs: int,
    master_seed: int,
    replications: int,
    record_every: int,
    x0: float,
    eps: float,
    c_lo: float,
    c_hi: float,
    burn_in: int,
):
    """Coupled paths of the Metropolis chain with small set [c_lo, c_hi], lag 2.

    Coin flips happen at even times when both chains sit in the small set;
    otherwise both advance two Metropolis steps independently. Lattice steps
    are pair-steps; the number of coin opportunities is returned per
    replication after the coupling steps. The second chain starts from an
    exact Laplace draw (``rwm_stationary``) advanced by ``burn_in`` further
    Metropolis steps.
    """
    keep = _rwm_keep(eps)
    opportunities = np.zeros(replications, np.int64)

    def step(rng, x, xp, reps):
        n = x.size
        eq = x == xp
        coin = ~eq & (c_lo <= x) & (x <= c_hi) & (c_lo <= xp) & (xp <= c_hi)
        opportunities[reps[coin]] += 1
        heads = coin & (rng.random(n) < eps)
        tails = coin & ~heads
        moved = rwm_two_steps(rng, np.concatenate([x, xp]))
        shared = 2.0 * rng.random(n) - 1.0
        new_x = np.where(heads, shared, moved[:n])
        new_xp = np.where(heads, shared, np.where(eq, new_x, moved[n:]))
        if tails.any():
            both = residual_draw(
                rng, np.concatenate([x[tails], xp[tails]]), rwm_two_steps, keep
            )
            new_x[tails], new_xp[tails] = np.split(both, 2)
        return new_x, new_xp

    start = _stationary_start(x0, burn_in, rwm_stationary, rwm_step)
    paths = _lockstep(n_pairs, master_seed, replications, record_every, np.float64, start, step)
    return (*paths, opportunities)
