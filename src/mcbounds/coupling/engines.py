"""Lockstep coupling engines: statistics streamed block by block.

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
``_lockstep`` applies this rule for both engines, whose steps only draw the
moves and look nothing up: the runner's ``FiniteModel`` or ``ChainModel``
hands its engine the chain (arrays or a ``laws.Chain``), eps, n0 and small set.

Every engine returns ``Totals``: per recorded slot (step k is recorded in
slot k // record_every when record_every divides k) the number of coincident
pairs and, for finite chains, the state counts of each chain, plus the
histogram of the exact lattice step at which pairs first coincide and the
number of coin flips. Nothing per replication outlives its block. A caller
that wants the paths passes ``on_block``, which receives each block's
recorded states as it ends.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from ..errors import MathError

if TYPE_CHECKING:
    from ..kernels.laws import Chain

# replications per Generator stream; changing it changes every seeded output
BLOCK = 4096

# pair-steps a run may take: per block, its pairs (at least MIN_BLOCK_WIDTH)
# times its steps (the start draw, the burn-in and the lattice steps). Set so
# that the slowest engine, the Metropolis one, finishes in about a minute on a
# 2-core x86 host: it runs 2.4e6 pair-steps/s in full blocks of short runs
# and takes 62 us a step for a block of 1 pair, the cost of 150 pairs in a
# full block, and took 50 s at the limit either way
MAX_PAIR_STEPS = 120_000_000
MIN_BLOCK_WIDTH = 150

# bytes of float rows the finite engine holds at once: it works through a
# step's pairs in chunks, each pair gathering a step-CDF row and a coin row
# per chain; a 16-state chain takes a full block in one chunk
STEP_BYTES = 2 << 20

# a residual sampler accepts each proposal with probability 1 - eps >= 1/2
# under the certified overlaps, so a pair still pending after this many
# rounds means the residual law is not what the certificate promises
MAX_REDRAW_ROUNDS = 100


def _blocks(master_seed: int, replications: int):
    """(rows, generator) per block of replications, in order."""
    children = np.random.SeedSequence(master_seed).spawn(-(-replications // BLOCK))
    for b, child in enumerate(children):
        yield slice(b * BLOCK, min((b + 1) * BLOCK, replications)), np.random.default_rng(child)


def pair_steps(replications: int, steps: int) -> int:
    """The work a run of ``steps`` steps per block costs against
    ``MAX_PAIR_STEPS``, each block counted at ``MIN_BLOCK_WIDTH`` pairs or
    more."""
    full, rest = divmod(replications, BLOCK)
    width = full * BLOCK + (max(rest, MIN_BLOCK_WIDTH) if rest else 0)
    return width * steps


class Totals(NamedTuple):
    """Statistics of a run, summed over its blocks."""

    coupled: np.ndarray  # coincident pairs at each recorded slot
    couple_hist: np.ndarray  # pairs by the lattice step at which they first coincide
    counts: np.ndarray | None  # finite chains: (slots, states) counts of x
    counts_prime: np.ndarray | None  # the same for x'
    opportunities: int  # coin flips over all pairs and steps


def _lockstep(n_steps, master_seed, replications, record_every, eps, in_set, start, step,
              states=None, on_block=None, dtype=np.float64):
    """Run the coupled pairs block by block and return their ``Totals``.

    ``start(rng, m)`` draws the two start arrays of an m-pair block. At each
    lattice step the unequal pairs inside the small set (``in_set(states)``
    masks it, None for the whole space) flip the coin, heads when their
    uniform, drawn for every pair, is below ``eps``. Then ``step(rng, x, xp,
    coin, heads)`` returns the next states of the pairs ``(x, xp)``; it may
    overwrite ``x`` and ``xp``, which are already tallied. A pair that was
    equal or landed heads ends the step equal, at its new x. Each block
    draws its starts and then its steps from its own generator, and every
    pair of the block takes every lattice step. A finite chain passes its
    number of ``states``, to count them per slot.

    ``on_block(first, xs, xps)``, if given, is called as each block ends with
    the block's recorded states, replications x slots as ``dtype``, whose
    first row is replication ``first``; the arrays are reused by the next
    block. Raises ``MathError`` if a pair that coincided separates.
    """
    slots = n_steps // record_every + 1
    coupled = np.zeros(slots, np.int64)
    hist = np.zeros(n_steps + 1, np.int64)
    flips = 0
    counts = counts_prime = None
    if states is not None:
        counts = np.zeros((slots, states), np.int64)
        counts_prime = np.zeros((slots, states), np.int64)
    paths = None
    if on_block is not None:
        paths = np.empty((2, min(replications, BLOCK), slots), dtype)
    for rows, rng in _blocks(master_seed, replications):
        x, xp = start(rng, rows.stop - rows.start)
        at = np.full(x.size, -1, np.int64)  # the step at which each pair coincided
        for k in range(n_steps + 1):
            if k:
                coin = ~eq if in_set is None else ~eq & in_set(x) & in_set(xp)
                heads = coin & (rng.random(x.size) < eps)
                flips += int(np.count_nonzero(coin))
                x, xp = step(rng, x, xp, coin, heads)
                xp = np.where(eq | heads, x, xp)
            eq = x == xp
            if ((at >= 0) > eq).any():
                raise MathError("a pair decoupled after coupling; engine invariant broken")
            at[eq & (at < 0)] = k
            if k % record_every:
                continue
            slot = k // record_every
            coupled[slot] += np.count_nonzero(eq)
            if counts is not None:
                counts[slot] += np.bincount(x, minlength=states)
                counts_prime[slot] += np.bincount(xp, minlength=states)
            if paths is not None:
                paths[0, : x.size, slot] = x
                paths[1, : x.size, slot] = xp
        hist += np.bincount(at[at >= 0], minlength=n_steps + 1)
        if on_block is not None:
            on_block(rows.start, paths[0, : x.size], paths[1, : x.size])
    return Totals(coupled, hist, counts, counts_prime, flips)


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


def _cdf_rows(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row CDFs, written to ``out`` when given (which may be ``rows``), exactly
    1.0 from each row's last positive entry on: a rounded total just below 1
    would otherwise leave the largest uniforms to a trailing zero-probability
    state."""
    cdf = np.cumsum(rows, axis=-1, out=out)
    cdf[cdf >= cdf[..., -1:]] = 1.0
    return cdf


def _coin_cdf(rows: np.ndarray, heads: np.ndarray, eps: float, nu) -> np.ndarray:
    """The CDFs that pairs flipping the coin draw from, written over their
    n0-step rows of x (``rows[0]``) and of x' (``rows[1]``). On heads x draws
    from the overlap law, ``nu`` or else the minimum of the pair's rows,
    normalized, and x' follows it. On tails each chain draws from its
    residual law (p - eps nu) / (1 - eps).

    Where p = eps nu exactly, as where an argmin pair's row is the smaller,
    the float difference is rounding noise on either side of 0. Every
    difference up to (size + 4) 2^-52 eps nu, above that rounding error, is
    set to 0, so no draw lands on a state the residual law excludes.
    """
    if nu is None:
        nu = np.minimum(rows[0], rows[1])
        nu /= nu.sum(axis=-1, keepdims=True)
    if eps < 1.0:  # at eps = 1 every coin lands heads: no residual law
        scaled = eps * nu
        rows -= scaled
        scaled *= (rows.shape[-1] + 4) * 2.0**-52
        rows[rows <= scaled] = 0.0
        rows /= 1.0 - eps
    rows[0, heads] = np.broadcast_to(nu, rows[0].shape)[heads]
    return _cdf_rows(rows, out=rows)


def finite_coupling_paths(
    n_lat: int,
    master_seed: int,
    replications: int,
    record_every: int,
    x0: int,
    pi: np.ndarray,
    step_rows: np.ndarray,
    eps: float,
    nu: np.ndarray | None,
    in_small_set: np.ndarray,
    on_block=None,
) -> Totals:
    """Coupling of a finite chain on the lag-n0 lattice, with state counts.

    x starts at state ``x0``, x' at a draw from ``pi``. ``step_rows`` holds
    the n0-step matrix, ``in_small_set`` one bool per state (None: all in),
    and ``nu`` the certificate's one overlap law, or None when each pair
    overlaps on its own (the pairwise certificate). A pair's overlap and
    residual rows are formed only at a step where it flips the coin. After
    ``_lockstep``'s coin, a step draws one inverse-CDF uniform per chain and
    pair, and works through its pairs in chunks of ``STEP_BYTES``.
    """
    size = step_rows.shape[0]
    step_cdf = _cdf_rows(step_rows)
    pi_cdf = _cdf_rows(pi)
    width = max(1, STEP_BYTES // (32 * size))  # four rows of 8-byte floats a pair

    def start(rng, m):
        u = rng.random((2, m))  # row 0 goes unused; the seeded streams depend on its draw
        return np.full(m, x0, np.intp), inverse_cdf(pi_cdf, u[1])

    def chunk(x, xp, coin, heads, u):
        # the coin rows first: their temporaries are freed before the gather
        coin_cdf = _coin_cdf(step_rows[np.stack([x[coin], xp[coin]])], heads[coin], eps, nu)
        cdf = step_cdf[np.stack([x, xp])]
        cdf[:, coin] = coin_cdf
        return inverse_cdf(cdf[0], u[0]), inverse_cdf(cdf[1], u[1])

    def step(rng, x, xp, coin, heads):
        u = rng.random((2, x.size))
        new = np.empty((2, x.size), np.intp)
        for lo in range(0, x.size, width):
            part = slice(lo, lo + width)
            new[:, part] = chunk(x[part], xp[part], coin[part], heads[part], u[:, part])
        return new[0], new[1]

    in_set = None if in_small_set is None else in_small_set.__getitem__
    return _lockstep(n_lat, master_seed, replications, record_every, eps, in_set, start, step,
                     size, on_block, np.int32)


# ---------------------------------------------------------------------------
# continuous chains: the half-line mixture, and random-walk Metropolis with
# target exp(-|x|)


def _keep(chain: Chain, eps: float, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Acceptance 1 - eps * nu(z) / p_n0(x, z) of the residual sampler, per
    pair of a state x and its lattice draw z.

    A draw equal to x is the n0-step atom (both Metropolis steps rejected)
    and one where nu is 0 lies outside the overlap: both are always kept.
    """
    out = np.ones_like(z)
    nu = chain.nu_density(z)
    inside = (z != x) & (nu > 0.0)
    out[inside] = 1.0 - eps * nu[inside] / chain.step_density(x[inside], z[inside])
    return out


def continuous_coupling_paths(chain: Chain, cert, n_lat: int, master_seed: int,
                              replications: int, record_every: int, x0: float, burn_in: int,
                              on_block=None) -> Totals:
    """Coupling of the continuous ``chain`` on its lag-n0 lattice, with the
    overlap eps, the lag n0 and the small set (an ``Interval``, or None for
    the whole space) of its certificate ``cert``.

    x starts at ``x0``; x' at an exact stationary draw advanced by
    ``burn_in`` further kernel steps. The lattice step is n0 one-step draws.
    Each lattice step draws, after ``_lockstep``'s coin uniforms: the lattice
    step of x and x' (of x alone when the set is the whole space, where every
    unequal pair flips the coin and x' moves only with x); one overlap draw
    per pair; the residual rounds of the pairs whose coin lands tails.
    """
    eps, small_set = cert.epsilon, cert.small_set

    def lattice(rng, x):
        for _ in range(cert.n0):
            x = chain.step(rng, x)
        return x

    def start(rng, m):
        xp = chain.stationary(rng, m)
        for _ in range(burn_in):
            xp = chain.step(rng, xp)
        return np.full(m, float(x0)), xp

    def step(rng, x, xp, coin, heads):
        n = x.size
        tails = coin & ~heads
        moved = lattice(rng, x if small_set is None else np.concatenate([x, xp]))
        new_x, new_xp = np.where(heads, chain.nu_draw(rng, n), moved[:n]), moved[-n:]
        if tails.any():
            both = residual_draw(rng, np.concatenate([x[tails], xp[tails]]), lattice,
                                 lambda at, z: _keep(chain, eps, at, z))
            new_x[tails], new_xp[tails] = np.split(both, 2)
        return new_x, new_xp

    return _lockstep(n_lat, master_seed, replications, record_every, eps,
                     None if small_set is None else small_set.contains, start, step,
                     on_block=on_block)
