"""Coupling simulation orchestration: configs, statistics, result reports.

Randomness contract: the master seed spawns one ``np.random.Generator`` per
block of ``engines.BLOCK`` replications, so a run is reproducible bit for bit
for a fixed config (see ``engines``). Statistics are reported on every
``record_every``-th point of the lag-n0 lattice; intermediate times are not
filled in. Coupling times are exact lattice times whether recorded or not.
The engines sum every statistic while they run, so a run holds per-slot
totals, never a state per replication and slot.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from ..errors import CertificateError, InputError
from ..bounds import CERTIFICATES, MAX_CURVE_POINTS, _Record
from . import engines

if TYPE_CHECKING:
    from ..finite_chain import MinorizationCert, ProbVector, StochasticMatrix

__all__ = [
    "CouplingConfig",
    "CouplingResult",
    "TvEstimate",
    "empirical_tv",
    "run_coupling",
]


class CouplingConfig(_Record):
    """Everything a coupling run needs; immutable and fully seed-determined.

    ``model`` selects the chain: "finite" (supply ``matrix``, ``cert``, and an
    ``initial_law``) or a key of ``bounds.CERTIFICATES`` (point start ``x0``,
    in the chain's ``space``). The partner chain starts from an
    exact stationary draw; for the continuous chains ``burn_in`` further
    kernel steps follow it, which keep its law.
    The lag, the overlap and the coupling mode follow from the finite
    certificate or, for the continuous chains, from ``bounds.CERTIFICATES``.
    Every replication runs all ``n_max // n0`` lattice steps; a run of more
    than ``engines.MAX_PAIR_STEPS`` pair-steps (``engines.pair_steps``) is
    refused, and so is one that records more than ``bounds.MAX_CURVE_POINTS``
    lattice points, the cap on bound curves.
    """

    __slots__ = ("model", "n_max", "replications", "master_seed", "matrix", "cert",
                 "initial_law", "x0", "burn_in", "record_every")

    def __init__(self, model: str, n_max: int, replications: int, master_seed: int,
                 matrix: StochasticMatrix | None = None, cert: MinorizationCert | None = None,
                 initial_law: ProbVector | None = None, x0: float = 0.0, burn_in: int = 0,
                 record_every: int = 1) -> None:
        # filled first: the budget check reads the lag through effective_n0()
        self._fill(model, n_max, replications, master_seed, matrix, cert, initial_law,
                   x0, burn_in, record_every)
        if model != "finite" and model not in CERTIFICATES:
            raise InputError(f"unknown model {model!r}")
        if master_seed < 0:
            raise InputError(f"master seed must be a non-negative integer, got {master_seed}")
        if not math.isfinite(x0):
            raise InputError(f"start point x0 must be finite, got {x0}")
        if burn_in < 0:
            raise InputError(f"burn_in must be >= 0, got {burn_in}")
        if replications < 1:
            raise InputError("replications must be >= 1")
        if n_max < 0:
            raise InputError("n_max must be >= 0")
        if record_every < 1:
            raise InputError("record_every must be >= 1")
        if model == "finite":
            if matrix is None or cert is None:
                raise InputError("finite model requires matrix and cert")
            if initial_law is not None and initial_law.size != matrix.size:
                raise InputError("initial law size does not match the matrix")
        else:
            space = CERTIFICATES[model].space
            if not space.contains(x0):
                raise InputError(f"start point x0 must be in [{space.lo:g}, {space.hi:g}] "
                                 f"for the {model} chain, got {x0}")
        n_lat = n_max // self.effective_n0()
        work = engines.pair_steps(replications, 1 + burn_in + n_lat)
        if work > engines.MAX_PAIR_STEPS:
            shrink = ["fewer replications (--reps)", "a smaller n_max (--n-max)"]
            if burn_in:
                shrink.append("a shorter burn_in (--burn-in)")
            raise InputError(
                f"{work} pair-steps exceed the work budget of "
                f"{engines.MAX_PAIR_STEPS}; pass {', '.join(shrink[:-1])} "
                f"or {shrink[-1]}"
            )
        points = n_lat // record_every + 1
        if points > MAX_CURVE_POINTS:
            raise InputError(
                f"a run recording {points} lattice points exceeds the cap of "
                f"{MAX_CURVE_POINTS}; pass a larger record_every (--record-every) "
                "or a smaller n_max (--n-max)"
            )

    def lattice(self) -> tuple[int, ...]:
        """The recorded chain steps: every ``record_every``-th lattice point."""
        n0 = self.effective_n0()
        return tuple(range(0, self.n_max // n0 * n0 + 1, n0 * self.record_every))

    def effective_n0(self) -> int:
        if self.model == "finite":
            return self.cert.n0
        return CERTIFICATES[self.model].n0

    def mode(self) -> str:
        """The coupling mode: ``uniform`` when the coin is flipped on the whole
        state space (the half-line chain, a finite certificate on every
        state), ``small-set`` otherwise."""
        if self.model == "finite":
            whole = set(self.cert.small_set) == set(range(self.matrix.size))
        else:
            whole = CERTIFICATES[self.model].small_set is None
        return "uniform" if whole else "small-set"

    def effective_epsilon(self) -> float:
        if self.model == "finite":
            return float(self.cert.epsilon)
        return CERTIFICATES[self.model].epsilon


class TvEstimate(NamedTuple):
    """Plug-in total variation between empirical frequencies and a reference.

    ``noise_floor`` is the expected value of the estimator when the true
    distance is zero (pure multinomial noise); comparisons against other
    estimates must allow for it on top of the jackknife standard error.
    """

    value: float
    se: float
    noise_floor: float


def empirical_tv(counts: Sequence[int], reference: Sequence[float]) -> TvEstimate:
    """Half-L1 distance of empirical state counts from reference probabilities.

    The standard error is a leave-one-out jackknife over samples, grouped by
    state: row t of one (states, states) array is the frequency vector with
    one sample of state t left out, for O(states^2) work and memory.
    """
    counts = np.asarray(counts, dtype=np.int64)
    ref = np.asarray(reference, dtype=float)
    if counts.shape != ref.shape:
        raise InputError(f"shape mismatch: {counts.shape} vs {ref.shape}")
    total = int(counts.sum())
    if total < 2:
        raise InputError("need at least two samples")
    freq = counts / total
    value = 0.5 * float(np.abs(freq - ref).sum())
    # each row sums in the order of a sum over one vector, so every entry is
    # the float that vector's sum gives
    rows = np.tile(np.abs(counts / (total - 1) - ref), (counts.size, 1))
    np.fill_diagonal(rows, np.abs((counts - 1) / (total - 1) - ref))
    loo = np.where(counts > 0, 0.5 * rows.sum(axis=1), 0.0)
    weights = counts / total
    mean_loo = float((weights * loo).sum())
    var = float((weights * (loo - mean_loo) ** 2).sum()) * (total - 1)
    se = math.sqrt(max(var, 0.0))
    floor = 0.5 * math.sqrt(2.0 / math.pi) * float(
        np.sqrt(ref * (1.0 - ref) / total).sum()
    )
    return TvEstimate(value=value, se=se, noise_floor=floor)


class CouplingResult(NamedTuple):
    """Per-lattice coupling statistics of a run.

    ``lattice`` lists chain-step indices, and every per-point tuple follows
    it. Coupling times are in chain steps. The result keeps no paths: pass
    ``on_block`` to ``run_coupling`` to see them.
    """

    model: str
    mode: str
    n0: int
    epsilon: float
    replications: int
    master_seed: int
    n_max: int
    lattice: tuple[int, ...]
    p_neq: tuple[float, ...]
    p_neq_se: tuple[float, ...]
    tv: tuple[TvEstimate, ...] | None
    marginal_counts: tuple[tuple[int, ...], ...] | None
    marginal_counts_prime: tuple[tuple[int, ...], ...] | None
    coupling_time_mean: float | None
    coupling_time_quantiles: tuple[tuple[str, float], ...]
    uncoupled: int
    opportunities_mean: float | None

    def to_jsonable(self) -> dict:
        """The fields as JSON values; a field that is None is left out, except
        ``coupling_time_mean``."""
        out = {name: value for name, value in self._asdict().items()
               if value is not None or name == "coupling_time_mean"}
        out["coupling_time_quantiles"] = dict(self.coupling_time_quantiles)
        if self.tv is not None:
            out["tv"] = [t._asdict() for t in self.tv]
        return out


def _finite_arrays(config: CouplingConfig):
    """``(step_rows, nu, in_small)`` of the finite engine: the n0-step matrix
    in floats, the uniform certificate's overlap law (None for the pairwise
    one) and the small-set mask. The engine flips the coin only when both
    chains sit in the small set C, so the certificate is checked on C's rows
    alone, in exact integers: one that claims more overlap than those rows
    have, by any amount, leaves a residual negative and is refused. A uniform
    one is refused where eps nu exceeds the smallest entry of a column over
    C's rows, a pairwise one at the first pair of C whose rows overlap by
    less than eps."""
    from fractions import Fraction

    from ..finite_chain import _common_denominator, matrix_power

    cert, eps = config.cert, config.cert.epsilon
    pn0 = matrix_power(config.matrix, cert.n0)  # memoized: the finder formed it already
    rows = pn0._num
    nu = None
    if cert.variant == "uniform":
        weights, total = _common_denominator(cert.nu.entries)
        columns = zip(*(rows[i] for i in cert.small_set))
        # eps w / total <= a / den for every entry a of column j, in integers
        for j, (a, w) in enumerate(zip(map(min, columns), weights)):
            if a * eps.denominator * total < eps.numerator * w * pn0._den:
                raise CertificateError(f"residual is negative at state {j}: epsilon "
                                       f"{eps} times nu({j}) exceeds a {cert.n0}-step law")
        nu = cert.nu.to_floats()
    else:
        for x, xp in itertools.combinations(cert.small_set, 2):
            overlap = sum(map(min, rows[x], rows[xp]))
            if overlap * eps.denominator < eps.numerator * pn0._den:
                raise CertificateError(
                    f"residual is negative for pair ({x}, {xp}): epsilon {eps} exceeds its "
                    f"{cert.n0}-step overlap {Fraction(overlap, pn0._den)}")
    in_small = np.zeros(pn0.size, bool)
    in_small[list(cert.small_set)] = True
    return pn0.to_floats(), nu, in_small


def _quantile(at_rank, n: int, q: float) -> float:
    """numpy's default (linear) quantile of n ascending integers, to the float
    bit; ``at_rank(i)`` is the i-th smallest. At v = q (n - 1), between
    a = at_rank(floor(v)) and the next value b, with d = b - a and
    g = v - floor(v), it is a + d g for g < 1/2 and b - d (1 - g) otherwise.
    numpy's own quantile function imports ``numpy.ma`` (through
    ``np.unique``), which no other step of a run needs.
    """
    v = q * (n - 1)
    i = math.floor(v)
    g = v - i
    a = at_rank(i)
    b = at_rank(min(i + 1, n - 1))
    d = b - a
    return a + d * g if g < 0.5 else b - d * (1 - g)


def _summarize(
    config: CouplingConfig,
    totals: engines.Totals,
    finite_reference: ProbVector | None,
) -> CouplingResult:
    """Statistics of an engine run from its ``Totals``.

    Every count is an exact integer, so each mean is the correctly rounded
    quotient that numpy's mean over the per-replication values gives. The
    mean coin flips per replication are reported in small-set mode only.
    """
    reps = config.replications
    n0 = config.effective_n0()
    p_neq = 1.0 - totals.coupled / reps
    p_se = np.sqrt(p_neq * (1.0 - p_neq) / reps)

    tv = None
    counts = counts_prime = None
    if finite_reference is not None:
        counts = tuple(map(tuple, totals.counts.tolist()))
        counts_prime = tuple(map(tuple, totals.counts_prime.tolist()))
        if reps >= 2:  # the jackknife needs at least two samples
            ref = finite_reference.to_floats()
            tv = tuple(empirical_tv(row, ref) for row in counts)

    ranks = np.cumsum(totals.couple_hist)
    coupled = int(ranks[-1])
    mean_time = None
    quantiles: tuple[tuple[str, float], ...] = ()
    if coupled:
        steps = np.arange(totals.couple_hist.size)
        mean_time = int(totals.couple_hist @ steps) * n0 / coupled

        def at_rank(i: int) -> int:
            return int(np.searchsorted(ranks, i, side="right")) * n0

        quantiles = tuple((str(q), _quantile(at_rank, coupled, q)) for q in (0.5, 0.9, 0.99))

    return CouplingResult(
        model=config.model,
        mode=config.mode(),
        n0=n0,
        epsilon=config.effective_epsilon(),
        replications=reps,
        master_seed=config.master_seed,
        n_max=config.n_max,
        lattice=config.lattice(),
        p_neq=tuple(p_neq.tolist()),
        p_neq_se=tuple(p_se.tolist()),
        tv=tv,
        marginal_counts=counts,
        marginal_counts_prime=counts_prime,
        coupling_time_mean=mean_time,
        coupling_time_quantiles=quantiles,
        uncoupled=reps - coupled,
        opportunities_mean=(
            totals.opportunities / reps
            if totals.opportunities is not None and config.mode() == "small-set"
            else None
        ),
    )


def run_coupling(config: CouplingConfig, on_block=None) -> CouplingResult:
    """Simulate the coupling of ``config`` on its lag-n0 lattice.

    The chains flip an eps-coin whenever both sit in the small set: the whole
    space for the half-line chain (closed-form overlap 1/2) and for a finite
    certificate on every state, the certificate's set for other finite ones,
    and the certificate's set for the Metropolis chain, which couples at even
    times with the published lag-2 overlap (odd-time states are not
    recorded). Both continuous chains run one engine,
    ``engines.continuous_coupling_paths``, which reads the chain's lag,
    overlap and small set from ``bounds.CERTIFICATES`` itself. Finite chains form the overlap and
    residual rows of a pair from the float n0-step rows when it flips the
    coin, after an exact check that the certificate leaves no residual
    negative; the pairwise variant's overlap is the normalized minimum of the
    pair's two rows.

    ``on_block(first, xs, xps)``, if given, receives each block's recorded
    states as the block ends (see ``engines._lockstep``): at most
    ``engines.BLOCK`` x ``bounds.MAX_CURVE_POINTS`` pair states.
    """
    n_steps = config.n_max // config.effective_n0()
    run = (n_steps, config.master_seed, config.replications, config.record_every)
    pi = None
    if config.model == "finite":
        from ..finite_chain import ProbVector, stationary

        pi = stationary(config.matrix)
        mu0 = config.initial_law or ProbVector.delta(config.matrix.size, 0)
        step_rows, nu, in_small = _finite_arrays(config)
        totals = engines.finite_coupling_paths(
            *run, mu0.to_floats(), pi.to_floats(), step_rows, config.effective_epsilon(),
            nu, in_small, on_block,
        )
    else:
        totals = engines.continuous_coupling_paths(
            config.model, *run, config.x0, config.burn_in, on_block
        )
    return _summarize(config, totals, pi)
