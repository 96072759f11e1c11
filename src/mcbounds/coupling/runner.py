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

import math
from typing import TYPE_CHECKING, Iterable, NamedTuple

import numpy as np

from ..errors import InputError, MathError, integer
from ..bounds import CERTIFICATES, MAX_CURVE_POINTS, _Record
from . import engines

if TYPE_CHECKING:
    from ..bounds import ChainCertificate
    from ..finite_chain import MinorizationCert, StochasticMatrix

__all__ = ["ChainModel", "CouplingConfig", "CouplingResult", "FiniteModel", "run_coupling"]


class FiniteModel(_Record):
    """A finite chain, ``matrix``, and the overlap it couples with: ``cert``
    ("uniform" or "pseudo"), its lag ``n0`` and its small set ``small_set``
    (state indices, default every state), kept sorted, so two orders of one
    set give equal models. ``certificate()`` finds the overlap exactly."""

    __slots__ = ("matrix", "cert", "n0", "small_set")

    def __init__(self, matrix: StochasticMatrix, cert: str, n0: int,
                 small_set: Iterable[int] | None = None) -> None:
        from ..finite_chain import _small_set

        if cert not in ("uniform", "pseudo"):
            shown = repr(cert) if isinstance(cert, str) else f"a {type(cert).__name__} value"
            raise InputError(f'cert must be "uniform" or "pseudo", got {shown}')
        self._fill(matrix, cert, integer("n0", n0, 1), _small_set(small_set, matrix.size))

    def certificate(self) -> MinorizationCert:
        """The best ``cert`` overlap of ``matrix`` at lag ``n0`` on
        ``small_set`` (``finite_chain.minorization_uniform`` or
        ``minorization_pseudo``, whose result the matrix keeps)."""
        from .. import finite_chain

        finder = (finite_chain.minorization_uniform if self.cert == "uniform"
                  else finite_chain.minorization_pseudo)
        found = finder(self.matrix, self.n0, self.small_set)
        if found is None:
            raise MathError(f"no {self.cert} overlap at lag {self.n0} for this chain")
        return found

    def check_start(self, x0) -> int:
        """``x0``, a state index, as an int."""
        return integer("start state x0", x0, 0, self.matrix.size - 1)

    def mode(self) -> str:
        return "uniform" if len(self.small_set) == self.matrix.size else "small-set"

    def start_steps(self) -> int:
        return 1  # the stationary start draw

    def couple(self, run: tuple, config: CouplingConfig, on_block):
        """The finite engine's ``Totals``, on the n0-step rows the certificate
        was found on (so no residual is negative), with the uniform
        certificate's overlap law (None for the pairwise one) and the
        small-set mask (None in uniform mode), and ``tv_exact``, TV_n =
        1/2 |P^n(x0, .) - pi|_1 at each recorded point: the law steps through
        the nonzero entries of P, O(states) a step on a grid walk."""
        from ..finite_chain import matrix_power, stationary

        pi = stationary(self.matrix).to_floats()
        cert = self.certificate()
        nu = cert.nu.to_floats() if cert.variant == "uniform" else None
        in_small = None
        if self.mode() == "small-set":
            in_small = np.zeros(pi.size, bool)
            in_small[list(cert.small_set)] = True
        step_rows = matrix_power(self.matrix, cert.n0).to_floats()  # memoized: the search formed it
        totals = engines.finite_coupling_paths(
            *run, config.x0, pi, step_rows, float(cert.epsilon), nu, in_small, on_block)
        p = self.matrix.to_floats()
        i, j = np.nonzero(p)
        weights = p[i, j]
        law, at, tv = np.zeros(pi.size), 0, []
        law[config.x0] = 1.0
        for n in config.lattice():
            for _ in range(n - at):
                law = np.bincount(j, law[i] * weights, pi.size)
            at = n
            tv.append(0.5 * float(np.abs(law - pi).sum()))
        return totals, tuple(tv)


class ChainModel(_Record):
    """A built-in continuous chain by its key in ``bounds.CERTIFICATES`` (its
    overlap) and ``laws.CHAINS`` (its samplers); the partner chain takes
    ``burn_in`` kernel steps, which keep its law, after its stationary draw."""

    __slots__ = ("key", "burn_in")

    def __init__(self, key: str, burn_in: int = 0) -> None:
        if key not in CERTIFICATES:
            raise InputError(f"unknown model {key!r}")
        self._fill(key, integer("burn_in", burn_in, 0))

    @property
    def n0(self) -> int:
        return self.certificate().n0

    def certificate(self) -> ChainCertificate:
        return CERTIFICATES[self.key]

    def check_start(self, x0):
        """``x0``, a point of the chain's space, as given."""
        space = self.certificate().space
        try:
            finite = not isinstance(x0, (bool, np.bool_)) and math.isfinite(x0)
        except TypeError:
            finite = False
        if not finite:
            raise InputError(f"start point x0 must be a finite number, got {x0!r}")
        if not space.contains(x0):
            raise InputError(f"start point x0 must be in [{space.lo:g}, {space.hi:g}] "
                             f"for the {self.key} chain, got {x0}")
        return x0

    def mode(self) -> str:
        return "uniform" if self.certificate().small_set is None else "small-set"

    def start_steps(self) -> int:
        return 1 + self.burn_in  # the stationary start draw and the burn-in

    def couple(self, run: tuple, config: CouplingConfig, on_block):
        """The ``Totals`` of ``engines.continuous_coupling_paths``, the one
        engine of both continuous chains, for this chain's ``laws.Chain``
        and certificate (the Metropolis chain couples at even times with its
        lag-2 overlap, and odd-time states are not recorded); no exact
        distance."""
        from ..kernels.laws import CHAINS

        totals = engines.continuous_coupling_paths(
            CHAINS[self.key], self.certificate(), *run, config.x0, self.burn_in, on_block)
        return totals, None


class CouplingConfig(_Record):
    """Everything a coupling run needs; immutable and fully seed-determined.

    ``model``, a ``FiniteModel`` or a ``ChainModel``, is the chain and its
    overlap, and answers for them: certificate, start check, mode
    (``uniform`` when the coin is flipped on the whole space, ``small-set``
    otherwise), steps before the lattice and engine. Chain x starts at
    ``x0``, a state index of a finite chain or a point of the chain's
    ``space``; the partner chain at an exact stationary draw. Every
    replication runs all ``n_max // n0`` lattice steps. A run over the work
    budget, ``engines.MAX_PAIR_STEPS`` pair-steps, or the cap on bound
    curves is refused before a finite certificate is searched for.
    """

    __slots__ = ("model", "n_max", "replications", "master_seed", "x0", "record_every")

    def __init__(self, model: FiniteModel | ChainModel, n_max: int, replications: int,
                 master_seed: int, x0: float = 0, record_every: int = 1) -> None:
        if not isinstance(model, (FiniteModel, ChainModel)):
            raise InputError(f"model must be a FiniteModel or a ChainModel, got {model!r}")
        # the run checks, before a finite search: it is exact and can take seconds
        x0 = model.check_start(x0)
        master_seed = integer("master_seed", master_seed, 0)
        replications = integer("replications", replications, 1)
        n_max = integer("n_max", n_max, 0)
        record_every = integer("record_every", record_every, 1)
        self._fill(model, n_max, replications, master_seed, x0, record_every)
        n_lat = n_max // model.n0
        start = model.start_steps()
        work = engines.pair_steps(replications, start + n_lat)
        if work > engines.MAX_PAIR_STEPS:
            shrink = ["fewer replications (--reps)", "a smaller n_max (--n-max)"]
            if start > 1:  # the steps after the start draw are a burn-in
                shrink.append("a shorter burn_in (--burn-in)")
            raise InputError(f"{work} pair-steps exceed the work budget of "
                             f"{engines.MAX_PAIR_STEPS}; pass {', '.join(shrink[:-1])} or "
                             f"{shrink[-1]}")
        points = n_lat // record_every + 1
        if points > MAX_CURVE_POINTS:
            raise InputError(f"a run recording {points} lattice points exceeds the cap of "
                             f"{MAX_CURVE_POINTS}; pass a larger record_every (--record-every) "
                             "or a smaller n_max (--n-max)")
        model.certificate()  # a finite chain's search, whose result the matrix keeps

    def lattice(self) -> tuple[int, ...]:
        """The recorded chain steps: every ``record_every``-th lattice point."""
        n0 = self.model.n0
        return tuple(range(0, self.n_max // n0 * n0 + 1, n0 * self.record_every))


class CouplingResult(NamedTuple):
    """Per-lattice coupling statistics of a run; the run itself (model,
    overlap, replications, seed, ``n_max``) is its config's.

    ``lattice`` lists chain-step indices, and every per-point tuple follows
    it. Coupling times are in chain steps. ``tv_exact`` is the distance to
    stationarity TV_n = |P^n(x0, .) - pi|_TV of a finite chain at each point,
    which the coupling inequality puts at or below P(T > n); it is None for
    the continuous chains. The result keeps no paths: pass ``on_block`` to
    ``run_coupling`` to see them.
    """

    mode: str
    n0: int
    lattice: tuple[int, ...]
    p_neq: tuple[float, ...]
    p_neq_se: tuple[float, ...]
    tv_exact: tuple[float, ...] | None
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
        return out


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
    tv_exact: tuple[float, ...] | None,
) -> CouplingResult:
    """Statistics of an engine run from its ``Totals``, with a finite chain's
    ``tv_exact``.

    Every count is an exact integer, so each mean is the correctly rounded
    quotient that numpy's mean over the per-replication values gives. The
    mean coin flips per replication are reported in small-set mode only.
    """
    reps = config.replications
    n0 = config.model.n0
    p_neq = 1.0 - totals.coupled / reps
    p_se = np.sqrt(p_neq * (1.0 - p_neq) / reps)

    counts = counts_prime = None
    if totals.counts is not None:
        counts = tuple(map(tuple, totals.counts.tolist()))
        counts_prime = tuple(map(tuple, totals.counts_prime.tolist()))

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
        mode=config.model.mode(),
        n0=n0,
        lattice=config.lattice(),
        p_neq=tuple(p_neq.tolist()),
        p_neq_se=tuple(p_se.tolist()),
        tv_exact=tv_exact,
        marginal_counts=counts,
        marginal_counts_prime=counts_prime,
        coupling_time_mean=mean_time,
        coupling_time_quantiles=quantiles,
        uncoupled=reps - coupled,
        opportunities_mean=(
            totals.opportunities / reps if config.model.mode() == "small-set" else None
        ),
    )


def run_coupling(config: CouplingConfig, on_block=None) -> CouplingResult:
    """Simulate the coupling of ``config`` on its lag-n0 lattice with its
    model's engine (``couple``). The chains flip an eps-coin whenever both
    sit in the certificate's small set, passed to the engine as no set in
    ``uniform`` mode.

    ``on_block(first, xs, xps)``, if given, receives each block's recorded
    states as the block ends (see ``engines._lockstep``): at most
    ``engines.BLOCK`` x ``bounds.MAX_CURVE_POINTS`` pair states.
    """
    run = (config.n_max // config.model.n0, config.master_seed, config.replications,
           config.record_every)
    return _summarize(config, *config.model.couple(run, config, on_block))
