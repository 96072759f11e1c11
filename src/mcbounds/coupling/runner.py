"""Coupling simulation orchestration: configs, statistics, result reports.

Randomness contract: the master seed spawns one ``np.random.Generator`` per
block of ``engines.BLOCK`` replications, so a run is reproducible bit for bit
for a fixed config (see ``engines``). Statistics are reported on every
``record_every``-th point of the lag-n0 lattice; intermediate times are not
filled in. Coupling times are exact lattice times whether recorded or not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import CertificateError, InputError, MathError
from ..bounds import CERTIFICATES
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


# largest half-line start: the transition density from x divides by
# 2 (x + 1)^2, which overflows above x = 9.4e153, and a half-normal step moves
# x to |N(0, 1)| (x + 1), so from 1e100 the chain would need dozens of
# consecutive extreme draws to get there
MAX_HALFLINE_START = 1e100


@dataclass(frozen=True)
class CouplingConfig:
    """Everything a coupling run needs; immutable and fully seed-determined.

    ``model`` selects the chain: "finite" (supply ``matrix``, ``cert``, and an
    ``initial_law``), "halfline", or "rwm-laplace" (point start ``x0``). The
    partner chain starts from an exact stationary draw; for the continuous
    chains ``burn_in`` further kernel steps follow it, which keep its law.
    The lag, the overlap and the coupling mode follow from the finite
    certificate or, for the continuous chains, from ``bounds.CERTIFICATES``.
    Every replication runs all ``n_max // n0`` lattice steps.
    """

    model: str
    n_max: int
    replications: int
    master_seed: int
    matrix: StochasticMatrix | None = None
    cert: MinorizationCert | None = None
    initial_law: ProbVector | None = None
    x0: float = 0.0
    burn_in: int = 0
    record_every: int = 1

    def __post_init__(self) -> None:
        if self.model not in ("finite", "halfline", "rwm-laplace"):
            raise InputError(f"unknown model {self.model!r}")
        if self.master_seed < 0:
            raise InputError(
                f"master seed must be a non-negative integer, got {self.master_seed}"
            )
        if not math.isfinite(self.x0):
            raise InputError(f"start point x0 must be finite, got {self.x0}")
        if self.burn_in < 0:
            raise InputError(f"burn_in must be >= 0, got {self.burn_in}")
        if self.replications < 1:
            raise InputError("replications must be >= 1")
        if self.n_max < 0:
            raise InputError("n_max must be >= 0")
        if self.record_every < 1:
            raise InputError("record_every must be >= 1")
        if self.model == "finite":
            if self.matrix is None or self.cert is None:
                raise InputError("finite model requires matrix and cert")
            if self.initial_law is not None and self.initial_law.size != self.matrix.size:
                raise InputError("initial law size does not match the matrix")
        if self.model == "halfline" and not 0 <= self.x0 <= MAX_HALFLINE_START:
            raise InputError(
                f"half-line start must be in [0, {MAX_HALFLINE_START:g}], got {self.x0}"
            )
        recorded = self.replications * (
            self.n_max // self.effective_n0() // self.record_every + 1
        )
        if recorded > engines.MAX_RECORDED_STATES:
            raise InputError(
                f"{recorded:.3g} recorded pair states exceed the cap of "
                f"{engines.MAX_RECORDED_STATES}; pass fewer replications, a "
                "smaller n_max or a larger record_every"
            )

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


@dataclass(frozen=True)
class TvEstimate:
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
    state for O(states^2) work.
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
    loo = np.empty(len(counts))
    for t in range(len(counts)):
        if counts[t] == 0:
            loo[t] = 0.0
            continue
        adjusted = counts.astype(float).copy()
        adjusted[t] -= 1.0
        loo[t] = 0.5 * float(np.abs(adjusted / (total - 1) - ref).sum())
    weights = counts / total
    mean_loo = float((weights * loo).sum())
    var = float((weights * (loo - mean_loo) ** 2).sum()) * (total - 1)
    se = math.sqrt(max(var, 0.0))
    floor = 0.5 * math.sqrt(2.0 / math.pi) * float(
        np.sqrt(ref * (1.0 - ref) / total).sum()
    )
    return TvEstimate(value=value, se=se, noise_floor=floor)


@dataclass(frozen=True, eq=False)
class CouplingResult:
    """Per-lattice coupling statistics plus the recorded paths.

    ``lattice`` lists chain-step indices; arrays ``xs``/``xps`` (replications
    x lattice) are carried for further analysis but excluded from the JSON
    form. Coupling times are in chain steps.
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
    xs: np.ndarray = field(repr=False)
    xps: np.ndarray = field(repr=False)

    def to_jsonable(self) -> dict:
        out = {
            "model": self.model,
            "mode": self.mode,
            "n0": self.n0,
            "epsilon": self.epsilon,
            "replications": self.replications,
            "master_seed": self.master_seed,
            "n_max": self.n_max,
            "lattice": list(self.lattice),
            "p_neq": list(self.p_neq),
            "p_neq_se": list(self.p_neq_se),
            "coupling_time_mean": self.coupling_time_mean,
            "coupling_time_quantiles": {q: v for q, v in self.coupling_time_quantiles},
            "uncoupled": self.uncoupled,
        }
        if self.tv is not None:
            out["tv"] = [
                {"value": t.value, "se": t.se, "noise_floor": t.noise_floor}
                for t in self.tv
            ]
        if self.marginal_counts is not None:
            out["marginal_counts"] = [list(row) for row in self.marginal_counts]
            out["marginal_counts_prime"] = [
                list(row) for row in self.marginal_counts_prime
            ]
        if self.opportunities_mean is not None:
            out["opportunities_mean"] = self.opportunities_mean
        return out


def _cdf_rows(rows: np.ndarray) -> np.ndarray:
    """Row CDFs, exactly 1.0 from each row's last positive entry on.

    A rounded total just below 1 would otherwise leave the largest uniforms
    to a trailing zero-probability state.
    """
    cdf = np.cumsum(rows, axis=-1)
    cdf[cdf >= cdf[..., -1:]] = 1.0
    return cdf


def _finite_arrays(config: CouplingConfig):
    """Exact residual/overlap tables for the finite engine, as float CDFs.

    Returns ``(step_cdf, nu_cdf, resid_cdf, in_small)``. The uniform
    certificate gives one overlap row and one residual row per state; the
    pairwise one gives both per ordered pair, at row x * size + x' (the
    diagonal rows are never drawn from). Residuals are formed exactly on
    integer numerators, so a certificate that over-claims its overlap by any
    amount is rejected. Each table entry is an int/int quotient, the
    correctly rounded float of the exact rational.
    """
    from ..finite_chain import _common_denominator, _pair_measure, matrix_power

    P = config.matrix
    cert = config.cert
    size = P.size
    pn0 = matrix_power(P, cert.n0)  # memoized on P: the finder formed it already
    num, den = pn0._num, pn0._den
    p, q = cert.epsilon.numerator, cert.epsilon.denominator  # eps = p/q <= 1

    step_cdf = _cdf_rows(np.array([[v / den for v in row] for row in num]))

    def residual(row, weights, total, pair=""):
        # (row/den - eps*weights/total) / (1 - eps) = resid / (den*total*(q-p))
        if p == q:
            return [1 / size] * size  # never used: the coin always couples
        scale = den * total * (q - p)
        resid = [a * q * total - p * w * den for a, w in zip(row, weights)]
        for v in resid:
            if v < 0:
                raise CertificateError(f"residual entry {v / scale} is negative{pair}")
        return [v / scale for v in resid]

    if cert.variant == "uniform":
        nu, nu_den = _common_denominator(cert.nu.entries)
        nu_cdf = _cdf_rows(np.array([[w / nu_den for w in nu]]))
        resid_cdf = _cdf_rows(np.array([residual(row, nu, nu_den) for row in num]))
    else:
        nu_pair = np.zeros((size * size, size))
        resid_pair = np.zeros((size * size, size))
        for i in range(size):
            for j in range(size):
                if i == j:
                    continue
                mins, total = _pair_measure(pn0, i, j)
                nu_pair[i * size + j] = [m / total for m in mins]
                resid_pair[i * size + j] = residual(
                    num[i], mins, total, f" for pair ({i},{j})"
                )
        nu_cdf = _cdf_rows(nu_pair)
        resid_cdf = _cdf_rows(resid_pair)

    in_small = np.zeros(size, bool)
    in_small[list(cert.small_set)] = True
    return step_cdf, nu_cdf, resid_cdf, in_small


def _assert_once_coupled_forever(eq: np.ndarray) -> None:
    if eq.shape[1] > 1 and not np.all(~eq[:, :-1] | eq[:, 1:]):
        raise MathError("a trajectory decoupled after coupling; engine invariant broken")


def _quantile(ordered: list[int], q: float) -> float:
    """numpy's default (linear) quantile of ascending integers, to the float
    bit: at v = q (n - 1), between a = ordered[floor(v)] and the next value
    b, with d = b - a and g = v - floor(v), it is a + d g for g < 1/2 and
    b - d (1 - g) otherwise. numpy's own quantile function imports
    ``numpy.ma`` (through ``np.unique``), which no other step of a run needs.
    """
    v = q * (len(ordered) - 1)
    i = math.floor(v)
    g = v - i
    a = ordered[i]
    b = ordered[min(i + 1, len(ordered) - 1)]
    d = b - a
    return a + d * g if g < 0.5 else b - d * (1 - g)


def _summarize(
    config: CouplingConfig,
    n_steps: int,
    xs: np.ndarray,
    xps: np.ndarray,
    couple_at: np.ndarray,
    opportunities: np.ndarray | None,
    finite_reference: ProbVector | None,
) -> CouplingResult:
    """Statistics of an engine run of ``n_steps`` lattice steps.

    ``xs``/``xps`` hold every ``record_every``-th lattice point and
    ``couple_at`` the exact lattice step of coupling per replication.
    """
    reps = config.replications
    n0 = config.effective_n0()
    lattice = tuple(k * n0 for k in range(0, n_steps + 1, config.record_every))
    couple_steps = np.where(couple_at >= 0, couple_at * n0, -1)
    eq = xs == xps
    _assert_once_coupled_forever(eq)
    p_neq = 1.0 - eq.mean(axis=0)
    p_se = np.sqrt(p_neq * (1.0 - p_neq) / reps)

    tv = None
    counts = counts_prime = None
    if finite_reference is not None:
        ref = finite_reference.to_floats()
        size = len(ref)
        counts = tuple(
            tuple(int(c) for c in np.bincount(xs[:, k], minlength=size))
            for k in range(xs.shape[1])
        )
        counts_prime = tuple(
            tuple(int(c) for c in np.bincount(xps[:, k], minlength=size))
            for k in range(xps.shape[1])
        )
        if reps >= 2:  # the jackknife needs at least two samples
            tv = tuple(empirical_tv(row, ref) for row in counts)

    coupled = couple_steps[couple_steps >= 0]
    uncoupled = int(reps - coupled.size)
    mean_time = float(coupled.mean()) if coupled.size else None
    quantiles: tuple[tuple[str, float], ...] = ()
    if coupled.size:
        ordered = np.sort(coupled).tolist()
        quantiles = tuple((str(q), _quantile(ordered, q)) for q in (0.5, 0.9, 0.99))

    return CouplingResult(
        model=config.model,
        mode=config.mode(),
        n0=n0,
        epsilon=config.effective_epsilon(),
        replications=reps,
        master_seed=config.master_seed,
        n_max=config.n_max,
        lattice=lattice,
        p_neq=tuple(float(v) for v in p_neq),
        p_neq_se=tuple(float(v) for v in p_se),
        tv=tv,
        marginal_counts=counts,
        marginal_counts_prime=counts_prime,
        coupling_time_mean=mean_time,
        coupling_time_quantiles=quantiles,
        uncoupled=uncoupled,
        opportunities_mean=(
            float(opportunities.mean()) if opportunities is not None else None
        ),
        xs=xs,
        xps=xps,
    )


def run_coupling(config: CouplingConfig) -> CouplingResult:
    """Simulate the coupling of ``config`` on its lag-n0 lattice.

    The chains flip an eps-coin whenever both sit in the small set: the whole
    space for the half-line chain (closed-form overlap 1/2) and for a finite
    certificate on every state, the certificate's set for other finite ones,
    and the certificate's set for the Metropolis chain, which couples at even
    times with the published lag-2 overlap (odd-time states are not
    recorded). Finite chains draw from their exact certificate tables; the
    pairwise variant supplies pair-dependent overlap measures.
    """
    n_steps = config.n_max // config.effective_n0()
    run = (n_steps, config.master_seed, config.replications, config.record_every)
    eps = config.effective_epsilon()
    opportunities = pi = None
    if config.model == "finite":
        from ..finite_chain import ProbVector, stationary

        pi = stationary(config.matrix)
        mu0 = config.initial_law or ProbVector.delta(config.matrix.size, 0)
        step_cdf, nu_cdf, resid_cdf, in_small = _finite_arrays(config)
        xs, xps, couple_at = engines.finite_coupling_paths(
            *run, _cdf_rows(mu0.to_floats()), _cdf_rows(pi.to_floats()), step_cdf, eps,
            nu_cdf, resid_cdf, in_small
        )
    elif config.model == "halfline":
        xs, xps, couple_at = engines.halfline_coupling_paths(*run, config.x0, eps, config.burn_in)
    else:
        small = CERTIFICATES[config.model].small_set
        xs, xps, couple_at, opportunities = engines.rwm_coupling_paths(
            *run, config.x0, eps, small.lo, small.hi, config.burn_in
        )
    return _summarize(config, n_steps, xs, xps, couple_at, opportunities, pi)
