"""Numeric verification of drift and overlap conditions on probe grids.

Integrals use QUADPACK's 21-point Gauss-Kronrod rule qk21 (Piessens et al.,
*QUADPACK*, 1983) in one numpy pass over the pieces of many probe points,
the kernel's kink points splitting each finite window into pieces. Every
built-in integrand is smooth between its kinks, so the pass meets
QUADPACK's tolerance test; a point that misses it is refused, not refined.
One byte budget, ``_PASS_BYTES``, bounds each pass's (21, pieces) node
arrays and each block of lag-1 margins. These checks evaluate the
conditions at finitely many states to the stated tolerances; they are
engineering checks, not proofs.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ..bounds import UnivariateDrift
from ..errors import InputError, QuadratureError, integer
from .laws import Chain

__all__ = [
    "DriftVerificationReport",
    "MAX_DRIFT_POINTS",
    "MAX_PROBE_PAIRS",
    "MinorizationVerificationReport",
    "batch_quad",
    "verify_univariate_drift",
    "verify_minorization_numeric",
]

# absolute and relative tolerances of the integrator: QUADPACK's test, with
# the relative one scipy.integrate.quad defaults to
_QUAD_TOL = 1e-8
_QUAD_REL = 1.49e-8
# bytes of one node array of a qk21 pass (780 pieces: 195 drift states or
# 111 lag-2 pairs) and of one lag-1 margin block (16 384 pairs), so a pass's
# dozen or so live arrays fit a 2 MiB second-level cache. Swept from 64 KiB to
# 1 MiB on the benchmark lines (BENCH_verify_memory.json): 128 KiB had the lowest
# peak RSS from 128 KiB up; 64 KiB saved 0.4 MB more but slowed the lag-1 line
_PASS_BYTES = 128 * 1024
# the largest probe sets the command line builds: a drift state costs one
# integral and a row of the report's CSV (100 000 take seconds), a lag-1
# overlap pair one density evaluation and a lag-2 pair one integral (about
# 2^22 lag-1 pairs take a second); the defaults use 401 states and 1001 x 1001
# lag-1 or 81 x 41 lag-2 pairs
MAX_DRIFT_POINTS = 100_000
MAX_PROBE_PAIRS = 1 << 22

# qk21: Kronrod abscissae on [0, 1) of the reference interval, descending (the
# odd-numbered ones from 1 are the 10-point Gauss nodes), their weights, and
# the Gauss weights
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_EPMACH = float(np.finfo(float).eps)
_UFLOW = float(np.finfo(float).tiny)


class DriftVerificationReport(NamedTuple):
    """Pointwise comparison of E[V(next)] against lam*V + b on the small set."""

    grid: tuple[float, ...]
    lhs: tuple[float, ...]
    rhs: tuple[float, ...]
    max_violation: float
    quadrature_error_estimate: float
    passed: bool


class MinorizationVerificationReport(NamedTuple):
    """Worst margin of p^(lag)(x, y) - eps * nu(y) over the probe grid."""

    min_margin: float
    argmin_x: float
    argmin_y: float
    quadrature_error_estimate: float
    passed: bool


def _qk21(f, owner, a, b):
    """QUADPACK's qk21 on every piece: (integral, error estimate) per piece.

    Piece k integrates point ``owner[k]``'s integrand over [a[k], b[k]]. Sums
    run in QUADPACK's order.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    absc = hlgth * _XGK[:, None]
    fv = f(owner, np.concatenate([centr - absc, centr + absc, centr[None]]))
    fv1, fv2, fc = fv[:10], fv[10:20], fv[20]
    fsum = fv1 + fv2
    # each weight product as one (10, pieces) array, its rows then summed
    # in QUADPACK's order: the same products and sums as a loop over j
    kron = _WGK[:10, None] * fsum
    gauss = _WG[:, None] * fsum[1::2]
    absf = _WGK[:10, None] * (np.abs(fv1) + np.abs(fv2))
    resk = _WGK[10] * fc
    resg = np.zeros_like(resk)
    resabs = np.abs(resk)
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):
        if j % 2:
            resg += gauss[j // 2]
        resk += kron[j]
        resabs += absf[j]
    reskh = resk * 0.5
    dev = _WGK[:10, None] * (np.abs(fv1 - reskh) + np.abs(fv2 - reskh))
    resasc = _WGK[10] * np.abs(fc - reskh)
    for row in dev:
        resasc += row
    # every piece has b > a, so hlgth is its own absolute value
    resabs *= hlgth
    resasc *= hlgth
    err = np.abs((resk - resg) * hlgth)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    floor = (_EPMACH * 50.0) * resabs
    err = np.where(resabs > _UFLOW / (50.0 * _EPMACH), np.maximum(floor, err), err)
    return resk * hlgth, err


def batch_quad(f, lo, hi, breaks=None) -> tuple[np.ndarray, np.ndarray]:
    """Integral of point i's integrand over [lo[i], hi[i]], for every point i.

    ``f(i, w)`` evaluates the integrands per element: ``i`` is an index array
    of points that broadcasts against the nodes ``w``. Row i of ``breaks``
    holds point i's kink points; those strictly inside its interval split it
    into pieces, and one qk21 pass integrates every piece of the batch. qk21
    treats each piece on its own and a point's pieces are summed left to
    right, so a point's result never depends on the rest of the batch.

    Returns (values, error estimates); raises ``InputError`` when a window
    has an end that is not finite, and ``QuadratureError`` when a point's
    error estimate is NaN or above max(_QUAD_TOL, _QUAD_REL * |value|),
    QUADPACK's test.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    unbounded = np.flatnonzero(~(np.isfinite(lo) & np.isfinite(hi)))
    if unbounded.size:
        i = unbounded[0]
        raise InputError(f"integration window [{lo[i]}, {hi[i]}] is not finite")
    m = lo.size
    inner = np.empty((m, 0)) if breaks is None else np.asarray(breaks, dtype=float)
    # breaks outside (lo, hi) move to hi, where they bound empty pieces
    inner = np.where((lo[:, None] < inner) & (inner < hi[:, None]), inner, hi[:, None])
    edges = np.concatenate([lo[:, None], np.sort(inner, axis=1), hi[:, None]], axis=1)
    owner, col = np.nonzero(edges[:, 1:] > edges[:, :-1])
    value, err = _qk21(f, owner, edges[owner, col], edges[owner, col + 1])
    total = np.bincount(owner, value, m)
    errsum = np.bincount(owner, err, m)
    bound = np.maximum(_QUAD_TOL, _QUAD_REL * np.abs(total))
    # a NaN estimate or value fails too: it is no estimate
    failed = np.flatnonzero(~(errsum <= bound))
    if failed.size:
        i = failed[0]
        raise QuadratureError(
            f"integration on [{lo[i]}, {hi[i]}] reported error {errsum[i]:.3e} "
            f"on a value of {total[i]:.6g} (requested max({_QUAD_TOL:.1e}, "
            f"{_QUAD_REL:.3g} |value|) = {bound[i]:.3e})"
        )
    return total, errsum


def _chunks(n: int, pieces: int):
    """Index ranges of probe points, as many as ``_PASS_BYTES`` gives a pass."""
    step = max(1, _PASS_BYTES // (21 * 8 * pieces))
    for start in range(0, n, step):
        yield np.arange(start, min(start + step, n))


def _expected_values(kernel: Chain, V, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E[V(next) | x] and its quadrature error estimate, per state of ``x``."""
    density = kernel.transition_density
    lo, hi = kernel.window(x)
    cont, err = batch_quad(lambda i, w: density(x[i], w) * V(w), lo, hi, kernel.breakpoints(x))
    return cont + kernel.atom_mass(x) * V(x), err


def _two_step_densities(kernel: Chain, x: np.ndarray, y: np.ndarray):
    """Absolutely continuous two-step density at each pair (x, y), numerically."""
    density = kernel.transition_density
    lo_x, hi_x = kernel.window(x)
    lo_y, hi_y = kernel.window(y)
    # windows are symmetric in the built-ins: w reaches y iff y is in w's window
    conv, err = batch_quad(
        lambda i, w: density(x[i], w) * density(w, y[i]),
        np.maximum(lo_x, lo_y),
        np.minimum(hi_x, hi_y),
        np.concatenate([kernel.breakpoints(x), kernel.breakpoints(y)], axis=1),
    )
    p_xy = density(x, y)
    return conv + kernel.atom_mass(x) * p_xy + p_xy * kernel.atom_mass(y), err


def verify_univariate_drift(
    kernel: Chain,
    drift: UnivariateDrift,
    probe_grid: Sequence[float],
    tolerance: float = 1e-6,
) -> DriftVerificationReport:
    """Check E[V(next)] <= lam*V(x) + b*1_C(x) at every probe state.

    ``drift.V`` takes numpy arrays; the report holds builtin floats.
    """
    grid = np.asarray(probe_grid, dtype=float).ravel()
    if grid.size == 0:
        raise InputError("drift verification needs at least one probe state")
    lhs = np.empty(grid.size)
    worst_err = 0.0
    for rows in _chunks(grid.size, 1 + kernel.breakpoints(grid[:1]).shape[1]):
        lhs[rows], err = _expected_values(kernel, drift.V, grid[rows])
        worst_err = max(worst_err, float(err.max()))
    bonus = np.where(drift.small_set.contains(grid), drift.b, 0.0)
    rhs = drift.lam * drift.V(grid) + bonus
    max_violation = float(np.max(lhs - rhs))
    return DriftVerificationReport(
        grid=tuple(grid.tolist()),
        lhs=tuple(lhs.tolist()),
        rhs=tuple(rhs.tolist()),
        max_violation=max_violation,
        quadrature_error_estimate=worst_err,
        passed=max_violation <= tolerance,
    )


def verify_minorization_numeric(
    kernel: Chain,
    lag: int,
    epsilon: float,
    nu_density: Callable,
    probe_x: Sequence[float],
    probe_y: Sequence[float],
    tolerance: float = 1e-6,
) -> MinorizationVerificationReport:
    """Check p^(lag)(x, y) >= eps * nu(y) over probe pairs, lag 1 or 2.

    The lag-2 density is formed by numeric convolution (atom cross-terms
    included), so the result is independent of the closed forms used by the
    samplers. ``nu_density`` takes numpy arrays. Lag-1 pairs run in blocks
    of probe rows, lag-2 pairs in chunks, x-major either way; the first pair
    with the smallest margin is reported.
    """
    lag = integer("lag", lag, 1, 2)
    xs = np.asarray(probe_x, dtype=float).ravel()
    ys = np.asarray(probe_y, dtype=float).ravel()
    if xs.size == 0 or ys.size == 0:
        raise InputError("minorization verification needs at least one probe pair")
    density = kernel.transition_density
    # builtin floats out: numpy scalars would make `passed` an np.bool_,
    # which json.dumps rejects
    min_margin = math.inf
    arg = (float("nan"), float("nan"))
    worst_err = 0.0
    if lag == 1:
        # whole probe rows per block, a row split only when it alone exceeds
        # the budget: the blocks visit the pairs x-major, and argmin over a
        # C-ordered block is its first smallest pair, so a strict < keeps the
        # first smallest pair overall; the density may ignore x, nu may
        # ignore y, so both are broadcast
        eps_nu = np.broadcast_to(epsilon * nu_density(ys), ys.shape)
        pairs = max(1, _PASS_BYTES // 8)
        cols = min(ys.size, pairs)
        rows = max(1, pairs // ys.size)
        for r0 in range(0, xs.size, rows):
            x = xs[r0:r0 + rows, None]
            for c0 in range(0, ys.size, cols):
                y = ys[c0:c0 + cols]
                margin = density(x, y) - eps_nu[c0:c0 + cols]
                margin = np.broadcast_to(margin, (x.size, y.size))
                i, j = divmod(int(np.argmin(margin)), y.size)
                if margin[i, j] < min_margin:
                    min_margin = float(margin[i, j])
                    arg = (float(x[i, 0]), float(y[j]))
    else:
        # a pair's window splits at the kinks of x and of y
        for pairs in _chunks(xs.size * ys.size, 1 + 2 * kernel.breakpoints(xs[:1]).shape[1]):
            x, y = xs[pairs // ys.size], ys[pairs % ys.size]
            p, err = _two_step_densities(kernel, x, y)
            worst_err = max(worst_err, float(err.max()))
            margin = p - epsilon * nu_density(y)
            k = int(np.argmin(margin))
            if margin[k] < min_margin:
                min_margin = float(margin[k])
                arg = (float(x[k]), float(y[k]))
    return MinorizationVerificationReport(
        min_margin=min_margin,
        argmin_x=arg[0],
        argmin_y=arg[1],
        quadrature_error_estimate=worst_err,
        passed=min_margin >= -tolerance,
    )
