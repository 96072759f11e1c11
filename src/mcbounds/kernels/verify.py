"""Numeric verification of drift and overlap conditions on probe grids.

Integrals use QUADPACK's 21-point Gauss-Kronrod rule qk21 (Piessens et al.,
*QUADPACK*, 1983), applied as numpy arrays to every piece of every probe
point at once; the kernel's declared kink points split each interval into
pieces, and the pieces of a point that misses QUADPACK's tolerance test are
bisected and integrated again. Probe points go through in chunks of
``_CHUNK``, which bounds memory on fine grids. These checks evaluate the
conditions at finitely many states to the stated tolerances; they are
engineering checks, not proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..bounds import Interval, UnivariateDrift, contained_by_step_radius
from ..errors import InputError, QuadratureError
from .chains import Kernel

__all__ = [
    "DriftVerificationReport",
    "MAX_DRIFT_POINTS",
    "MAX_PROBE_PAIRS",
    "MinorizationVerificationReport",
    "batch_quad",
    "expected_value_after_step",
    "verify_univariate_drift",
    "two_step_density",
    "verify_minorization_numeric",
    "containment_escape_mass",
]

# absolute and relative tolerances of the integrator (QUADPACK's test, with
# the relative one scipy.integrate.quad defaults to); estimates far above the
# larger of the two indicate non-convergence
_QUAD_TOL = 1e-8
_QUAD_REL = 1.49e-8
_QUAD_FAIL_FACTOR = 100.0
# subintervals per point, QUADPACK's ``limit``
_QUAD_LIMIT = 200
# a mapped half-line starts as the pieces (0, 2^-K], ..., (1/2, 1] of t, cut
# at y = 2^k - 1 from its finite end: on the whole of (0, 1] a bump of scale
# s >> 1 (the half-line kernel's normal part at x = 18.1) sits in one piece
# whose qk21 and Gauss sums agree to 6e-8 while both miss by 2.7e-5
_MAP_CUTS = 20
# probe points (or probe pairs) per array pass
_CHUNK = 1024
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


@dataclass(frozen=True)
class DriftVerificationReport:
    """Pointwise comparison of E[V(next)] against lam*V + b on the small set."""

    grid: tuple[float, ...]
    lhs: tuple[float, ...]
    rhs: tuple[float, ...]
    max_violation: float
    quadrature_error_estimate: float
    passed: bool


@dataclass(frozen=True)
class MinorizationVerificationReport:
    """Worst margin of p^(lag)(x, y) - eps * nu(y) over the probe grid."""

    min_margin: float
    argmin_x: float
    argmin_y: float
    quadrature_error_estimate: float
    passed: bool


def _qk21(f, owner, sign, base, a, b):
    """QUADPACK's qk21 on every piece: (integral, error estimate) per piece.

    Piece k integrates point ``owner[k]``'s integrand over [a[k], b[k]]; with
    ``sign[k]`` = +-1 that interval lies in (0, 1] and stands for the
    half-line y = base[k] +- (1 - t) / t, dy = dt / t^2 (qagi's substitution).
    Sums run in QUADPACK's order.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    absc = hlgth * _XGK[:, None]
    t = np.concatenate([centr - absc, centr + absc, centr[None]])
    if sign.any():
        # finite pieces keep t; t is interior, so never 0, on mapped ones
        with np.errstate(divide="ignore", invalid="ignore"):
            mapped = sign != 0.0
            fv = f(owner, np.where(mapped, base + sign * ((1.0 - t) / t), t))
            fv = np.where(mapped, fv / t / t, fv)
    else:
        fv = f(owner, t)
    fv1, fv2, fc = fv[:10], fv[10:20], fv[20]
    fsum = fv1 + fv2
    resk = _WGK[10] * fc
    resg = np.zeros_like(resk)
    resabs = np.abs(resk)
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):
        if j % 2:
            resg = resg + _WG[j // 2] * fsum[j]
        resk = resk + _WGK[j] * fsum[j]
        resabs = resabs + _WGK[j] * (np.abs(fv1[j]) + np.abs(fv2[j]))
    reskh = resk * 0.5
    resasc = _WGK[10] * np.abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (np.abs(fv1[j] - reskh) + np.abs(fv2[j] - reskh))
    dhlgth = np.abs(hlgth)
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
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
    into pieces, and an infinite end is mapped onto (0, 1] (qagi's
    substitution; the whole line is split at 0 first) and cut at t = 2^-k,
    k = 1.._MAP_CUTS. Every piece gets the qk21 rule. A point is done when its summed error estimate is at most
    max(_QUAD_TOL, _QUAD_REL * |value|), QUADPACK's test; until then its
    pieces with more than an equal share of that bound are bisected, largest
    errors first, up to _QUAD_LIMIT pieces. A point's result depends on its
    own integrand only, never on the other points of the batch.

    Returns (values, error estimates); raises ``QuadratureError`` when a
    point ends with an error above _QUAD_FAIL_FACTOR times that bound, or NaN.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    m = lo.size
    inner = np.empty((m, 0)) if breaks is None else np.asarray(breaks, dtype=float)
    split = np.where(np.isinf(lo) & np.isinf(hi), 0.0, np.nan)
    inner = np.concatenate([inner, split[:, None]], axis=1)
    # breaks outside (lo, hi) move to hi, where they bound empty pieces
    inner = np.where((lo[:, None] < inner) & (inner < hi[:, None]), inner, hi[:, None])
    edges = np.concatenate([lo[:, None], np.sort(inner, axis=1), hi[:, None]], axis=1)
    owner, col = np.nonzero(edges[:, 1:] > edges[:, :-1])
    left, right = edges[owner, col], edges[owner, col + 1]
    sign = np.where(right == math.inf, 1.0, np.where(left == -math.inf, -1.0, 0.0))
    base = np.where(sign > 0.0, left, right)
    a, b = left, right
    finite = sign == 0.0
    if not finite.all():
        cuts = 0.5 ** np.arange(_MAP_CUTS, -1, -1)
        n_mapped = np.count_nonzero(~finite)
        rep = np.repeat(np.flatnonzero(~finite), cuts.size)
        owner, sign, base = (np.concatenate([v[finite], v[rep]]) for v in (owner, sign, base))
        a = np.concatenate([a[finite], np.tile(np.concatenate([[0.0], cuts[:-1]]), n_mapped)])
        b = np.concatenate([b[finite], np.tile(cuts, n_mapped)])
        order = np.lexsort((a, sign, owner))
        owner, sign, base, a, b = (v[order] for v in (owner, sign, base, a, b))
    value, err = _qk21(f, owner, sign, base, a, b)
    while True:
        total = np.bincount(owner, value, m)
        errsum = np.bincount(owner, err, m)
        bound = np.maximum(_QUAD_TOL, _QUAD_REL * np.abs(total))
        count = np.bincount(owner, minlength=m)
        share = bound / np.maximum(count, 1)
        cut = np.flatnonzero((errsum > bound)[owner] & (err > share[owner]))
        cut = cut[np.lexsort((-err[cut], owner[cut]))]
        who = owner[cut]
        rank = np.arange(who.size) - np.searchsorted(who, who)
        cut = cut[rank < (_QUAD_LIMIT - count)[who]]
        if cut.size == 0:
            break
        mid = 0.5 * (a[cut] + b[cut])
        keep = np.ones(owner.size, dtype=bool)
        keep[cut] = False
        twice = np.concatenate([cut, cut])
        owner, sign, base = (np.concatenate([v[keep], v[twice]]) for v in (owner, sign, base))
        a, b = np.concatenate([a[keep], a[cut], mid]), np.concatenate([b[keep], mid, b[cut]])
        new = slice(owner.size - twice.size, None)
        halves = _qk21(f, owner[new], sign[new], base[new], a[new], b[new])
        value = np.concatenate([value[keep], halves[0]])
        err = np.concatenate([err[keep], halves[1]])
        # each point's pieces left to right, so its sums run in a fixed order
        order = np.lexsort((a, sign, owner))
        owner, sign, base, a, b, value, err = (
            v[order] for v in (owner, sign, base, a, b, value, err)
        )
    # a NaN estimate or value fails too: it is no estimate
    failed = np.flatnonzero(~(errsum <= _QUAD_FAIL_FACTOR * bound))
    if failed.size:
        i = failed[0]
        raise QuadratureError(
            f"integration on [{lo[i]}, {hi[i]}] reported error {errsum[i]:.3e} "
            f"on a value of {total[i]:.6g} (requested max({_QUAD_TOL:.1e}, "
            f"{_QUAD_REL:.3g} |value|) = {bound[i]:.3e})"
        )
    return total, errsum


def _chunks(n: int):
    """Consecutive index ranges of at most ``_CHUNK`` probe points."""
    for start in range(0, n, _CHUNK):
        yield np.arange(start, min(start + _CHUNK, n))


def _window(kernel: Kernel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = kernel.window(x)
    return np.full(x.shape, lo, dtype=float), np.full(x.shape, hi, dtype=float)


def _breaks(kernel: Kernel, x: np.ndarray) -> np.ndarray:
    """One row of kink points per state."""
    pts = kernel.breakpoints(x)
    if len(pts) == 0:
        return np.empty(x.shape + (0,))
    return np.stack([np.full(x.shape, p, dtype=float) for p in pts], axis=-1)


def _expected_values(kernel: Kernel, V, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E[V(next) | x] and its quadrature error estimate, per state of ``x``."""
    density = kernel.transition_density
    lo, hi = _window(kernel, x)
    cont, err = batch_quad(lambda i, w: density(x[i], w) * V(w), lo, hi, _breaks(kernel, x))
    return cont + kernel.atom_mass(x) * V(x), err


def _two_step_densities(kernel: Kernel, x: np.ndarray, y: np.ndarray):
    """Absolutely continuous two-step density at each pair (x, y), numerically."""
    density = kernel.transition_density
    lo_x, hi_x = _window(kernel, x)
    lo_y, hi_y = _window(kernel, y)
    if np.isinf(hi_x).any() or np.isinf(hi_y).any():
        raise InputError("two-step convolution requires a bounded one-step window")
    # windows are symmetric in the built-ins: w reaches y iff y is in w's window
    conv, err = batch_quad(
        lambda i, w: density(x[i], w) * density(w, y[i]),
        np.maximum(lo_x, lo_y),
        np.minimum(hi_x, hi_y),
        np.concatenate([_breaks(kernel, x), _breaks(kernel, y)], axis=1),
    )
    p_xy = density(x, y)
    return conv + kernel.atom_mass(x) * p_xy + p_xy * kernel.atom_mass(y), err


def expected_value_after_step(
    kernel: Kernel, V: Callable, x: float
) -> tuple[float, float]:
    """E[V(next state) | current = x] with its quadrature error estimate.

    Continuous part by quadrature over the one-step window plus the atom
    contribution at x. ``V`` takes numpy arrays.
    """
    value, err = _expected_values(kernel, V, np.array([float(x)]))
    return float(value[0]), float(err[0])


def verify_univariate_drift(
    kernel: Kernel,
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
    for rows in _chunks(grid.size):
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


def two_step_density(kernel: Kernel, x: float, y: float) -> tuple[float, float]:
    """Absolutely continuous part of the two-step transition, by convolution.

    Assembled as (continuous o continuous) + atom(x)*p(x,y) + p(x,y)*atom(y);
    the double-rejection atom at x itself is excluded. Requires a kernel with
    a finite one-step window.
    """
    value, err = _two_step_densities(kernel, np.array([float(x)]), np.array([float(y)]))
    return float(value[0]), float(err[0])


def verify_minorization_numeric(
    kernel: Kernel,
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
    samplers. ``nu_density`` takes numpy arrays. Pairs run x-major in chunks;
    the first pair with the smallest margin is reported.
    """
    if lag not in (1, 2):
        raise InputError(f"lag must be 1 or 2, got {lag}")
    xs = np.asarray(probe_x, dtype=float).ravel()
    ys = np.asarray(probe_y, dtype=float).ravel()
    if xs.size == 0 or ys.size == 0:
        raise InputError("minorization verification needs at least one probe pair")
    if epsilon == 0.0:
        return MinorizationVerificationReport(
            min_margin=0.0,
            argmin_x=float("nan"),
            argmin_y=float("nan"),
            quadrature_error_estimate=0.0,
            passed=True,
        )
    density = kernel.transition_density
    # builtin floats out: numpy scalars would make `passed` an np.bool_,
    # which json.dumps rejects
    min_margin = math.inf
    arg = (float("nan"), float("nan"))
    worst_err = 0.0
    for pairs in _chunks(xs.size * ys.size):
        x, y = xs[pairs // ys.size], ys[pairs % ys.size]
        if lag == 1:
            p = density(x, y)
        else:
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


def containment_escape_mass(
    kernel: Kernel, small_set: Interval, region: Interval, n_steps: int
) -> float:
    """Worst-case mass landing outside ``region`` after n_steps from the set.

    Exactly zero when the kernel's bounded step radius keeps every path
    inside; otherwise computed by quadrature from the worst starting point
    (supported for n_steps <= 2).
    """
    if kernel.step_radius is None:
        raise InputError(
            f"kernel {kernel.name!r} has unbounded steps; containment must be "
            "established analytically"
        )
    if contained_by_step_radius(small_set, region, kernel.step_radius, n_steps):
        return 0.0
    if n_steps > 2:
        raise InputError("escape-mass quadrature supported for n_steps <= 2 only")
    density = kernel.transition_density
    x = np.array([small_set.lo, small_set.hi], dtype=float)
    lo, hi = _window(kernel, x)
    kept_atom = np.where(region.contains(x), kernel.atom_mass(x) ** n_steps, 0.0)
    breaks = _breaks(kernel, x)
    if n_steps == 1:
        lo, hi = np.maximum(lo, region.lo), np.minimum(hi, region.hi)

        def integrand(i, w):
            return density(x[i], w)
    else:
        radius = kernel.step_radius
        lo, hi = np.maximum(region.lo, lo - radius), np.minimum(region.hi, hi + radius)
        # y -> p2(x, y) jumps at x -+ radius, where p(x, y) drops to 0, and
        # kinks at the kinks of p(x, .), at those shifted by -+radius (where
        # an end of the convolution window crosses one) and at the atom's
        edges = np.stack([x - radius, x + radius], axis=-1)
        atom_kinks = np.tile(np.array(kernel.atom_breakpoints, dtype=float), (x.size, 1))
        breaks = np.concatenate(
            [breaks, breaks - radius, breaks + radius, edges, atom_kinks], axis=1
        )

        def integrand(i, w):
            starts = np.broadcast_to(x[i], w.shape).ravel()
            return _two_step_densities(kernel, starts, w.ravel())[0].reshape(w.shape)

    mass, _ = batch_quad(integrand, lo, hi, breaks)
    return float(max(0.0, np.max(1.0 - (mass + kept_atom))))
