"""Numeric verification of drift and overlap conditions on probe grids.

Integrals use scipy's adaptive Gauss-Kronrod quadrature with the kernel's
declared kink points passed as subdivision hints. These checks evaluate the
conditions at finitely many states to the stated tolerances; they are
engineering checks, not proofs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from ..bounds import Interval, UnivariateDrift
from ..errors import InputError, QuadratureError
from .chains import Kernel

__all__ = [
    "DriftVerificationReport",
    "MinorizationVerificationReport",
    "expected_value_after_step",
    "verify_univariate_drift",
    "two_step_density",
    "verify_minorization_numeric",
    "containment_escape_mass",
]

# abs tolerance requested from the integrator; estimates far above it
# indicate non-convergence
_QUAD_TOL = 1e-8
_QUAD_FAIL_FACTOR = 100.0


@dataclass(frozen=True)
class DriftVerificationReport:
    """Pointwise comparison of E[V(next)] against lam*V + b on the small set."""

    grid: tuple[float, ...]
    lhs: tuple[float, ...]
    rhs: tuple[float, ...]
    max_violation: float
    quadrature_error_estimate: float
    tolerance: float
    passed: bool

    def to_jsonable(self) -> dict:
        return {
            "grid": list(self.grid),
            "lhs": list(self.lhs),
            "rhs": list(self.rhs),
            "max_violation": self.max_violation,
            "quadrature_error_estimate": self.quadrature_error_estimate,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class MinorizationVerificationReport:
    """Worst margin of p^(lag)(x, y) - eps * nu(y) over the probe grid."""

    lag: int
    epsilon: float
    min_margin: float
    argmin_x: float
    argmin_y: float
    quadrature_error_estimate: float
    tolerance: float
    passed: bool

    def to_jsonable(self) -> dict:
        return {
            "lag": self.lag,
            "epsilon": self.epsilon,
            "min_margin": self.min_margin,
            "argmin_x": self.argmin_x,
            "argmin_y": self.argmin_y,
            "quadrature_error_estimate": self.quadrature_error_estimate,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def _require_density(kernel: Kernel) -> None:
    if kernel.dim != 1 or kernel.transition_density is None or kernel.window is None:
        raise InputError(
            f"kernel {kernel.name!r} does not expose a one-dimensional "
            "transition density; numeric verification unsupported"
        )


@functools.cache
def _quad():
    """``scipy.integrate.quad``, imported on first use.

    Only the numeric checks integrate; importing scipy's integrators when the
    package loads would slow the start-up of every other command.
    """
    from scipy.integrate import quad

    return quad


def _integrate(f: Callable[[float], float], lo: float, hi: float, pts) -> tuple[float, float]:
    inner = [p for p in pts if lo < p < hi] if not math.isinf(hi) else None
    value, err = _quad()(f, lo, hi, points=inner or None, limit=200, epsabs=_QUAD_TOL)
    if err > _QUAD_TOL * _QUAD_FAIL_FACTOR:
        raise QuadratureError(
            f"integration on [{lo}, {hi}] reported error {err:.3e} "
            f"(requested {_QUAD_TOL:.1e})"
        )
    return value, err


def expected_value_after_step(
    kernel: Kernel, V: Callable[[float], float], x: float
) -> tuple[float, float]:
    """E[V(next state) | current = x] with its quadrature error estimate.

    Continuous part by quadrature over the one-step window plus the atom
    contribution at x.
    """
    _require_density(kernel)
    density = kernel.transition_density
    lo, hi = kernel.window(x)
    pts = kernel.breakpoints(x) if kernel.breakpoints is not None else []
    value, err = _integrate(lambda y: density(x, y) * V(y), lo, hi, pts)
    atom = kernel.atom_mass(x) if kernel.atom_mass is not None else 0.0
    return value + atom * V(x), err


def verify_univariate_drift(
    kernel: Kernel,
    drift: UnivariateDrift,
    probe_grid: Sequence[float],
    tolerance: float = 1e-6,
) -> DriftVerificationReport:
    """Check E[V(next)] <= lam*V(x) + b*1_C(x) at every probe state."""
    grid = tuple(float(x) for x in probe_grid)
    lhs = []
    rhs = []
    worst_err = 0.0
    for x in grid:
        pv, err = expected_value_after_step(kernel, drift.V, x)
        worst_err = max(worst_err, err)
        # float(): a caller's V may return numpy scalars; reports hold builtins
        lhs.append(float(pv))
        bonus = drift.b if drift.small_set.contains(x) else 0.0
        rhs.append(float(drift.lam * drift.V(x) + bonus))
    violations = [a - b for a, b in zip(lhs, rhs)]
    max_violation = max(violations)
    return DriftVerificationReport(
        grid=grid,
        lhs=tuple(lhs),
        rhs=tuple(rhs),
        max_violation=max_violation,
        quadrature_error_estimate=worst_err,
        tolerance=tolerance,
        passed=max_violation <= tolerance,
    )


def two_step_density(kernel: Kernel, x: float, y: float) -> tuple[float, float]:
    """Absolutely continuous part of the two-step transition, by convolution.

    Assembled as (continuous o continuous) + atom(x)*p(x,y) + p(x,y)*atom(y);
    the double-rejection atom at x itself is excluded. Requires a kernel with
    a finite one-step window.
    """
    _require_density(kernel)
    density = kernel.transition_density
    atom = kernel.atom_mass if kernel.atom_mass is not None else (lambda _: 0.0)
    lo_x, hi_x = kernel.window(x)
    lo_y, hi_y = kernel.window(y)
    if math.isinf(hi_x) or math.isinf(hi_y):
        raise InputError("two-step convolution requires a bounded one-step window")
    # windows are symmetric in the built-ins: w reaches y iff y is in w's window
    lo, hi = max(lo_x, lo_y), min(hi_x, hi_y)
    conv, err = (0.0, 0.0)
    if lo < hi:
        pts = list(kernel.breakpoints(x)) + list(kernel.breakpoints(y))
        conv, err = _integrate(lambda w: density(x, w) * density(w, y), lo, hi, pts)
    p_xy = density(x, y)
    return conv + atom(x) * p_xy + p_xy * atom(y), err


def verify_minorization_numeric(
    kernel: Kernel,
    lag: int,
    epsilon: float,
    nu_density: Callable[[float], float],
    probe_x: Sequence[float],
    probe_y: Sequence[float],
    tolerance: float = 1e-6,
) -> MinorizationVerificationReport:
    """Check p^(lag)(x, y) >= eps * nu(y) over probe pairs, lag 1 or 2.

    The lag-2 density is formed by numeric convolution (atom cross-terms
    included), so the result is independent of the closed forms used by the
    samplers.
    """
    _require_density(kernel)
    if lag not in (1, 2):
        raise InputError(f"lag must be 1 or 2, got {lag}")
    if epsilon == 0.0:
        return MinorizationVerificationReport(
            lag=lag,
            epsilon=0.0,
            min_margin=0.0,
            argmin_x=float("nan"),
            argmin_y=float("nan"),
            quadrature_error_estimate=0.0,
            tolerance=tolerance,
            passed=True,
        )
    density = kernel.transition_density
    # builtin floats in and out: numpy scalars would make `passed` an np.bool_,
    # which json.dumps rejects
    xs = [float(x) for x in probe_x]
    ys = [float(y) for y in probe_y]
    min_margin = math.inf
    arg = (float("nan"), float("nan"))
    worst_err = 0.0
    for x in xs:
        for y in ys:
            if lag == 1:
                p = density(x, y)
            else:
                p, err = two_step_density(kernel, x, y)
                worst_err = max(worst_err, err)
            margin = p - epsilon * nu_density(y)
            if margin < min_margin:
                min_margin = margin
                arg = (x, y)
    return MinorizationVerificationReport(
        lag=lag,
        epsilon=epsilon,
        min_margin=float(min_margin),
        argmin_x=arg[0],
        argmin_y=arg[1],
        quadrature_error_estimate=worst_err,
        tolerance=tolerance,
        passed=bool(min_margin >= -tolerance),
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
    reach = kernel.step_radius * n_steps
    if region.lo <= small_set.lo - reach and small_set.hi + reach <= region.hi:
        return 0.0
    if n_steps > 2:
        raise InputError("escape-mass quadrature supported for n_steps <= 2 only")
    _require_density(kernel)
    density = kernel.transition_density
    atom = kernel.atom_mass if kernel.atom_mass is not None else (lambda _: 0.0)

    def one_step_inside(x: float) -> float:
        lo, hi = kernel.window(x)
        lo, hi = max(lo, region.lo), min(hi, region.hi)
        if lo >= hi:
            return atom(x) if region.contains(x) else 0.0
        mass, _ = _integrate(lambda y: density(x, y), lo, hi, kernel.breakpoints(x))
        return mass + (atom(x) if region.contains(x) else 0.0)

    worst = 0.0
    for x in (small_set.lo, small_set.hi):
        if n_steps == 1:
            inside = one_step_inside(x)
        else:
            lo, hi = kernel.window(x)
            two_cont, _ = _integrate(
                lambda y: two_step_density(kernel, x, y)[0],
                max(region.lo, lo - kernel.step_radius),
                min(region.hi, hi + kernel.step_radius),
                kernel.breakpoints(x),
            )
            inside = two_cont + (atom(x) ** 2 if region.contains(x) else 0.0)
        worst = max(worst, 1.0 - inside)
    return worst
