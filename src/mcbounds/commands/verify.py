"""``mcbounds verify``: numeric drift and overlap checks of the built-in chains."""

from __future__ import annotations

import math
import sys

import numpy as np

from ..bounds import CERTIFICATES, chain_drift
from ..cli import _Report
from ..errors import InputError
from ..kernels.laws import CHAINS
from ..kernels.verify import (
    MAX_DRIFT_POINTS,
    MAX_PROBE_PAIRS,
    verify_minorization_numeric,
    verify_univariate_drift,
)


def _probe_count(lo: float, hi: float, step: float) -> int | float:
    """Length of the probe grid ``np.arange(lo, hi + 1e-12, step)``, counted
    without building it: an int, or inf when the count overflows a float."""
    n = (hi + 1e-12 - lo) / step
    return math.ceil(n) if math.isfinite(n) else n


def _count_text(count: int | float, noun: str) -> str:
    """A probe count for a refusal message: exact below 2^53, where the count
    is the ceiling of an exactly represented float; above that to 3 digits;
    and in words when it overflows a float."""
    if count == math.inf:
        return f"more than {sys.float_info.max:.3g} {noun} (the count overflows a float)"
    if count < 2**53:
        return f"{count} {noun}"
    from decimal import Decimal  # formats ints beyond the float range

    return f"{Decimal(count):.3g} {noun}"


def _require_finite_drift(kernel, drift, grid) -> None:
    """Refuse a grid on which the ``bounds.ChainDrift`` V overflows on a
    probe state's one-step window: there E[V(next)] and lam V(x) would
    compare infinities. V is largest at an end of any interval, so finite
    values at the window's ends bound it on the window, the probe state
    included."""
    V = drift.V
    lo, hi = kernel.window(grid)
    with np.errstate(over="ignore"):
        finite = np.isfinite(V(lo)) & np.isfinite(V(hi))
    if not finite.all():
        i = int(np.argmin(finite))
        raise InputError(
            f"V = {drift.text} is not finite on the one-step window [{lo[i]}, "
            f"{hi[i]}] of the probe state {grid[i]}; keep --grid-lo and "
            "--grid-hi nearer to 0"
        )


def run(args) -> tuple[_Report, int]:
    if args.analysis == "drift":
        if not (math.isfinite(args.grid_lo) and math.isfinite(args.grid_hi)
                and args.grid_lo <= args.grid_hi):
            raise InputError(
                f"empty grid: need finite --grid-lo <= --grid-hi, got "
                f"{args.grid_lo} and {args.grid_hi}"
            )
        points = _probe_count(args.grid_lo, args.grid_hi, args.grid_step)
        if points > MAX_DRIFT_POINTS:
            raise InputError(
                f"a drift grid of {_count_text(points, 'points')} exceeds the cap of "
                f"{MAX_DRIFT_POINTS}; pass a larger --grid-step"
            )
        kernel, cert = CHAINS[args.preset], CERTIFICATES[args.preset]
        drift = chain_drift(cert, args.lam, args.b)
        grid = np.arange(args.grid_lo, args.grid_hi + 1e-12, args.grid_step)
        _require_finite_drift(kernel, cert.drift, grid)
        verif = verify_univariate_drift(kernel, drift, grid, tolerance=args.tolerance)
        config = {
            "preset": args.preset,
            "lam": drift.lam,
            "b": drift.b,
            "grid": [args.grid_lo, args.grid_hi, args.grid_step],
            "tolerance": args.tolerance,
        }
        results = {
            "passed": verif.passed,
            "max_violation": verif.max_violation,
            "quadrature_error_estimate": verif.quadrature_error_estimate,
            "drift_function": cert.drift.text,
            "small_set": [drift.small_set.lo, drift.small_set.hi],
        }
        provenance = {
            "lam": "user" if args.lam is not None else "preset",
            "b": "user" if args.b is not None else "preset",
        }
        report = _Report("verify", "drift", config, results, provenance)
        report.add_csv("-grid", x=verif.grid, lhs=verif.lhs, rhs=verif.rhs)
        return report, 0 if verif.passed else 3

    # minorization
    chain, cert = CHAINS[args.preset], CERTIFICATES[args.preset]
    x_range, y_range = cert.probes
    step = args.probe_step
    pairs = _probe_count(*x_range, step) * _probe_count(*y_range, step)
    if pairs > MAX_PROBE_PAIRS:
        raise InputError(
            f"{_count_text(pairs, 'probe pairs')} exceed the cap of {MAX_PROBE_PAIRS}; "
            "pass a larger --probe-step"
        )
    probe_x, probe_y = (np.arange(lo, hi + 1e-12, step) for lo, hi in (x_range, y_range))
    verif = verify_minorization_numeric(
        chain, cert.n0, cert.epsilon, chain.nu_density, probe_x, probe_y,
        tolerance=args.tolerance,
    )
    config = {
        "preset": args.preset,
        "probe_step": args.probe_step,
        "tolerance": args.tolerance,
    }
    results = {
        "passed": verif.passed,
        "lag": cert.n0,
        "epsilon": cert.epsilon,
        "nu": cert.nu,
        "min_margin": verif.min_margin,
        "argmin": [verif.argmin_x, verif.argmin_y],
        "quadrature_error_estimate": verif.quadrature_error_estimate,
    }
    report = _Report(
        "verify", "minorization", config, results, {"epsilon": "preset"}
    )
    return report, 0 if verif.passed else 3
