"""``mcbounds verify``: numeric drift and overlap checks of the built-in chains."""

from __future__ import annotations

import math

import numpy as np

from .. import presets
from ..bounds import CERTIFICATES
from ..cli import _Report
from ..errors import InputError
from ..kernels import laws
from ..kernels.chains import halfline_mixture_kernel, metropolis_rwm_laplace
from ..kernels.verify import (
    MAX_DRIFT_POINTS,
    MAX_PROBE_PAIRS,
    verify_minorization_numeric,
    verify_univariate_drift,
)


def _probe_count(lo: float, hi: float, step: float) -> float:
    """Length of the probe grid ``np.arange(lo, hi + 1e-12, step)``, counted
    without building it (inf when the count overflows a float)."""
    n = (hi + 1e-12 - lo) / step
    return float(math.ceil(n)) if math.isfinite(n) else n


def run(args) -> tuple[_Report, int]:
    if args.condition == "drift":
        if args.preset != "rwm-laplace":
            raise InputError("drift verification ships one preset: rwm-laplace")
        if not (math.isfinite(args.grid_lo) and math.isfinite(args.grid_hi)
                and args.grid_lo <= args.grid_hi):
            raise InputError(
                f"empty grid: need finite --grid-lo <= --grid-hi, got "
                f"{args.grid_lo} and {args.grid_hi}"
            )
        points = _probe_count(args.grid_lo, args.grid_hi, args.grid_step)
        if points > MAX_DRIFT_POINTS:
            raise InputError(
                f"a drift grid of {points:.3g} points exceeds the cap of "
                f"{MAX_DRIFT_POINTS}; pass a larger --grid-step"
            )
        kernel = metropolis_rwm_laplace()
        lam = args.lam if args.lam is not None else presets.LAPLACE_LAM
        b = args.b if args.b is not None else presets.LAPLACE_B
        drift = presets.laplace_drift(lam=lam, b=b)
        grid = np.arange(args.grid_lo, args.grid_hi + 1e-12, args.grid_step)
        verif = verify_univariate_drift(kernel, drift, grid, tolerance=args.tolerance)
        config = {
            "preset": args.preset,
            "lam": lam,
            "b": b,
            "grid": [args.grid_lo, args.grid_hi, args.grid_step],
            "tolerance": args.tolerance,
        }
        results = {
            "passed": verif.passed,
            "max_violation": verif.max_violation,
            "quadrature_error_estimate": verif.quadrature_error_estimate,
            "drift_function": "exp(|x|/2)",
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
    if args.preset == "halfline":
        kernel = halfline_mixture_kernel()
        nu = laws.hl_nu_density
        x_range = y_range = (0.0, 50.0)
    elif args.preset == "rwm-laplace":
        kernel = metropolis_rwm_laplace()
        nu = laws.rwm_nu_density
        x_range, y_range = (-2.0, 2.0), (-1.0, 1.0)
    else:
        raise InputError("minorization presets: halfline, rwm-laplace")
    cert = CERTIFICATES[args.preset]
    step = args.probe_step
    pairs = _probe_count(*x_range, step) * _probe_count(*y_range, step)
    if pairs > MAX_PROBE_PAIRS:
        raise InputError(
            f"{pairs:.3g} probe pairs exceed the cap of {MAX_PROBE_PAIRS}; "
            "pass a larger --probe-step"
        )
    probe_x, probe_y = (np.arange(lo, hi + 1e-12, step) for lo, hi in (x_range, y_range))
    verif = verify_minorization_numeric(
        kernel, cert.n0, cert.epsilon, nu, probe_x, probe_y, tolerance=args.tolerance
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
