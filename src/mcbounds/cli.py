"""Command-line front end.

Subcommands: ``finite`` (exact chain analyses), ``bound`` (analytic bound
calculators), ``simulate`` (coupling Monte Carlo), ``verify`` (numeric drift
and overlap checks). Reports are JSON (stdout, or files under ``--output``)
with optional CSV curves; exact rationals are serialized as "p/q" strings.
Exit codes: 0 success, 2 usage or configuration error, 3 mathematical or
verification failure.

Only ``bounds`` and ``errors`` load with this module. Each command imports
what else it needs (``finite_chain``, numpy, the presets, the coupling
engines, the kernels) when it runs, so ``bound`` loads no finite-chain code,
and ``bound`` and every ``finite`` analysis but ``eigen-bound`` run without
numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .bounds import (
    CERTIFICATES,
    LAPLACE_SCHEDULE,
    minorization_bound,
    minorization_crossing,
    minorization_curve,
    optimize_drift_minorization,
    point_process_overlap,
    steps_to_threshold,
)
from .errors import InputError, MathError, McbError

if TYPE_CHECKING:
    from .coupling import CouplingConfig
    from .finite_chain import StochasticMatrix

_FLOAT_FMT = "%.17g"


def _csv_cell(value) -> str:
    """The one CSV cell rule: None is empty, an int is exact, a number is %.17g."""
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return _FLOAT_FMT % value


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("MCB_SEED")
    if env:
        try:
            return int(env)
        except ValueError as exc:
            raise InputError(f"MCB_SEED must be an integer, got {env!r}") from exc
    return 0


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        rows, cols = text.lower().split("x")
        return int(rows), int(cols)
    except ValueError as exc:
        raise InputError(f"grid must look like 3x3, got {text!r}") from exc


def _parse_rational(text: str) -> Fraction:
    try:
        if "/" in text:
            return Fraction(text)
        return Fraction(float(text)).limit_denominator(10**12)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse {text!r} as a probability") from exc


def _load_model(args) -> tuple[StochasticMatrix, str]:
    from .finite_chain import StochasticMatrix, build_grid_walk

    if args.grid:
        rows, cols = _parse_grid(args.grid)
        return build_grid_walk(rows, cols), f"grid {rows}x{cols}"
    if args.matrix_file:
        try:
            data = json.loads(Path(args.matrix_file).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read matrix file: {exc}") from exc
        return StochasticMatrix.from_json_dict(data), f"file {args.matrix_file}"
    raise InputError("select a model with --grid RxC or --matrix-file PATH")


def _default_start(args, size: int) -> int:
    """0-based start state: --start is 1-based; grids default to the center."""
    if args.start is not None:
        state = args.start - 1
        if not 0 <= state < size:
            raise InputError(f"--start must be in 1..{size}")
        return state
    if args.grid:
        return size // 2  # center cell for odd-sized grids, near-center otherwise
    raise InputError("--start is required with --matrix-file")


class _Report:
    """Envelope plus optional CSV tables keyed by file stem suffix; a table is
    a mapping of column names to equally long lists of cells."""

    def __init__(self, command: str, analysis: str, config: dict, results: dict,
                 provenance: dict | None = None, warnings: list[str] | None = None):
        self.command = command
        self.analysis = analysis
        self.config = config
        self.results = results
        self.provenance = provenance
        self.warnings = warnings
        self.csv_tables: dict[str, dict[str, list]] = {}

    @property
    def payload(self) -> dict:
        out = {
            "tool": "mcbounds",
            "version": __version__,
            "command": self.command,
            "analysis": self.analysis,
            "config": self.config,
            "results": self.results,
        }
        if self.provenance:
            out["provenance"] = self.provenance
        if self.warnings:
            out["warnings"] = self.warnings
        return out

    def add_csv(self, suffix: str, **columns: list) -> None:
        self.csv_tables[suffix] = columns


def _emit(report: _Report, args) -> None:
    text = json.dumps(report.payload, indent=2, sort_keys=True) + "\n"
    fmt = getattr(args, "format", "json")
    if args.output is None:
        if fmt in ("csv", "both") and report.csv_tables:
            raise InputError("--format csv requires --output DIR")
        sys.stdout.write(text)
        return
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    stem = f"{report.command}-{report.analysis}"
    if fmt in ("json", "both"):
        (outdir / f"{stem}.json").write_text(text)
    if fmt in ("csv", "both"):
        for suffix, columns in report.csv_tables.items():
            lines = [",".join(columns)]
            lines += [",".join(map(_csv_cell, row)) for row in zip(*columns.values())]
            (outdir / f"{stem}{suffix}.csv").write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# finite


def _cmd_finite(args) -> tuple[_Report, int]:
    from .finite_chain import (
        ProbVector,
        eigen_bound,
        exact_tv_curve,
        minorization_pseudo,
        minorization_uniform,
        stationary,
    )

    matrix, model_desc = _load_model(args)
    size = matrix.size
    config = {
        "model": model_desc,
        "analysis": args.analysis,
        "n0": args.n0,
        "delta": args.delta,
        "n_max": args.n_max,
    }
    provenance: dict = {}
    results: dict = {}
    report = _Report("finite", args.analysis, config, results, provenance)

    if args.analysis == "stationary":
        pi = stationary(matrix)
        results["pi"] = pi.as_strings()
        results["pi_float"] = [float(v) for v in pi]
        provenance["pi"] = "computed (exact elimination)"

    elif args.analysis == "eigen-bound":
        start = _default_start(args, size)
        target = (args.target - 1) if args.target is not None else start
        if not 0 <= target < size:
            raise InputError(f"--target must be in 1..{size}")
        config["start"] = start + 1
        config["target"] = target + 1
        eb = eigen_bound(matrix, ProbVector.delta(size, start), target)
        crossing = steps_to_threshold(eb.value, args.delta)
        results.update(
            {
                "coefficient": eb.coefficient,
                "rate": eb.rate,
                "eigenvalues": [{"re": v.real, "im": v.imag} for v in eb.eigenvalues],
                "modes": [
                    {
                        "eigenvalue": {"re": m.eigenvalue.real, "im": m.eigenvalue.imag},
                        "weight_at_target": m.weight,
                        "projection_norm": m.projection_norm,
                    }
                    for m in eb.modes
                ],
                "stationary_float": list(eb.stationary),
                "threshold_steps": crossing,
            }
        )
        provenance["coefficient"] = "computed (spectral expansion)"
        ns = range(crossing + 1)
        report.add_csv("-curve", n=ns, bound=[eb.value(n) for n in ns])

    elif args.analysis in ("minorization", "pseudo"):
        finder = minorization_uniform if args.analysis == "minorization" else minorization_pseudo
        cert = finder(matrix, args.n0)
        if cert is None:
            results["epsilon"] = None
            results["note"] = f"no overlap at lag {args.n0}"
        else:
            results["epsilon"] = str(cert.epsilon)
            results["epsilon_float"] = float(cert.epsilon)
            results["n0"] = cert.n0
            if cert.nu is not None:
                results["nu"] = cert.nu.as_strings()
            if cert.argmin_pairs is not None:
                results["argmin_pairs"] = [[i + 1, j + 1] for i, j in cert.argmin_pairs]
            crossing = minorization_crossing(cert.epsilon, cert.n0, args.delta)
            results["threshold_steps"] = crossing
            provenance["epsilon"] = "computed (exact search)"

    elif args.analysis == "tv-exact":
        start = _default_start(args, size)
        config["start"] = start + 1
        curve = exact_tv_curve(
            ProbVector.delta(size, start), matrix, args.n_max, threshold=args.delta
        )
        uniform_cert = minorization_uniform(matrix, args.n0)
        pseudo_cert = minorization_pseudo(matrix, args.n0)
        entries = []
        for n, tv in zip(curve.ns, curve.values):
            entry = {"n": n, "tv": str(tv), "tv_float": float(tv)}
            for label, cert in (("uniform", uniform_cert), ("pseudo", pseudo_cert)):
                if cert is not None:
                    bound = float(minorization_bound(cert.epsilon, cert.n0, n))
                    entry[f"bound_{label}"] = bound
            entries.append(entry)
        results["curve"] = entries
        results["crossing"] = curve.crossing
        report.add_csv(
            "-curve",
            n=curve.ns,
            tv=[e["tv_float"] for e in entries],
            bound_uniform=[e.get("bound_uniform") for e in entries],
            bound_pseudo=[e.get("bound_pseudo") for e in entries],
        )

    return report, 0


# ---------------------------------------------------------------------------
# bound


def _cmd_bound(args) -> tuple[_Report, int]:
    if args.theorem == "t1":
        provenance = {"epsilon": "user"}
        if args.pointprocess:
            try:
                c, d = (float(v) for v in args.pointprocess.split(","))
            except ValueError as exc:
                raise InputError(
                    f"--pointprocess expects C,D, got {args.pointprocess!r}"
                ) from exc
            epsilon = point_process_overlap(c, d)
            provenance["epsilon"] = f"computed (overlap constant at C={c}, D={d})"
        else:
            epsilon = _parse_rational(args.epsilon)
        if not 0 < epsilon <= 1:
            raise InputError(f"epsilon must be in (0, 1], got {epsilon}")
        crossing = minorization_crossing(epsilon, args.n0, args.delta)
        n_max = args.n_max if args.n_max is not None else crossing
        curve = minorization_curve(epsilon, args.n0, n_max)
        config = {
            "epsilon": str(epsilon),
            "n0": args.n0,
            "delta": args.delta,
            "n_max": n_max,
            "pointprocess": args.pointprocess,
        }
        results = {
            "epsilon_float": float(epsilon),
            "crossing": crossing,
            "curve": [
                {"n": n, "bound": float(v)} for n, v in zip(curve.ns, curve.values)
            ],
        }
        report = _Report("bound", "t1", config, results, provenance)
        report.add_csv("-curve", n=curve.ns, bound=curve.values)
        return report, 0

    # t2
    from . import presets

    if args.preset != "rwm-laplace":
        raise InputError("bound t2 currently ships one preset: rwm-laplace")
    inputs, provenance = presets.laplace_drift_minorization_inputs(expected_h=args.expected_h)
    schedule = [(args.check_n, args.check_j)]
    opt = optimize_drift_minorization(inputs, args.delta, schedule=schedule)
    config = {
        "preset": args.preset,
        "delta": args.delta,
        "expected_h": args.expected_h,
        "check_n": args.check_n,
        "check_j": args.check_j,
    }
    sched = opt.inputs["schedule"][0]
    results = {
        "constants": {
            "lam": presets.LAPLACE_LAM,
            "b": presets.LAPLACE_B,
            "d": presets.LAPLACE_D,
            "epsilon": inputs.epsilon,
            "alpha_inv": 1.0 / inputs.alpha,
            "B": inputs.big_b,
            "expected_h": inputs.expected_h,
            "n0": inputs.n0,
        },
        "crossing": opt.crossing,
        "optimal_j": opt.inputs["optimal_j"],
        "bound_at_crossing": opt.value_at(opt.crossing),
        "log_bound_at_crossing": math.log(opt.value_at(opt.crossing)),
        "schedule_point": sched,
        "curve": [
            {"n": n, "j": j, "bound": v, "log_bound": lv}
            for n, j, v, lv in zip(opt.ns, opt.js, opt.values, opt.log_values)
        ],
    }
    report = _Report("bound", "t2", config, results, provenance)
    report.add_csv("-curve", n=opt.ns, j=opt.js, bound=opt.values)
    return report, 0


# ---------------------------------------------------------------------------
# simulate


def _simulate_config(args) -> tuple[CouplingConfig, dict]:
    from .coupling import CouplingConfig
    from .finite_chain import (
        ProbVector,
        build_grid_walk,
        minorization_pseudo,
        minorization_uniform,
    )

    run = dict(
        n_max=args.n_max,
        replications=args.reps,
        master_seed=_resolve_seed(args.seed),
        record_every=args.record_every,
    )
    if args.grid:
        rows, cols = _parse_grid(args.grid)
        matrix = build_grid_walk(rows, cols)
        start = _default_start(args, matrix.size)
        finder = minorization_pseudo if args.cert == "pseudo" else minorization_uniform
        cert = finder(matrix, args.n0)
        if cert is None:
            raise MathError(f"no {args.cert} overlap at lag {args.n0} for this grid")
        config = CouplingConfig(
            model="finite", matrix=matrix, cert=cert,
            initial_law=ProbVector.delta(matrix.size, start), **run,
        )
        desc = {"model": f"grid {rows}x{cols}", "cert": args.cert,
                "epsilon": str(cert.epsilon), "start": start + 1}
        return config, desc
    if not (args.halfline or args.rwm_laplace):
        raise InputError("select --grid RxC, --halfline, or --rwm-laplace")
    model = "halfline" if args.halfline else "rwm-laplace"
    config = CouplingConfig(model=model, x0=args.x0, burn_in=args.burn_in, **run)
    desc = {"model": model, "x0": args.x0, "burn_in": args.burn_in}
    small = CERTIFICATES[model].small_set
    if small is not None:
        desc["small_set"] = [small.lo, small.hi]
    return config, desc


def _cmd_simulate(args) -> tuple[_Report, int]:
    from .coupling import run_coupling

    config, desc = _simulate_config(args)
    result = run_coupling(config)
    bounds = [minorization_bound(result.epsilon, result.n0, n) for n in result.lattice]

    warnings = []
    for n, p, se, bound in zip(result.lattice, result.p_neq, result.p_neq_se, bounds):
        if p > bound + 3.0 * se:
            warnings.append(
                f"empirical non-coupling {p:.6g} at n={n} exceeds the analytic "
                f"bound {bound:.6g} by more than 3 standard errors (simulation "
                "noise, not a tool failure)"
            )

    cfg = {
        "epsilon": result.epsilon,
        "n0": result.n0,
        **desc,
        "n_max": args.n_max,
        "replications": args.reps,
        "master_seed": config.master_seed,
        "record_every": args.record_every,
    }
    results = result.to_jsonable()
    results["bound_curve"] = [
        {"n": n, "bound": bound} for n, bound in zip(result.lattice, bounds)
    ]
    report = _Report("simulate", desc["model"].split()[0], cfg, results,
                     warnings=warnings)
    report.add_csv(
        "-curve", n=result.lattice, p_neq=result.p_neq, p_neq_se=result.p_neq_se,
        bound=bounds,
    )

    if args.trajectories:
        _dump_trajectories(Path(args.trajectories), result)
    return report, 0


def _dump_trajectories(path: Path, result) -> None:
    import numpy as np

    value = "%d" if np.issubdtype(result.xs.dtype, np.integer) else _FLOAT_FMT
    line = f"%d,%d,{value},{value},%d"
    lines = ["replication,n,x,x_prime,coupled"]
    for r, (xs, xps) in enumerate(zip(result.xs.tolist(), result.xps.tolist())):
        coupled = False
        for n, x, xp in zip(result.lattice, xs, xps):
            coupled = coupled or x == xp
            lines.append(line % (r, n, x, xp, coupled))
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# verify


def _positive_step(name: str, step: float) -> None:
    if not (math.isfinite(step) and step > 0):
        raise InputError(f"{name} must be a positive finite number, got {step}")


def _probe_count(lo: float, hi: float, step: float) -> float:
    """Length of the probe grid ``np.arange(lo, hi + 1e-12, step)``, counted
    without building it (inf when the count overflows a float)."""
    n = (hi + 1e-12 - lo) / step
    return float(math.ceil(n)) if math.isfinite(n) else n


def _cmd_verify(args) -> tuple[_Report, int]:
    import numpy as np

    from . import presets
    from .kernels import (
        MAX_DRIFT_POINTS,
        MAX_PROBE_PAIRS,
        halfline_mixture_kernel,
        laws,
        metropolis_rwm_laplace,
        verify_minorization_numeric,
        verify_univariate_drift,
    )

    if args.condition == "drift":
        if args.preset != "rwm-laplace":
            raise InputError("drift verification ships one preset: rwm-laplace")
        _positive_step("--grid-step", args.grid_step)
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
        kernel, _ = metropolis_rwm_laplace()
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
    _positive_step("--probe-step", args.probe_step)
    if args.preset == "halfline":
        kernel = halfline_mixture_kernel()
        nu = laws.hl_nu_density
        x_range = y_range = (0.0, 50.0)
    elif args.preset == "rwm-laplace":
        kernel, _ = metropolis_rwm_laplace()
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


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcbounds",
        description="Quantitative convergence bounds for Markov chains.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--output", help="directory for report files (default: stdout)")
        p.add_argument(
            "--format", choices=["json", "csv", "both"], default="json",
            help="report format; csv requires --output",
        )

    p = sub.add_parser("finite", help="exact finite-chain analyses")
    p.add_argument(
        "analysis",
        choices=["stationary", "eigen-bound", "minorization", "pseudo", "tv-exact"],
    )
    p.add_argument("--grid", help="grid model, e.g. 3x3")
    p.add_argument("--matrix-file", help="JSON matrix file with 'p/q' entries")
    p.add_argument("--n0", type=int, default=1, help="transition lag (default 1)")
    p.add_argument("--start", type=int, help="1-based start state (grids: center)")
    p.add_argument("--target", type=int, help="1-based target state for eigen-bound")
    p.add_argument("--delta", type=float, default=0.01, help="threshold (default 0.01)")
    p.add_argument(
        "--n-max", "--n", dest="n_max", type=int, default=30,
        help="curve length for tv-exact (default 30)",
    )
    add_output(p)
    p.set_defaults(func=_cmd_finite)

    p = sub.add_parser("bound", help="analytic bound calculators")
    p.add_argument("theorem", choices=["t1", "t2"], help="t1: geometric overlap bound; t2: drift/overlap two-term bound")
    p.add_argument("--epsilon", help="overlap constant for t1 (float or p/q)")
    p.add_argument(
        "--pointprocess", metavar="C,D",
        help="derive the t1 overlap constant from the particle-chain parameters",
    )
    p.add_argument("--n0", type=int, default=1, help="lag for t1 (default 1)")
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--n-max", type=int, help="extend the t1 curve to this n")
    p.add_argument("--preset", default="rwm-laplace", help="t2 constant preset")
    p.add_argument(
        "--expected-h", choices=["analytic", "fallback"], default="analytic",
        help="use the analytic stationary mean of h or the moment-bound fallback",
    )
    p.add_argument("--check-n", type=int, default=LAPLACE_SCHEDULE[0],
                   help="regression point: n")
    p.add_argument("--check-j", type=int, default=LAPLACE_SCHEDULE[1],
                   help="regression point: j")
    add_output(p)
    p.set_defaults(func=_cmd_bound_dispatch)

    p = sub.add_parser("simulate", help="coupling Monte Carlo")
    p.add_argument("--grid", help="finite grid model, e.g. 3x3")
    p.add_argument("--halfline", action="store_true")
    p.add_argument("--rwm-laplace", action="store_true")
    p.add_argument("--cert", choices=["uniform", "pseudo"], default="pseudo",
                   help="certificate for finite models (default pseudo)")
    p.add_argument("--n0", type=int, default=2, help="lag for finite certificates")
    p.add_argument("--start", type=int, help="1-based start state for finite models")
    p.add_argument("--x0", type=float, default=0.0, help="start point, continuous models")
    p.add_argument("--n-max", type=int, default=60)
    p.add_argument("--reps", type=int, default=10_000)
    p.add_argument("--seed", type=int, help="master seed (fallback: MCB_SEED, then 0)")
    p.add_argument("--burn-in", type=int, default=20_000,
                   help="auxiliary-chain steps for the stationary start (continuous)")
    p.add_argument("--record-every", type=int, default=1,
                   help="record every k-th lattice point")
    p.add_argument("--trajectories", help="write per-trajectory CSV to this path")
    add_output(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="numeric drift/overlap verification")
    p.add_argument("condition", choices=["drift", "minorization"])
    p.add_argument("--preset", default="rwm-laplace",
                   help="drift: rwm-laplace; minorization: halfline or rwm-laplace")
    p.add_argument("--lam", type=float, help="override the drift rate")
    p.add_argument("--b", type=float, help="override the drift offset")
    p.add_argument("--grid-lo", type=float, default=-10.0)
    p.add_argument("--grid-hi", type=float, default=10.0)
    p.add_argument("--grid-step", type=float, default=0.05)
    p.add_argument("--probe-step", type=float, default=0.05)
    p.add_argument("--tolerance", type=float, default=1e-6)
    add_output(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def _cmd_bound_dispatch(args):
    if args.theorem == "t1" and not (args.epsilon or args.pointprocess):
        raise InputError("bound t1 requires --epsilon or --pointprocess C,D")
    return _cmd_bound(args)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = args.func(args)
        _emit(report, args)
        return code
    except InputError as exc:
        print(f"mcbounds: error: {exc}", file=sys.stderr)
        return 2
    except McbError as exc:
        print(f"mcbounds: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
