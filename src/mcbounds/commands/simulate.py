"""``mcbounds simulate``: seeded coupling Monte Carlo against the geometric bound."""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING

from ..bounds import CERTIFICATES, minorization_bound
from ..cli import _dump_trajectories, _Report
from ..errors import InputError, MathError
from . import _default_start, _parse_grid, _require_printable

if TYPE_CHECKING:
    from ..coupling import CouplingConfig


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


def _simulate_config(args) -> tuple[CouplingConfig, dict]:
    from ..coupling import CouplingConfig

    run = dict(
        n_max=args.n_max,
        replications=args.reps,
        master_seed=_resolve_seed(args.seed),
        record_every=args.record_every,
    )
    if args.grid:
        from ..finite_chain import (
            ProbVector,
            build_grid_walk,
            minorization_pseudo,
            minorization_uniform,
        )

        rows, cols = _parse_grid(args.grid)
        matrix = build_grid_walk(rows, cols)
        start = _default_start(args, matrix.size)
        _require_printable("--n0", args.n0, matrix.denominator)
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


def run(args) -> tuple[_Report, int]:
    from ..coupling import run_coupling

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
