"""``mcbounds simulate``: seeded coupling Monte Carlo of a grid or a built-in
chain, against the geometric bound in ``uniform`` mode only."""

from __future__ import annotations

from contextlib import nullcontext
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

from ..bounds import minorization_bound
from ..cli import _dump_trajectories, _replacing, _Report
from . import _default_start, _load_model, _require_printable

if TYPE_CHECKING:
    from ..coupling import CouplingConfig


def _simulate_config(args) -> tuple[CouplingConfig, dict]:
    from ..coupling.runner import ChainModel, CouplingConfig, FiniteModel

    run = dict(n_max=args.n_max, replications=args.reps, master_seed=args.seed,
               record_every=args.record_every)
    if args.grid is not None:
        matrix, name = _load_model(args)
        start = _default_start(args, matrix.size)
        # a model's own options parse to None; `is None` keeps a given 0 or -0.0
        n0 = 2 if args.n0 is None else args.n0
        cert = "pseudo" if args.cert is None else args.cert
        _require_printable("--n0", n0, matrix.denominator)
        config = CouplingConfig(FiniteModel(matrix, cert, n0), x0=start, **run)
        desc = {"model": name, "cert": cert, "epsilon": str(config.model.certificate().epsilon),
                "start": start + 1}
        return config, desc
    x0 = 0.0 if args.x0 is None else args.x0
    burn_in = 0 if args.burn_in is None else args.burn_in
    config = CouplingConfig(ChainModel(args.model, burn_in), x0=x0, **run)
    desc = {"model": args.model, "x0": x0, "burn_in": burn_in}
    small = config.model.certificate().small_set
    if small is not None:
        desc["small_set"] = [small.lo, small.hi]
    return config, desc


def run(args) -> tuple[_Report, int]:
    from ..coupling import run_coupling

    # the trajectory file is opened before the config is checked, so a path
    # that cannot be written costs no search; each block's paths are written
    # as it ends, and the file replaces the target once the whole run succeeds
    paths = _replacing(Path(args.trajectories)) if args.trajectories else nullcontext()
    with paths as out:
        config, desc = _simulate_config(args)
        on_block = None if out is None else partial(_dump_trajectories, out, config.lattice())
        result = run_coupling(config, on_block)
    cert = config.model.certificate()
    eps = float(cert.epsilon)
    cfg = {
        "epsilon": eps,  # a grid's desc gives it as the exact "p/q"
        "n0": cert.n0,
        **desc,
        "n_max": config.n_max,
        "replications": config.replications,
        "master_seed": config.master_seed,
        "record_every": config.record_every,
    }
    results = result.to_jsonable()
    curve = {"n": result.lattice, "p_neq": result.p_neq, "p_neq_se": result.p_neq_se}
    warnings = []
    # (1-eps)^floor(n/n0) bounds P(T > n) only when every unequal pair flips
    # the coin; a small-set coupling flips it inside C alone, so has no curve
    if result.mode == "uniform":
        bounds = [minorization_bound(eps, cert.n0, n) for n in result.lattice]
        for n, p, se, bound in zip(result.lattice, result.p_neq, result.p_neq_se, bounds):
            if p > bound + 3.0 * se:
                warnings.append(
                    f"empirical non-coupling {p:.6g} at n={n} exceeds the analytic "
                    f"bound {bound:.6g} by more than 3 standard errors"
                )
        results["bound_curve"] = [
            {"n": n, "bound": bound} for n, bound in zip(result.lattice, bounds)
        ]
        curve["bound"] = bounds
    report = _Report("simulate", desc["model"].split()[0], cfg, results,
                     warnings=warnings)
    report.add_csv("-curve", **curve)
    return report, 0
