"""``mcbounds finite``: exact analyses of a grid walk or a matrix file."""

from __future__ import annotations

import json
import math
from pathlib import Path

from ..bounds import minorization_bound, minorization_crossing, steps_to_threshold
from ..cli import _Report
from ..errors import InputError
from ..finite_chain import (
    ProbVector,
    StochasticMatrix,
    build_grid_walk,
    eigen_bound,
    exact_tv_curve,
    minorization_pseudo,
    minorization_uniform,
    stationary,
)
from . import _default_start, _parse_grid, _require_printable


def _load_model(args) -> tuple[StochasticMatrix, str]:
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


def run(args) -> tuple[_Report, int]:
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
    if args.analysis in ("minorization", "pseudo", "tv-exact"):
        # these form P^n0 exactly, for the overlap search
        _require_printable("--n0", args.n0, matrix.denominator)

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
        pi = stationary(matrix)
        # a distance's denominator divides 2 * den**n * (that of pi)
        pi_den = math.lcm(*(v.denominator for v in pi))
        _require_printable("--n", args.n_max, matrix.denominator, 2 * pi_den)
        curve = exact_tv_curve(
            ProbVector.delta(size, start), matrix, args.n_max, threshold=args.delta, pi=pi
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
