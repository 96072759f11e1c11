"""``mcbounds bound``: the analytic bound calculators ``t1`` and ``t2``."""

from __future__ import annotations

import math
from fractions import Fraction

from ..bounds import (
    LAPLACE_SCHEDULE,
    drift_minorization_bound,
    minorization_crossing,
    minorization_curve,
    optimize_drift_minorization,
    point_process_overlap,
)
from ..cli import _Report
from ..errors import InputError


def _parse_rational(text: str) -> Fraction:
    try:
        if "/" in text:
            return Fraction(text)
        value = Fraction(float(text))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InputError(f"cannot parse {text!r} as a probability") from exc
    rounded = value.limit_denominator(10**12)
    if value > 0 and rounded == 0:
        raise InputError(
            f"epsilon {text} rounds to 0 at denominators up to 10**12; pass it as p/q"
        )
    return rounded


def run(args) -> tuple[_Report, int]:
    if args.theorem == "t1":
        if not (args.epsilon or args.pointprocess):
            raise InputError("bound t1 requires --epsilon or --pointprocess C,D")
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
    from .. import presets

    if args.preset != "rwm-laplace":
        raise InputError("bound t2 currently ships one preset: rwm-laplace")
    inputs, provenance = presets.laplace_drift_minorization_inputs(expected_h=args.expected_h)
    check_n = LAPLACE_SCHEDULE[0] if args.check_n is None else args.check_n
    check_j = LAPLACE_SCHEDULE[1] if args.check_j is None else args.check_j
    opt = optimize_drift_minorization(inputs, args.delta)
    bound_at_crossing = opt.value_at(opt.crossing)
    config = {
        "preset": args.preset,
        "delta": args.delta,
        "expected_h": args.expected_h,
        "check_n": check_n,
        "check_j": check_j,
    }
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
        "optimal_j": opt.js[opt.ns.index(opt.crossing)],
        "bound_at_crossing": bound_at_crossing,
        "log_bound_at_crossing": math.log(bound_at_crossing),
        "schedule_point": {
            "n": check_n,
            "j": check_j,
            "bound": drift_minorization_bound(inputs, check_n, check_j),
        },
        "curve": [
            {"n": n, "j": j, "bound": v, "log_bound": math.log(v)}
            for n, j, v in zip(opt.ns, opt.js, opt.values)
        ],
    }
    report = _Report("bound", "t2", config, results, provenance)
    report.add_csv("-curve", n=opt.ns, j=opt.js, bound=opt.values)
    return report, 0
