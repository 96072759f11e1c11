"""Command-line front end.

Subcommands: ``finite`` (exact chain analyses), ``bound`` (analytic bound
calculators), ``simulate`` (coupling Monte Carlo), ``verify`` (numeric drift
and overlap checks). Reports are JSON (stdout, or files under ``--output``)
with optional CSV curves; exact rationals are serialized as "p/q" strings.
Exit codes: 0 success, 2 usage or configuration error, 3 mathematical or
verification failure.

The parser, the option checks every command shares and the report writers
live here; each imports what it uses when it runs, so parsing loads nothing
beyond ``argparse``. Once the checks pass, ``main`` imports the command's
module from ``mcbounds.commands``, which loads only the layers that command
needs: ``bound`` and a continuous-chain ``simulate`` load no finite-chain
code, and ``bound`` and every ``finite`` analysis but ``eigen-bound`` run
without numpy.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__

_FLOAT_FMT = "%.17g"

# the (command, analysis) pairs whose reports have no CSV table; every other
# report has one, so only these may take --format csv without --output, and
# under --output they write their JSON for it
_TABLELESS = {
    ("finite", "stationary"),
    ("finite", "minorization"),
    ("finite", "pseudo"),
    ("verify", "minorization"),
}


def _csv_cell(value) -> str:
    """The one CSV cell rule: None is empty, an int is exact, a number is %.17g."""
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return _FLOAT_FMT % value


def _check_ranges(args) -> None:
    """Refuse an out-of-range option shared by several commands, once, before
    any command runs."""
    import math

    from .errors import InputError

    opts = vars(args)
    delta, n_max, tolerance = opts.get("delta"), opts.get("n_max"), opts.get("tolerance")
    if delta is not None and not 0 < delta < 1:
        raise InputError(f"delta must be in (0, 1), got {delta}")
    if n_max is not None and n_max < 0:
        raise InputError("n_max must be >= 0")
    if tolerance is not None and not 0 <= tolerance < math.inf:
        raise InputError(f"tolerance must be finite and >= 0, got {tolerance}")
    for name in ("grid_step", "probe_step"):
        step = opts.get(name)
        if step is not None and not 0 < step < math.inf:
            option = "--" + name.replace("_", "-")
            raise InputError(f"{option} must be a positive finite number, got {step}")


def _write_text(path, text: str) -> None:
    """Write one output file; a path that cannot be written is a usage error."""
    from .errors import InputError

    try:
        path.write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}") from exc


def _prepare_outputs(args) -> None:
    """Refuse CSV tables without ``--output``, create the ``--output``
    directory and open the ``--trajectories`` file, before any command runs,
    so a bad output choice costs no work.

    The trajectory file is opened for appending, which creates it but leaves
    an existing file as it is until the run writes it.
    """
    from pathlib import Path

    from .errors import InputError

    if args.output is None:
        analysis = getattr(args, "analysis", None) or getattr(args, "condition", None)
        if args.format != "json" and (args.command, analysis) not in _TABLELESS:
            raise InputError(f"--format {args.format} requires --output DIR")
    else:
        outdir = Path(args.output)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise InputError(f"cannot create {outdir}: {exc.strerror}") from exc
    if getattr(args, "trajectories", None):
        path = Path(args.trajectories)
        try:
            path.open("a").close()
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc.strerror}") from exc


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
    """Print the JSON report, or write it and its CSV tables under
    ``--output``; a report without tables writes its JSON under any format."""
    import json
    from pathlib import Path

    text = json.dumps(report.payload, indent=2, sort_keys=True) + "\n"
    if args.output is None:  # a report with tables was refused csv before it ran
        sys.stdout.write(text)
        return
    outdir = Path(args.output)  # made by _prepare_outputs
    stem = f"{report.command}-{report.analysis}"
    tables = report.csv_tables if args.format != "json" else {}
    if args.format != "csv" or not tables:
        _write_text(outdir / f"{stem}.json", text)
    for suffix, columns in tables.items():
        lines = [",".join(columns)]
        lines += [",".join(map(_csv_cell, row)) for row in zip(*columns.values())]
        _write_text(outdir / f"{stem}{suffix}.csv", "\n".join(lines) + "\n")


def _dump_trajectories(path, result) -> None:
    import numpy as np

    value = "%d" if np.issubdtype(result.xs.dtype, np.integer) else _FLOAT_FMT
    line = f"%d,%d,{value},{value},%d"
    lines = ["replication,n,x,x_prime,coupled"]
    for r, (xs, xps) in enumerate(zip(result.xs.tolist(), result.xps.tolist())):
        coupled = False
        for n, x, xp in zip(result.lattice, xs, xps):
            coupled = coupled or x == xp
            lines.append(line % (r, n, x, xp, coupled))
    _write_text(path, "\n".join(lines) + "\n")


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
    # the defaults are bounds.LAPLACE_SCHEDULE, which `bound t2` fills in
    p.add_argument("--check-n", type=int,
                   help="regression point: n (default: the preset's, 120000)")
    p.add_argument("--check-j", type=int,
                   help="regression point: j (default: the preset's, 274)")
    add_output(p)

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
    p.add_argument("--burn-in", type=int, default=0,
                   help="kernel steps after the exact stationary start (continuous; "
                        "default 0)")
    p.add_argument("--record-every", type=int, default=1,
                   help="record every k-th lattice point")
    p.add_argument("--trajectories", help="write per-trajectory CSV to this path")
    add_output(p)

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

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from importlib import import_module

    from .errors import InputError, McbError

    try:
        _check_ranges(args)
        _prepare_outputs(args)
        command = import_module(f".commands.{args.command}", __package__)
        report, code = command.run(args)
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
