"""Command-line front end.

Subcommands: ``finite`` (exact chain analyses), ``bound`` (analytic bound
calculators), ``simulate`` (coupling Monte Carlo), ``verify`` (numeric drift
and overlap checks). Reports are JSON (stdout, or files under ``--output``)
with optional CSV curves; exact rationals are serialized as "p/q" strings.
Exit codes: 0 success, 2 usage or configuration error, 3 mathematical or
verification failure.

The parser (one per mode, declaring only the options that mode reads), the
option checks every command shares and the report writers live here; each
imports what it uses when it runs, so parsing loads nothing beyond
``argparse``. Once the checks pass, ``main`` imports the command's module from
``mcbounds.commands``, which loads only the layers that command needs:
``bound`` and a continuous-chain ``simulate`` load no finite-chain code, and
``bound`` and every ``finite`` analysis but ``eigen-bound`` run without numpy.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__

_FLOAT_FMT = "%.17g"


def _csv_cell(value) -> str:
    """The one CSV cell rule: None is empty, an int is exact, a number is %.17g."""
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return _FLOAT_FMT % value


def _nonfinite_key(value, key: str = "") -> str | None:
    """Where the first NaN or infinity in a JSON-like ``value`` sits, as
    ``a.b[2].c``, or None."""
    import math

    if isinstance(value, float):
        return None if math.isfinite(value) else key
    if isinstance(value, dict):
        items = ((f"{key}.{k}" if key else str(k), v) for k, v in sorted(value.items()))
    elif isinstance(value, (list, tuple)):
        items = ((f"{key}[{i}]", v) for i, v in enumerate(value))
    else:
        return None
    for where, item in items:
        found = _nonfinite_key(item, where)
        if found is not None:
            return found
    return None


def _check_ranges(args) -> None:
    """Refuse an out-of-range option shared by several commands, and a
    ``simulate`` option its model does not read, once, before any command runs."""
    import math

    from .errors import InputError, integer

    opts = vars(args)  # not getattr: a check is no use of an option
    if args.command == "simulate":  # --cert, --n0 and --start are --grid's alone
        others = ("x0", "burn_in") if opts["grid"] is not None else ("cert", "n0", "start")
        given = ["--" + name.replace("_", "-") for name in others if opts[name] is not None]
        if given:
            raise InputError(f"{', '.join(given)} cannot be given with --{args.model or 'grid'}")
    delta, n_max, tolerance = opts.get("delta"), opts.get("n_max"), opts.get("tolerance")
    if delta is not None and not 0 < delta < 1:
        raise InputError(f"delta must be in (0, 1), got {delta}")
    if opts.get("n0") is not None:
        opts["n0"] = integer("n0", opts["n0"], 1)
    if n_max is not None:
        opts["n_max"] = integer("n_max", n_max, 0)
    if tolerance is not None and not 0 <= tolerance < math.inf:
        raise InputError(f"tolerance must be finite and >= 0, got {tolerance}")
    for name in ("grid_step", "probe_step"):
        step = opts.get(name)
        if step is not None and not 0 < step < math.inf:
            option = "--" + name.replace("_", "-")
            raise InputError(f"{option} must be a positive finite number, got {step}")


def _is_stdout(path) -> bool:
    """Whether ``path`` names the file that fd 1 has open."""
    import os

    try:
        return os.path.samestat(os.stat(path), os.fstat(1))
    except OSError:
        return False


def _replacing(path):
    """A text file to write ``path`` through, as a context manager: the one
    way a command writes a file. A new or regular file (through any symlink)
    is written to a temporary file beside it, which replaces it when the
    block ends without an error and is removed on any error, so a refused or
    failed run leaves no new file and an existing one as it was. The file
    that stdout has open, such as /dev/stdout redirected to a file, is
    written through a copy of fd 1, sharing its offset with the report that
    follows; a path that exists but is no regular file, such as a device or
    a pipe, is written in place. A path that cannot be written, new or
    existing, is an ``InputError`` naming it."""
    import contextlib
    import os

    from .errors import InputError

    @contextlib.contextmanager
    def replacing():
        temp = None
        try:
            if _is_stdout(path):  # not reopened: that would truncate it
                out = open(os.dup(1), "w")
            elif path.exists() and not path.is_file():  # follows symlinks
                out = open(path, "w")
            else:
                if path.exists():
                    open(path, "a").close()  # refuse a file the user cannot write
                target = path.resolve()
                temp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
                out = open(temp, "x")
        except (OSError, RuntimeError) as exc:  # resolve raises RuntimeError on a loop
            raise InputError(f"cannot write {path}: {getattr(exc, 'strerror', exc)}") from exc
        try:
            with out:
                yield out
            if temp:
                os.replace(temp, target)
        except BaseException as exc:
            if temp:
                temp.unlink(missing_ok=True)
            if isinstance(exc, OSError):
                raise InputError(f"cannot write {path}: {exc.strerror}") from exc
            raise

    return replacing()


def _prepare_outputs(args) -> list:
    """Refuse CSV tables without ``--output`` and create the ``--output``
    directory, before any command runs, so a bad output choice costs no
    work; return the directories this created, deepest first. The files
    themselves are written through ``_replacing``."""
    from itertools import takewhile
    from pathlib import Path

    from .errors import InputError

    if args.output is None:
        if args.format != "json":
            raise InputError(f"--format {args.format} requires --output DIR")
        return []
    outdir = Path(args.output)
    try:
        created = list(takewhile(lambda d: not d.exists(), (outdir, *outdir.parents)))
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create {outdir}: {exc.strerror}") from exc
    return created


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
    ``--output``.

    JSON (RFC 8259) has no NaN or infinity, so a report or table that holds
    one is a ``MathError`` naming where, and nothing is printed or written.
    A stdout that cannot take the report, such as a pipe whose reader has
    gone, is an ``InputError``; fd 1 then points at the null device, so the
    flush at exit writes nothing more.
    """
    import contextlib
    import json
    import os
    from pathlib import Path

    from .errors import InputError, MathError

    try:
        text = json.dumps(report.payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        key = _nonfinite_key(report.payload)
        if key is None:
            raise
        raise MathError(f"the report holds a non-finite number at {key}") from None
    if args.output is None:  # csv without --output was refused before the run
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            os.close(devnull)
            raise InputError(f"cannot write stdout: {exc.strerror}") from exc
        return
    outdir = Path(args.output)  # made by _prepare_outputs
    stem = f"{report.command}-{report.analysis}"
    tables = report.csv_tables if args.format != "json" else {}
    for suffix, columns in tables.items():
        key = _nonfinite_key(columns)
        if key is not None:
            raise MathError(f"{stem}{suffix}.csv would hold a non-finite number at {key}")
    files = {f"{stem}.json": text} if args.format != "csv" else {}
    for suffix, columns in tables.items():
        lines = [",".join(columns)]
        lines += [",".join(map(_csv_cell, row)) for row in zip(*columns.values())]
        files[f"{stem}{suffix}.csv"] = "\n".join(lines) + "\n"
    with contextlib.ExitStack() as stack:  # no file is replaced until all are written
        for name, body in files.items():
            stack.enter_context(_replacing(outdir / name)).write(body)


def _dump_trajectories(out, lattice, first: int, xs, xps) -> None:
    """Write the ``--trajectories`` CSV rows of one block of replications to
    the text file ``out``: row r of the recorded states ``xs``/``xps``
    (replications x ``lattice`` points) is replication ``first + r``. Grid
    states are written 1-based, as every report labels them. The header goes
    before the first block's rows."""
    import numpy as np

    if np.issubdtype(xs.dtype, np.integer):
        line, xs, xps = "%d,%d,%d,%d,%d\n", xs + 1, xps + 1
    else:
        line = f"%d,%d,{_FLOAT_FMT},{_FLOAT_FMT},%d\n"
    if first == 0:
        out.write("replication,n,x,x_prime,coupled\n")
    for r, (x_row, xp_row) in enumerate(zip(xs, xps), first):
        coupled = False
        rows = []
        for n, x, xp in zip(lattice, x_row.tolist(), xp_row.tolist()):
            coupled = coupled or x == xp
            rows.append(line % (r, n, x, xp, coupled))
        out.write("".join(rows))


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        import re

        # argparse's own pattern has no exponent, so it reads -1e3 as an option
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE
        )

    def error(self, message):  # one line, as every other refusal
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mcbounds",
                     description="Quantitative convergence bounds for Markov chains.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_modes(command, help):
        return sub.add_parser(command, help=help).add_subparsers(dest="analysis", required=True)

    def add_mode(modes, name, help, tables=True, **defaults):
        # no abbreviations: finite pseudo --n 5 would mean --n0 5
        p = modes.add_parser(name, help=help, description=help, allow_abbrev=False)
        p.set_defaults(format="json", **defaults)
        p.add_argument("--output", help="directory for report files (default: stdout)")
        if tables:  # only a report with CSV tables has a format to choose
            p.add_argument("--format", choices=["json", "csv", "both"], default="json",
                           help="report format; csv requires --output")
        return p

    finite = add_modes("finite", "exact finite-chain analyses")
    options = {  # of the finite analyses: flags, then settings
        "n0": (["--n0"], {"type": int, "help": "transition lag (default 1)"}),
        "start": (["--start"], {"type": int, "help": "1-based start state (grids: center)"}),
        "target": (["--target"], {"type": int, "help": "1-based target state (default: start)"}),
        "delta": (["--delta"], {"type": float, "help": "threshold (default 0.01)"}),
        "n_max": (["--n-max", "--n"], {"type": int, "help": "curve length (default 30)"}),
    }
    for name, help, tables, reads in (
        ("stationary", "exact stationary law", False, ""),
        ("eigen-bound", "spectral bound at a target state", True, "start target delta"),
        ("minorization", "uniform overlap of P^n0", False, "n0 delta"),
        ("pseudo", "pseudo-minorization overlap of P^n0", False, "n0 delta"),
        ("tv-exact", "exact total variation curve and bounds", True, "n0 start delta n_max"),
    ):
        # each report echoes n0, delta and n_max: at these defaults if unread
        p = add_mode(finite, name, help, tables, n0=1, delta=0.01, n_max=30)
        model = p.add_mutually_exclusive_group(required=True)
        model.add_argument("--grid", help="grid model, e.g. 3x3")
        model.add_argument("--matrix-file", help="JSON matrix file with 'p/q' entries")
        for dest in reads.split():
            flags, settings = options[dest]
            p.add_argument(*flags, **settings)

    bound = add_modes("bound", "analytic bound calculators")
    p = add_mode(bound, "t1", "geometric overlap bound")
    overlap = p.add_mutually_exclusive_group(required=True)
    overlap.add_argument("--epsilon", help="overlap constant (float or p/q)")
    overlap.add_argument("--pointprocess", metavar="C,D",
                         help="derive the overlap constant from the particle-chain parameters")
    p.add_argument("--n0", type=int, default=1, help="lag (default 1)")
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--n-max", type=int, help="extend the curve to this n")
    p = add_mode(bound, "t2", "drift/overlap two-term bound")
    # chain keys spelled out, here and below: parsing loads no bounds (test_parsing_loads_no_layer)
    p.add_argument("--preset", choices=["rwm-laplace"], default="rwm-laplace")
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--expected-h", choices=["analytic", "fallback"], default="analytic",
                   help="use the analytic stationary mean of h or the moment-bound fallback")
    # the defaults are the preset's drift schedule, which `bound t2` fills in
    p.add_argument("--check-n", type=int, help="schedule point: n (default: the preset's, 120000)")
    p.add_argument("--check-j", type=int, help="schedule point: j (default: the preset's, 274)")

    # one parser, the model being a flag; _check_ranges refuses the others'
    p = add_mode(sub, "simulate", "coupling Monte Carlo")
    model = p.add_mutually_exclusive_group(required=True)
    model.add_argument("--grid", help="finite grid model, e.g. 3x3")
    model.add_argument("--halfline", action="store_const", dest="model", const="halfline")
    model.add_argument("--rwm-laplace", action="store_const", dest="model", const="rwm-laplace")
    p.add_argument("--cert", choices=["uniform", "pseudo"], help="--grid only (default pseudo)")
    p.add_argument("--n0", type=int, help="--grid: certificate lag (default 2)")
    p.add_argument("--start", type=int, help="--grid: 1-based start state")
    p.add_argument("--x0", type=float, help="continuous models: start point (default 0)")
    p.add_argument("--n-max", type=int, default=60)
    p.add_argument("--reps", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--burn-in", type=int, help="continuous models: kernel steps after "
                                               "the exact stationary start (default 0)")
    p.add_argument("--record-every", type=int, default=1, help="record every k-th lattice point")
    p.add_argument("--trajectories", help="write per-trajectory CSV to this path")

    verify = add_modes("verify", "numeric drift/overlap verification")
    p = add_mode(verify, "drift", "drift condition on a grid of states")
    p.add_argument("--preset", choices=["rwm-laplace"], default="rwm-laplace")
    p.add_argument("--lam", type=float, help="override the drift rate")
    p.add_argument("--b", type=float, help="override the drift offset")
    p.add_argument("--grid-lo", type=float, default=-10.0)
    p.add_argument("--grid-hi", type=float, default=10.0)
    p.add_argument("--grid-step", type=float, default=0.05)
    p.add_argument("--tolerance", type=float, default=1e-6)
    p = add_mode(verify, "minorization", "overlap on a grid of state pairs", tables=False)
    p.add_argument("--preset", choices=["halfline", "rwm-laplace"], default="rwm-laplace")
    p.add_argument("--probe-step", type=float, default=0.05)
    p.add_argument("--tolerance", type=float, default=1e-6)

    return parser


def main(argv=None) -> int:
    """Run one command line; return the exit code.

    Also registers ``gc.freeze`` to run at exit, once however often ``main``
    is called: interpreter finalization then skips the collector's walk over
    the start-up heap (numpy, the layers, argparse), which the OS reclaims.
    No output waits for a finalizer: each file is closed once written, and
    the interpreter flushes stdout at exit whatever the collector does.
    """
    import atexit
    import gc

    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    args = build_parser().parse_args(argv)
    from importlib import import_module

    from .errors import InputError, McbError

    created = []
    try:
        _check_ranges(args)
        created = _prepare_outputs(args)
        command = import_module(f".commands.{args.command}", __package__)
        report, code = command.run(args)
        _emit(report, args)
        return code
    except InputError as exc:
        print(f"mcbounds: error: {exc}", file=sys.stderr)
        code = 2
    except McbError as exc:
        print(f"mcbounds: {exc}", file=sys.stderr)
        code = 3
    # a refused run takes back the --output directories it made, while empty
    for directory in created:
        try:
            directory.rmdir()
        except OSError:
            break
    return code


if __name__ == "__main__":
    # the command modules import this module by its package name; under
    # `python -m mcbounds.cli` that name is registered for this run instead
    # of loading and executing the file a second time
    sys.modules.setdefault(f"{__package__}.cli", sys.modules[__name__])
    sys.exit(main())
