"""One module per ``mcbounds`` subcommand, named after it.

Each module has ``run(args) -> (report, exit code)`` and is imported by
``cli.main`` only once its command has been parsed and its options and
output paths have been checked, so a start compiles and loads one
command's code, and a refused command line loads none. The helpers below
serve the two commands that read a finite model, ``finite`` and
``simulate --grid``; this package loads them with either command.
"""

from __future__ import annotations

import math
import sys

from ..errors import InputError


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        rows, cols = text.lower().split("x")
        return int(rows), int(cols)
    except ValueError as exc:
        raise InputError(f"grid must look like 3x3, got {text!r}") from exc


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


def _require_printable(option: str, n: int, den: int, factor: int = 1) -> None:
    """Refuse ``option`` = n when its exact results are too long to print.

    Entries of P^n have denominators dividing den**n, and the probabilities
    the command prints from them denominators dividing factor * den**n. Python
    turns no int of more than ``sys.get_int_max_str_digits()`` digits into a
    string, so such a run would end in a traceback after all its work.
    """
    limit = sys.get_int_max_str_digits()
    digits = n * math.log10(den) + math.log10(factor)
    if limit and digits >= limit:
        raise InputError(
            f"{option} {n} gives exact rationals of up to {math.ceil(digits)} digits, "
            f"beyond the {limit} that can be printed; pass a smaller {option}"
        )
