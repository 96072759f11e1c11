"""One module per ``mcbounds`` subcommand, named after it.

Each module has ``run(args) -> (report, exit code)`` and is imported by
``cli.main`` only once its command has been parsed and its options and
output paths have been checked, so a start compiles and loads one
command's code, and a refused command line loads none. The helpers below
serve the two commands that read a finite model, ``finite`` and
``simulate --grid``; this package loads them with either command.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from ..errors import InputError, integer

if TYPE_CHECKING:
    from ..finite_chain import StochasticMatrix


def _load_model(args) -> tuple[StochasticMatrix, str]:
    """The chain of --grid or --matrix-file, and its name in the report."""
    # imported here: bound, verify and a continuous simulate load no finite chain
    from ..finite_chain import StochasticMatrix, build_grid_walk

    if args.grid is not None:
        try:
            rows, cols = map(int, args.grid.lower().split("x"))
        except ValueError as exc:
            raise InputError(f"grid must look like 3x3, got {args.grid!r}") from exc
        return build_grid_walk(rows, cols), f"grid {rows}x{cols}"
    try:
        data = json.loads(Path(args.matrix_file).read_text())
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, UTF-8 or int
        raise InputError(f"cannot read matrix file: {exc}") from exc
    return StochasticMatrix.from_json_dict(data), f"file {args.matrix_file}"


def _default_start(args, size: int) -> int:
    """0-based start state: --start is 1-based; grids default to the center."""
    if args.start is not None:
        return integer("--start", args.start, 1, size) - 1
    if args.grid:
        return size // 2  # center cell for odd-sized grids, near-center otherwise
    raise InputError("--start is required with --matrix-file")


def _require_printable(option: str, n: int, den: int, factor: int = 1) -> None:
    """Refuse ``option`` = n when its exact results are too long to print:
    entries of P^n have denominators dividing den**n, and the probabilities
    the command prints from them denominators dividing factor * den**n."""
    digits = n * math.log10(den) + math.log10(factor)
    _require_digits(f"{option} {n} gives", digits, f"; pass a smaller {option}")


def _require_digits(cause: str, digits: float, advice: str = "") -> None:
    """Refuse exact results of ``digits`` (a log10) digits, named by ``cause``:
    Python turns no int of more than ``sys.get_int_max_str_digits()`` into a string."""
    limit = sys.get_int_max_str_digits()
    if limit and digits >= limit:
        raise InputError(
            f"{cause} exact rationals of up to {math.ceil(digits)} digits, "
            f"beyond the {limit} that can be printed{advice}"
        )
