"""The pinned outputs: command lines whose bytes the tests compare with the
committed files under ``tests/golden/``.

Each case's stdout is its golden file ``<id>.json``, or another case's when
both print the same report. A case with ``reports`` is run a second time
with ``--output DIR --format both``: that run prints nothing, its JSON report
must equal the stdout file and its CSV is ``<id>.csv``. A trajectory CSV
(megabytes per run) is pinned by its SHA-256 in the table instead.

Run as a script, this module rewrites ``tests/golden/`` from the code it
imports and prints each trajectory digest that differs from the table; a
re-pin is then read as ``git diff tests/golden``. The tests only read the
golden files::

    PYTHONPATH=src python tests/pinned.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

from mcbounds.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


class Case(NamedTuple):
    id: str  # file-name safe: the test id and the golden files' stem
    argv: str
    same_stdout_as: str = ""  # the id whose stdout file this case shares
    reports: bool = False
    trajectories: str = ""  # SHA-256 of the --trajectories CSV

    @property
    def stdout_file(self) -> str:
        return f"{self.same_stdout_as or self.id}.json"

    @property
    def csv_file(self) -> str:
        return f"{self.id}.csv"

    @property
    def golden_files(self) -> set[str]:
        return {self.stdout_file, self.csv_file} if self.reports else {self.stdout_file}


CASES = (
    # exact: rational algebra and the bound calculators
    Case("tv-exact-8x8", "finite tv-exact --grid 8x8 --n0 4 --n 100", reports=True),
    Case("t1-half", "bound t1 --epsilon 1/2 --n0 1"),
    Case("t1-9-80", "bound t1 --epsilon 9/80 --n0 2"),
    Case("t1-0.117", "bound t1 --epsilon 0.117 --n0 1"),
    Case("t1-pointprocess", "bound t1 --pointprocess 0.1,0.1"),
    Case("t2-rwm-laplace", "bound t2 --preset rwm-laplace --delta 0.01"),
    Case("t2-fallback", "bound t2 --expected-h fallback"),
    Case("stationary-8x8", "finite stationary --grid 8x8"),
    Case("pseudo-3x3", "finite pseudo --grid 3x3 --n0 2"),
    Case("minorization-3x3", "finite minorization --grid 3x3 --n0 2"),
    Case("eigen-bound-3x3", "finite eigen-bound --grid 3x3"),
    # quadrature checks
    Case("minorization-rwm-laplace",
         "verify minorization --preset rwm-laplace --probe-step 0.025"),
    Case("drift-rwm-laplace", "verify drift --preset rwm-laplace --grid-step 0.005"),
    Case("minorization-halfline", "verify minorization --preset halfline"),
    # the random stream contract: a seed gives these bytes on every version
    # until a change says otherwise
    Case("grid-pseudo", "simulate --grid 3x3 --cert pseudo --n-max 12 --reps 500 --seed 7"),
    Case("grid-uniform", "simulate --grid 3x3 --cert uniform --n-max 12 --reps 500 --seed 7"),
    Case("halfline", "simulate --halfline --n-max 6 --reps 300 --burn-in 50 --seed 7"),
    Case("rwm-laplace",
         "simulate --rwm-laplace --n-max 40 --reps 50 --burn-in 50 --record-every 4 --seed 7",
         trajectories="4c021b896e5d768bb78f54be55012264faaac0b94f78039d78977eb33741914a"),
    Case("halfline-burn-in-0", "simulate --halfline --n-max 6 --reps 300 --seed 7",
         trajectories="d233a22a2698de5c351c3d00650c5af9836164cdade52eb98341fb29b7b64efa"),
    Case("grid-pseudo-trajectories",
         "simulate --grid 3x3 --cert pseudo --n-max 12 --reps 500 --seed 7",
         same_stdout_as="grid-pseudo",
         trajectories="c7ca87f52fd758705bb5d57c2033905277084f3d1eb8a8623cadf7b74e37f32c"),
    # runs over several blocks of engines.BLOCK = 4096 replications
    Case("grid-pseudo-3-blocks",
         "simulate --grid 3x3 --cert pseudo --n-max 6 --reps 9000 --seed 7",
         trajectories="768b373a7b63e6e78a9315b531ec979910d6ca85e9663a3155f7b672eb875c55"),
    Case("grid-uniform-2-blocks",
         "simulate --grid 3x3 --cert uniform --n-max 6 --reps 5000 --seed 7",
         trajectories="ea50d2b23ee59912821ea6a228af2fb05fbf2c41f2d153ceac11349dcbacc54c"),
    Case("halfline-3-blocks", "simulate --halfline --n-max 4 --reps 9000 --burn-in 5 --seed 7"),
    Case("rwm-laplace-2-blocks",
         "simulate --rwm-laplace --n-max 24 --reps 5000 --record-every 4 --seed 7",
         trajectories="8a49b402fa8c4b85eee0d5ef7e244868d48a854362adef693e79af929f7b4745"),
)


def run(case: Case, tmp: Path) -> tuple[list[tuple[str, bytes]], bytes | None]:
    """Run ``case`` in process, writing its files under the directory ``tmp``.

    Returns (golden file name, bytes) for each output, and the trajectory
    CSV's bytes (None for a case without ``trajectories``).
    """
    argv = case.argv.split()
    paths = tmp / "paths.csv"
    stdout = _stdout(argv + ["--trajectories", str(paths)] if case.trajectories else argv)
    outputs = [(case.stdout_file, stdout)]
    if case.reports:
        out = tmp / "reports"
        printed = _stdout([*argv, "--output", str(out), "--format", "both"])
        if printed:
            raise AssertionError(f"{case.id}: a run with --output printed {printed[:80]!r}")
        (report,) = out.glob("*.json")
        (csv,) = out.glob("*.csv")
        outputs += [(case.stdout_file, report.read_bytes()), (case.csv_file, csv.read_bytes())]
    return outputs, paths.read_bytes() if case.trajectories else None


def _stdout(argv: list[str]) -> bytes:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    if code != 0:
        raise AssertionError(f"mcbounds {' '.join(argv)} exited {code}")
    return buffer.getvalue().encode()


def write_golden() -> int:
    """Rewrite ``GOLDEN`` from every case; return 1 if a trajectory digest
    differs from the table or two outputs of one golden file differ."""
    written: dict[str, bytes] = {}
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            (Path(tmp) / case.id).mkdir()
            outputs, paths = run(case, Path(tmp) / case.id)
            for name, data in outputs:
                if written.setdefault(name, data) != data:
                    print(f"{case.id}: two outputs of {name} differ", file=sys.stderr)
                    status = 1
            if paths is not None and hashlib.sha256(paths).hexdigest() != case.trajectories:
                print(f"{case.id}: trajectories sha256 {hashlib.sha256(paths).hexdigest()}",
                      file=sys.stderr)
                status = 1
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.iterdir():
        stale.unlink()
    for name, data in written.items():
        (GOLDEN / name).write_bytes(data)
    return status


if __name__ == "__main__":
    sys.exit(write_golden())
