"""End-to-end and per-layer benchmark of the mcbounds command line.

    python3 perfbench/run.py --workload {exact,coupling,verify} --seed N \
        --seconds S --trace {0,1}

Closed loop: one client runs one ``mcbounds`` invocation at a time, each in a
fresh interpreter started through ``child.py``, with default ``--workers``.
An invocation is timed from process spawn until it exits, after writing its
report. A pass runs the workload's whole list of invocations; passes repeat
until S seconds have elapsed, and at least ``min_passes`` times.

``--trace 0`` reports the end-to-end metrics (medians over passes; times
scaled to a reference machine speed by ``probe.py``, run between invocations).
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics of the traced pass. Every output is checked in both modes.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` (invocations that exited other than expected or failed a check)
and ``metrics``. A record with provenance and per-invocation detail is
written under ``.perfbench/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing
from child import SETUP_MARK

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
INVOCATION_TIMEOUT_S = 150

# Speed probe (probe.py): a fresh interpreter that imports the program's heavy
# dependencies, not the program, then runs a fixed pure-Python loop. A shared
# 2-core host can drift in speed by a quarter and more over minutes, and both
# metrics drift with the probe, so setup_s is scaled by
# REFERENCE_STARTUP_S / (median probe start-up of the run) and run_s by
# REFERENCE_PROBE_S / (median probe wall of the run): seconds at the
# reference speed. The unscaled values are kept in the results record.
PROBE = HERE / "probe.py"
PROBE_EVERY_S = 4.0  # invocation seconds between two probes
REFERENCE_STARTUP_S = 0.8
REFERENCE_PROBE_S = 1.35


@dataclass(frozen=True)
class Invocation:
    """One command line, expected to exit 0; ``{out}``, ``{traj}`` and ``{seed}``
    are filled per run."""

    label: str
    args: tuple[str, ...]
    rep_steps: int = 0  # replications x (lattice steps + burn-in)


@dataclass(frozen=True)
class Workload:
    invocations: tuple[Invocation, ...]
    min_passes: int = 1


def _inv(label: str, line: str, rep_steps: int = 0) -> Invocation:
    return Invocation(label, tuple(line.split()), rep_steps=rep_steps)


# Sizes: the exact and verify lists are the reference lists. Coupling
# replication counts are one tenth of the reference (100000, 10000, 1000,
# 5000), so that a run holds the several passes whose median is steady on a
# noisy 2-core machine; two passes at least, for the same-seed byte check.
WORKLOADS = {
    # exact rational algebra and bound calculators; no engine or quadrature work
    "exact": Workload(
        invocations=(
            _inv("finite_tv_exact_8x8",
                 "finite tv-exact --grid 8x8 --n0 4 --n 100 --output {out} --format both"),
            _inv("finite_stationary_8x8", "finite stationary --grid 8x8"),
            _inv("finite_pseudo_3x3", "finite pseudo --grid 3x3 --n0 2"),
            _inv("finite_minorization_3x3", "finite minorization --grid 3x3 --n0 2"),
            _inv("finite_eigen_bound_3x3", "finite eigen-bound --grid 3x3"),
            _inv("bound_t1_half", "bound t1 --epsilon 1/2 --n0 1"),
            _inv("bound_t1_9_80", "bound t1 --epsilon 9/80 --n0 2"),
            _inv("bound_t1_0_117", "bound t1 --epsilon 0.117 --n0 1"),
            _inv("bound_t1_pointprocess", "bound t1 --pointprocess 0.1,0.1"),
            _inv("bound_t2_rwm_laplace", "bound t2 --preset rwm-laplace --delta 0.01"),
        ),
        min_passes=2,
    ),
    # the three coupling engines, loaded four ways, plus tables and the CSV
    "coupling": Workload(
        invocations=(
            _inv("simulate_grid_3x3",
                 "simulate --grid 3x3 --cert pseudo --n-max 60 --reps 10000 --seed {seed}",
                 rep_steps=10000 * (60 // 2)),
            _inv("simulate_halfline",
                 "simulate --halfline --reps 1000 --n-max 12 --burn-in 1000 --seed {seed}",
                 rep_steps=1000 * (12 + 1000)),
            _inv("simulate_rwm_laplace",
                 "simulate --rwm-laplace --reps 100 --n-max 2000 --burn-in 1000 "
                 "--record-every 10 --trajectories {traj} --seed {seed}",
                 rep_steps=100 * (2000 // 2 + 1000)),
            _inv("simulate_grid_5x5",
                 "simulate --grid 5x5 --cert pseudo --n0 6 --n-max 60 --reps 500 --seed {seed}",
                 rep_steps=500 * (60 // 6)),
        ),
        min_passes=2,
    ),
    # quadrature checks; the halfline command crashes at the parent commit and
    # counts as failed
    "verify": Workload(
        invocations=(
            _inv("verify_minorization_rwm_laplace",
                 "verify minorization --preset rwm-laplace --probe-step 0.025"),
            _inv("verify_drift_rwm_laplace",
                 "verify drift --preset rwm-laplace --grid-step 0.005"),
            _inv("verify_minorization_halfline", "verify minorization --preset halfline"),
        ),
    ),
}

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
ALL_LABELS = tuple(inv.label for w in WORKLOADS.values() for inv in w.invocations)
CALL_COUNTS = {
    "finite_chain.matrix_power_calls": "finite_chain.matrix_power_s",
    "finite_chain.evolve_calls": "finite_chain.evolve_s",
    "finite_chain.stationary_calls": "finite_chain.stationary_s",
    "kernels.verify.quad_calls": tracing.QUAD_SPAN,
}
SPAN_METRICS = sorted({name for _, _, name in tracing.SPANS} | {tracing.QUAD_SPAN})


@dataclass
class Outcome:
    """What one invocation did; ``problems`` are failed output checks."""

    label: str
    exit_code: int
    wall_s: float
    setup_s: float | None
    rss_mb: float
    stdout: bytes
    files: dict[str, str]
    emit_bytes: int
    trajectories: str | None
    stderr: str
    sidecar: dict
    problems: list[str] = field(default_factory=list)

    @property
    def digest(self) -> tuple:
        return checks.sha256(self.stdout), self.files, self.trajectories


def _wait(proc: subprocess.Popen) -> tuple[int, float]:
    """Reap ``proc``; returns its exit code and max RSS in MB."""
    killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted, e.g. by SIGTERM: stop the child first
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_pass(invocations, seed: int, workdir: Path, trace: bool,
             probe: SpeedProbe | None = None) -> tuple[float, list[Outcome]]:
    """Run every invocation once, in order, with ``probe`` between them;
    returns (summed invocation wall seconds, outcomes)."""
    prefix = [sys.executable] + (["-X", "importtime"] if trace else [])
    timings = []
    for i, inv in enumerate(invocations):
        if probe is not None:
            probe.before_invocation()
        d = workdir / str(i)
        d.mkdir(parents=True)
        args = [a.format(out=d / "out", traj=d / "traj.csv", seed=seed) for a in inv.args]
        cmd = prefix + [str(CHILD), str(ROOT), str(d / "sidecar.json"), str(int(trace)), "--"]
        with open(d / "stdout", "wb") as out, open(d / "stderr", "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(cmd + args, stdout=out, stderr=err, cwd=d)
            code, rss_mb = _wait(proc)
            end = time.monotonic()
        timings.append((start, end, code, rss_mb))
        if probe is not None:
            probe.unprobed_s += end - start
    wall = sum(end - start for start, end, _, _ in timings)
    return wall, [_collect(inv, workdir / str(i), *t) for i, (inv, t) in
                  enumerate(zip(invocations, timings))]


def _collect(inv: Invocation, d: Path, start, end, code, rss_mb) -> Outcome:
    stdout = (d / "stdout").read_bytes()
    files = {}
    emit_bytes = len(stdout)
    if (d / "out").is_dir():
        for path in sorted((d / "out").iterdir()):
            data = path.read_bytes()
            files[path.name] = checks.sha256(data)
            emit_bytes += len(data)
    traj = d / "traj.csv"
    sidecar_path = d / "sidecar.json"
    sidecar = json.loads(sidecar_path.read_text()) if sidecar_path.exists() else {}
    setup_end = sidecar.get("setup_end")
    return Outcome(
        label=inv.label,
        exit_code=code,
        wall_s=end - start,
        setup_s=None if setup_end is None else setup_end - start,
        rss_mb=rss_mb,
        stdout=stdout,
        files=files,
        emit_bytes=emit_bytes,
        trajectories=checks.sha256(traj.read_bytes()) if traj.exists() else None,
        stderr=(d / "stderr").read_text(errors="replace"),
        sidecar=sidecar,
    )


class Checker:
    """Applies the workload's output checks; exact laws are computed once."""

    def __init__(self, workload: str):
        self.workload = workload
        self.golden = json.loads((HERE / "golden.json").read_text())
        self._validator = None
        self._laws: dict[tuple, tuple] = {}

    @property
    def validator(self):
        if self._validator is None:
            import jsonschema

            schema_path = ROOT / "src" / "mcbounds" / "schemas" / "report.schema.json"
            self._validator = jsonschema.Draft7Validator(json.loads(schema_path.read_text()))
        return self._validator

    def exact_laws(self, grid: str, start: int, lattice: tuple[int, ...]):
        """(law of X_n at each lattice point, pi) for a grid walk, as floats."""
        key = (grid, start, lattice)
        if key not in self._laws:
            from mcbounds.finite_chain import ProbVector, build_grid_walk, evolve, stationary

            rows, cols = (int(v) for v in grid.split("x"))
            P = build_grid_walk(rows, cols)
            law = ProbVector.delta(P.size, start - 1)
            laws, previous = [], 0
            for n in lattice:
                law = evolve(law, P, n - previous)
                previous = n
                laws.append([float(v) for v in law])
            self._laws[key] = (laws, [float(v) for v in stationary(P)])
        return self._laws[key]

    def check(self, outcome: Outcome) -> list[str]:
        label = outcome.label
        problems = []
        if self.workload == "exact":
            problems = checks.check_golden(label, outcome.stdout, outcome.files, self.golden)
            if outcome.files:
                return problems  # the report went to --output; the digests cover it
        try:
            report = json.loads(outcome.stdout)
        except ValueError as exc:
            return problems + [f"{label}: stdout is not a JSON report ({exc})"]
        problems += checks.check_schema(label, report, self.validator)
        if self.workload == "exact":
            return problems + checks.check_named_values(label, report)
        if self.workload == "verify":
            return problems + checks.check_verify(label, report)
        problems += checks.check_coupling_bound(label, report)
        config = report["config"]
        if config["model"].startswith("grid"):
            laws, pi = self.exact_laws(
                config["model"].split()[1], config["start"], tuple(report["results"]["lattice"])
            )
            problems += checks.check_grid_laws(label, report, laws, pi)
        return problems


def evaluate(invocations, passes: list[list[Outcome]], checker: Checker) -> None:
    """Fill each outcome's problems: its own checks, then same bytes in every pass.

    Passes share the seed, and a traced pass must write what an untraced one
    does, so any difference between passes is a problem.
    """
    first = {}
    for outcomes in passes:
        for inv, outcome in zip(invocations, outcomes):
            if outcome.exit_code != 0:
                continue
            outcome.problems = checker.check(outcome)
            if inv.label not in first:
                first[inv.label] = outcome.digest
            elif outcome.digest != first[inv.label]:
                outcome.problems.append(
                    f"{inv.label}: output differs between passes with the same seed"
                )


def is_failed(outcome: Outcome) -> bool:
    return outcome.exit_code != 0 or bool(outcome.problems)


class SpeedProbe:
    """Runs ``probe.py`` between invocations, once ``PROBE_EVERY_S`` seconds of
    invocation time have passed since the last run, so that probes sample the
    machine evenly over a run however its invocations are sized."""

    def __init__(self):
        self.times: list[tuple[float, float]] = []  # (start-up s, wall s) per run
        self.unprobed_s = math.inf

    def before_invocation(self) -> None:
        if self.unprobed_s >= PROBE_EVERY_S:
            self.run()

    def run(self) -> None:
        start = time.monotonic()
        done = subprocess.run([sys.executable, str(PROBE)], check=True, capture_output=True,
                              text=True, timeout=60)
        self.times.append((float(done.stdout) - start, time.monotonic() - start))
        self.unprobed_s = 0.0


def raw_end_to_end(walls: list[float], passes: list[list[Outcome]]) -> dict[str, float]:
    setups = [o.setup_s for p in passes for o in p if o.setup_s is not None]
    return {
        "run_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(max(o.rss_mb for o in p) for p in passes),
    }


def scale_to_reference(raw: dict[str, float],
                       probes: list[tuple[float, float]]) -> dict[str, float]:
    """``raw`` with set-up and run time at the reference machine speed."""
    scaled = dict(raw)
    scaled["setup_s"] *= REFERENCE_STARTUP_S / statistics.median(p[0] for p in probes)
    scaled["run_s"] *= REFERENCE_PROBE_S / statistics.median(p[1] for p in probes)
    return scaled


_IMPORT_LINE = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \|( +)(\S+)")


def startup_imports(stderr: str) -> tuple[float, float]:
    """(all top-level import time, scipy.integrate import time) before set-up ended."""
    total = integrate = 0.0
    for line in stderr.splitlines():
        if line + "\n" == SETUP_MARK:
            break
        match = _IMPORT_LINE.match(line)
        if match is None:
            continue
        cumulative = int(match.group(1)) / 1e6
        if len(match.group(2)) == 1:
            total += cumulative
        if match.group(3) == "scipy.integrate":
            integrate += cumulative
    return total, integrate


def per_layer_metrics(invocations, traced: list[Outcome], traced_wall: float,
                      untraced_wall: float) -> dict[str, float]:
    busy = dict.fromkeys(SPAN_METRICS, 0.0)
    calls = dict.fromkeys(SPAN_METRICS, 0)
    counts: dict[str, int] = {}
    worst_quad_err = 0.0
    imports, integrate_imports = [], []
    for outcome in traced:
        spans = outcome.sidecar.get("spans", [])
        for (name, *_), self_s in zip(spans, tracing.self_times(spans)):
            busy[name] = busy.get(name, 0.0) + self_s
            calls[name] = calls.get(name, 0) + 1
        for key, value in outcome.sidecar.get("counts", {}).items():
            counts[key] = counts.get(key, 0) + value
        worst_quad_err = max(worst_quad_err, outcome.sidecar.get("worst_quad_err", 0.0))
        total, integrate = startup_imports(outcome.stderr)
        imports.append(total)
        integrate_imports.append(integrate)

    draws = proposals = 0.0
    for sampler, _, per_proposal in tracing.RESIDUAL_SAMPLERS:
        key = f"kernels.scalars.{sampler}"
        draws += counts.get(key + ".draws", 0)
        proposals += counts.get(key + ".proposal_calls", 0) / per_proposal
    engine_s = sum(busy[name] for name in tracing.ENGINE_SPANS)
    rep_steps = sum(inv.rep_steps for inv in invocations)

    metrics = {
        "startup.import_s": statistics.median(imports),
        "startup.scipy_integrate_import_s": statistics.median(integrate_imports),
        "cli.emit_bytes": sum(o.emit_bytes for o in traced),
    }
    metrics.update(busy)
    metrics.update({name: calls[span] for name, span in CALL_COUNTS.items()})
    metrics.update({
        "coupling.engines.rep_steps": rep_steps,
        "coupling.engines.rep_steps_per_s": rep_steps / engine_s if engine_s > 0 else 0.0,
        "coupling.engines.array_bytes": counts.get("coupling.engines.array_bytes", 0),
        "kernels.scalars.resid_accept_ratio": draws / proposals if proposals else 0.0,
        "kernels.verify.worst_quad_err": worst_quad_err,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    })
    walls = {o.label: o.wall_s for o in traced}
    metrics.update({f"cli.wall_s.{label}": walls.get(label, 0.0) for label in ALL_LABELS})
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith(("_calls", "rep_steps")):
        return "count"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith("_err"):
        return "abs"
    return "s"


def provenance(args, workload: Workload) -> dict:
    import numpy
    import scipy

    import mcbounds

    sha = None
    if (ROOT / ".git").exists():
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    src_digest = checks.sha256(b"".join(
        str(p.relative_to(ROOT)).encode() + p.read_bytes()
        for p in sorted((ROOT / "src").rglob("*")) if p.is_file() and "__pycache__" not in p.parts
    ))
    return {
        "git_sha": sha,
        "src_sha256": src_digest,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": "numba" if mcbounds.NUMBA_ENABLED else "python",
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": [" ".join(inv.args) for inv in workload.invocations],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "mcbounds" / "cli.py").is_file():
        print(f"perfbench: no mcbounds sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload]
    invocations = workload.invocations
    checker = Checker(args.workload)
    record = {"provenance": provenance(args, workload)}
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    passes: list[list[Outcome]] = []
    walls: list[float] = []
    probe = SpeedProbe()
    try:
        if args.trace:
            untraced_wall, untraced = run_pass(invocations, args.seed, workdir / "u", False)
            traced_wall, traced = run_pass(invocations, args.seed, workdir / "t", True)
            passes, walls = [untraced, traced], [untraced_wall, traced_wall]
        else:
            start = time.monotonic()
            while len(passes) < workload.min_passes or time.monotonic() - start < args.seconds:
                wall, outcomes = run_pass(invocations, args.seed, workdir / str(len(passes)),
                                          False, probe)
                walls.append(wall)
                passes.append(outcomes)
            probe.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    evaluate(invocations, passes, checker)
    attempted = sum(len(p) for p in passes)
    failed = sum(is_failed(o) for p in passes for o in p)
    problems = [msg for p in passes for o in p for msg in o.problems]
    crashes = [f"{o.label}: exit {o.exit_code}: {(o.stderr.strip().splitlines() or [''])[-1]}"
               for p in passes for o in p if o.exit_code != 0]

    if args.trace:
        values = per_layer_metrics(invocations, passes[1], walls[1], walls[0])
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(values.items())}
        record["unbound"] = sorted({u for o in passes[1] for u in o.sidecar.get("unbound", [])})
    else:
        raw = raw_end_to_end(walls, passes)
        record.update({"raw": raw, "speed_probes_s": probe.times})
        values = scale_to_reference(raw, probe.times)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    record.update({
        "passes": [
            {"wall_s": wall, "invocations": [
                {"label": o.label, "exit": o.exit_code, "wall_s": o.wall_s,
                 "setup_s": o.setup_s, "rss_mb": o.rss_mb, "problems": o.problems}
                for o in outcomes]}
            for wall, outcomes in zip(walls, passes)
        ],
        "metrics": metrics,
    })
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")

    print(json.dumps({"provenance": record["provenance"]}))
    for message in problems:
        print(f"problem: {message}")
    for message in crashes:
        print(f"failed: {message}")
    print(f"workload {args.workload}: {len(passes)} pass(es) of {len(invocations)} "
          f"invocations, seed {args.seed}, record {record_path.relative_to(ROOT)}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print("unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in record["raw"].items())
              + "; speed probe median start-up {:.4g} s, wall {:.4g} s".format(
                  *(statistics.median(p[i] for p in probe.times) for i in (0, 1)))
              + f" (reference {REFERENCE_STARTUP_S} s, {REFERENCE_PROBE_S} s)")
    print(f"fail_frac {failed}/{attempted} = {failed / attempted:.4g}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
