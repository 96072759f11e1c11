"""Tests of the benchmark's own code: span arithmetic, output checks, failure counting.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def test_self_time_subtracts_nested_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.inner", 2.0, 3.0, 1],
        ["b", 5.0, 6.0, 0],
        ["other", 11.0, 12.0, -1],
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 5.0, 0], ["b", 3.0, 7.0, 0]]
    assert tracing.self_times(spans)[0] == pytest.approx(4.0)


def test_recorder_links_nested_calls_to_their_parent():
    recorder = tracing.Recorder()
    inner = recorder.span("inner", lambda x: x + 1)
    outer = recorder.span("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert [(name, parent) for name, _, _, parent in recorder.spans] == [
        ("outer", -1), ("inner", 0)
    ]


def test_after_import_hook_wraps_a_lazily_imported_module(tmp_path, monkeypatch):
    (tmp_path / "perfbench_lazy_probe.py").write_text("def quad():\n    return 1\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    seen = []
    tracing.call_after_import("perfbench_lazy_probe", seen.append)
    try:
        import perfbench_lazy_probe
    finally:
        sys.modules.pop("perfbench_lazy_probe", None)
    assert seen == [perfbench_lazy_probe]


def test_startup_imports_stop_at_the_setup_mark():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       100 |       2000 | mcbounds\n"
        "import time:       300 |     500000 |     scipy.integrate\n"
        "import time:       100 |       1000 | json\n"
        + run.SETUP_MARK
        + "import time:       100 |    9000000 | late\n"
    )
    assert run.startup_imports(stderr) == pytest.approx((0.003, 0.5))


@pytest.fixture(scope="module")
def pass_outcomes(tmp_path_factory):
    invocations = (
        run._inv("grid", "simulate --grid 3x3 --cert pseudo --n-max 20 --reps 2000 --seed {seed}"),
        run._inv("pseudo", "finite pseudo --grid 3x3 --n0 2"),
        run._inv("missing_epsilon", "bound t1"),
    )
    wall, outcomes = run.run_pass(invocations, 5, tmp_path_factory.mktemp("pass"), False)
    assert wall > 0
    return invocations, outcomes


def test_unexpected_exit_code_counts_as_failed(pass_outcomes):
    invocations, outcomes = pass_outcomes
    run.evaluate(invocations[2:], [outcomes[2:]], run.Checker("exact"))
    assert outcomes[2].exit_code == 2
    assert run.is_failed(outcomes[2])
    assert outcomes[2].problems == []


def test_golden_check_rejects_one_changed_digit(pass_outcomes):
    _, outcomes = pass_outcomes
    pseudo = outcomes[1]
    golden = json.loads((HERE / "golden.json").read_text())
    label = "finite_pseudo_3x3"
    assert checks.check_golden(label, pseudo.stdout, pseudo.files, golden) == []
    assert checks.check_named_values(label, json.loads(pseudo.stdout)) == []
    corrupted = pseudo.stdout.replace(b'"threshold_steps": 24', b'"threshold_steps": 25')
    assert corrupted != pseudo.stdout
    assert checks.check_golden(label, corrupted, pseudo.files, golden)
    assert checks.check_named_values(label, json.loads(corrupted))


@pytest.fixture(scope="module")
def grid_report(pass_outcomes):
    _, outcomes = pass_outcomes
    return json.loads(outcomes[0].stdout)


def test_coupling_checks_accept_the_real_report(pass_outcomes):
    _, outcomes = pass_outcomes
    assert run.Checker("coupling").check(outcomes[0]) == []


def test_coupling_check_rejects_p_neq_above_the_bound(grid_report):
    report = copy.deepcopy(grid_report)
    results = report["results"]
    results["p_neq"] = [min(1.0, p + 0.3) for p in results["p_neq"]]
    problems = checks.check_coupling_bound("grid", report)
    assert any("exceeds" in p for p in problems)


def test_coupling_check_rejects_x_prime_counts_from_the_wrong_law(grid_report):
    checker = run.Checker("coupling")
    config, results = grid_report["config"], grid_report["results"]
    laws, pi = checker.exact_laws("3x3", config["start"], tuple(results["lattice"]))
    assert checks.check_grid_laws("grid", grid_report, laws, pi) == []
    rng = np.random.default_rng(0)
    report = copy.deepcopy(grid_report)
    uniform = [1.0 / 9] * 9
    report["results"]["marginal_counts_prime"] = [
        [int(c) for c in rng.multinomial(20000, uniform)] for _ in results["lattice"]
    ]
    report["results"]["marginal_counts"] = [
        [int(c) for c in rng.multinomial(20000, law)] for law in laws
    ]
    problems = checks.check_grid_laws("grid", report, laws, pi)
    assert problems and all("X'_" in p for p in problems)


def test_verify_check_requires_a_pass_within_tolerance():
    report = {
        "config": {"tolerance": 1e-6},
        "results": {"passed": True, "quadrature_error_estimate": 1e-9},
    }
    assert checks.check_verify("v", report) == []
    report["results"]["quadrature_error_estimate"] = 1e-3
    assert checks.check_verify("v", report)


def test_times_scale_to_the_reference_speed_and_memory_does_not():
    raw = {"run_s": 10.0, "setup_s": 1.0, "peak_rss_mb": 80.0}
    slow = [(run.REFERENCE_STARTUP_S * 2, run.REFERENCE_PROBE_S * 4)] * 3
    assert run.scale_to_reference(raw, slow) == pytest.approx(
        {"run_s": 2.5, "setup_s": 0.5, "peak_rss_mb": 80.0}
    )


def test_speed_probe_runs_once_per_interval_of_invocation_time(monkeypatch):
    probe = run.SpeedProbe()
    runs = []

    def fake_run():
        runs.append(probe.unprobed_s)
        probe.unprobed_s = 0.0

    monkeypatch.setattr(probe, "run", fake_run)
    for wall_s in (3.0, 0.5, 0.6, 5.0, 1.0):
        probe.before_invocation()
        probe.unprobed_s += wall_s
    assert runs == [math.inf, pytest.approx(4.1), 5.0]
