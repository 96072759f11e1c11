"""Command-line interface: golden outputs, exit codes, schema stability."""

import ast
import hashlib
import json
import os
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import jsonschema
import pytest

import mcbounds
from mcbounds import finite_chain
from mcbounds.bounds import CERTIFICATES, LAPLACE_SCHEDULE
from mcbounds.cli import _TABLELESS, main
from mcbounds.finite_chain import build_grid_walk

SCHEMA = json.loads(
    (files("mcbounds") / "schemas" / "report.schema.json").read_text()
)


def run_cli_process(*argv):
    """Run the CLI in a child process, so that a run that does not end fails
    the test after 30 s."""
    src = str(Path(mcbounds.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "mcbounds.cli", *argv],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": src},
    )


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    report = json.loads(out) if out.strip() else None
    if report is not None:
        jsonschema.validate(report, SCHEMA)
    return code, report


class TestFinite:
    def test_pseudo_golden(self, capsys):
        code, report = run_cli(capsys, "finite", "pseudo", "--grid", "3x3", "--n0", "2")
        assert code == 0
        res = report["results"]
        assert res["epsilon"] == "1/3"
        assert sorted(map(tuple, res["argmin_pairs"])) == [(1, 9), (3, 7)]
        assert res["threshold_steps"] == 24

    def test_minorization_golden(self, capsys):
        code, report = run_cli(
            capsys, "finite", "minorization", "--grid", "3x3", "--n0", "2"
        )
        assert code == 0
        assert report["results"]["epsilon"] == "9/80"
        assert report["results"]["threshold_steps"] == 78

    def test_minorization_absent_at_lag_one(self, capsys):
        code, report = run_cli(
            capsys, "finite", "minorization", "--grid", "3x3", "--n0", "1"
        )
        assert code == 0
        assert report["results"]["epsilon"] is None

    def test_stationary_single_cell(self, capsys):
        code, report = run_cli(capsys, "finite", "stationary", "--grid", "1x1")
        assert code == 0
        assert report["results"]["pi"] == ["1"]

    def test_stationary_golden(self, capsys):
        code, report = run_cli(capsys, "finite", "stationary", "--grid", "3x3")
        assert code == 0
        assert report["results"]["pi"][4] == "5/33"

    def test_eigen_bound(self, capsys):
        code, report = run_cli(capsys, "finite", "eigen-bound", "--grid", "3x3")
        assert code == 0
        res = report["results"]
        assert res["coefficient"] <= 0.85
        assert abs(res["rate"] - 0.4667) <= 0.001
        assert res["threshold_steps"] == 6

    def test_tv_exact_curve_dominated_by_bound_columns(self, capsys, tmp_path):
        code = main(
            [
                "finite", "tv-exact", "--grid", "3x3", "--n0", "2", "--n", "10",
                "--output", str(tmp_path), "--format", "both",
            ]
        )
        capsys.readouterr()
        assert code == 0
        csv = (tmp_path / "finite-tv-exact-curve.csv").read_text().splitlines()
        assert csv[0] == "n,tv,bound_uniform,bound_pseudo"
        for line in csv[1:]:
            n, tv, bu, bp = line.split(",")
            assert float(tv) <= float(bu) + 1e-12
            assert float(tv) <= float(bp) + 1e-12
        report = json.loads((tmp_path / "finite-tv-exact.json").read_text())
        assert report["results"]["curve"][0]["tv"] == "28/33"

    def test_tv_exact_8x8_bytes_pinned(self, capsys, tmp_path):
        # SHA-256 digests of the Fraction-arithmetic implementation's output
        argv = ["finite", "tv-exact", "--grid", "8x8", "--n0", "4", "--n", "100"]
        assert main(argv) == 0
        stdout = capsys.readouterr().out.encode()
        assert hashlib.sha256(stdout).hexdigest() == (
            "74bf9f623632433b0b7f95665fb1389b9a5ace160af0a6739c62ea3c7acd07d0"
        )
        assert main(argv + ["--output", str(tmp_path), "--format", "both"]) == 0
        csv = (tmp_path / "finite-tv-exact-curve.csv").read_bytes()
        assert hashlib.sha256(csv).hexdigest() == (
            "3507936730694e10cf2bc4acbd02dfd3232732681c1353676da41a853ea98011"
        )
        assert (tmp_path / "finite-tv-exact.json").read_bytes() == stdout

    # SHA-256 of stdout of the other exact invocations the benchmark runs,
    # as in perfbench/golden.json
    @pytest.mark.parametrize("argv,digest", [
        ("bound t1 --epsilon 1/2 --n0 1",
         "1facd595e91d91a266bb160f1c5ca47c3d157951e8ac0ee2b1f4486ffb6ee522"),
        ("bound t1 --epsilon 9/80 --n0 2",
         "dc95a5d0c037d968742dabfd326e5bce162b72df6919c22b566bfb5eb18e6cdb"),
        ("bound t1 --epsilon 0.117 --n0 1",
         "919bec61e1b6e80d1c61c8c1ec2a06fdfadcdf75e46f93e145cafc2772d04a6b"),
        ("bound t1 --pointprocess 0.1,0.1",
         "d97b5ae792a2aeefdf8b7d748ada501d446b63c563cce8f9ca1b7fa06bfb365c"),
        ("bound t2 --preset rwm-laplace --delta 0.01",
         "9956589824ee392b5a77604162125aed577f1ee1fd3c7065aaa7be5444417515"),
        ("finite stationary --grid 8x8",
         "92ad74b880e4a64586f8cb69954d745d6e1efeb6b08563d81859c4b1f2171983"),
        ("finite pseudo --grid 3x3 --n0 2",
         "2d5d8ee983492136fe9e5574dbeb73ea23c9f832cebceacc14cf946911e90382"),
        ("finite minorization --grid 3x3 --n0 2",
         "2c7664aa1abe61fa1b33462283ba1a1910433742647e4c509efe6e057b1bb20c"),
    ], ids=["t1-half", "t1-9/80", "t1-0.117", "t1-pointprocess", "t2-rwm-laplace",
            "stationary-8x8", "pseudo-3x3", "minorization-3x3"])
    def test_exact_stdout_bytes_pinned(self, capsys, argv, digest):
        assert main(argv.split()) == 0
        stdout = capsys.readouterr().out.encode()
        assert hashlib.sha256(stdout).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv",
        [
            ["finite", "tv-exact", "--grid", "3x3", "--n0", "2", "--n", "10"],
            ["simulate", "--grid", "3x3", "--n0", "2", "--n-max", "6", "--reps", "20",
             "--seed", "1"],
        ],
    )
    def test_n_step_matrix_formed_once_per_command(self, capsys, monkeypatch, argv):
        calls = []
        int_power = finite_chain._int_power

        def counted(num, den, n):
            calls.append(n)
            return int_power(num, den, n)

        monkeypatch.setattr(finite_chain, "_int_power", counted)
        assert main(argv) == 0
        capsys.readouterr()
        assert calls == [2]

    def test_matrix_file_roundtrip(self, capsys, tmp_path):
        grid = build_grid_walk(3, 3)
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid.to_json_dict()))
        code, report = run_cli(
            capsys, "finite", "stationary", "--matrix-file", str(path)
        )
        assert code == 0
        assert report["results"]["pi"][0] == "1/11"

    # exit codes of the five analyses on degenerate chains: a periodic chain
    # has no spectral bound, a reducible one no unique stationary law, and the
    # overlap searches answer both (with no overlap at lag 1)
    EDGE_CHAINS = {
        "single-state": ([["1"]], {}),
        "two-cycle": ([["0", "1"], ["1", "0"]], {"eigen-bound": 3}),
        "identity": ([["1", "0"], ["0", "1"]],
                     {"stationary": 3, "eigen-bound": 3, "tv-exact": 3}),
    }

    @pytest.mark.parametrize(
        "analysis", ["stationary", "eigen-bound", "minorization", "pseudo", "tv-exact"]
    )
    @pytest.mark.parametrize("chain", list(EDGE_CHAINS))
    def test_edge_chain_exit_codes(self, capsys, tmp_path, chain, analysis):
        rows, failing = self.EDGE_CHAINS[chain]
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({"size": len(rows), "rows": rows}))
        argv = ["finite", analysis, "--matrix-file", str(path), "--start", "1"]
        code = main(argv)
        assert code == failing.get(analysis, 0)
        out, err = capsys.readouterr()
        if code:
            assert out == ""
            assert err.startswith("mcbounds: ") and err.count("\n") == 1
        else:
            report = json.loads(out)
            jsonschema.validate(report, SCHEMA)
            assert report["analysis"] == analysis
            assert err == ""

    def test_missing_model_exits_2(self, capsys):
        code, _ = run_cli(capsys, "finite", "stationary")
        assert code == 2

    @pytest.mark.parametrize("argv,option", [
        (["minorization", "--n0", "3000"], "--n0"),
        (["pseudo", "--n0", "10000"], "--n0"),
        (["pseudo", "--n0", "100000"], "--n0"),  # ran for over 30 s
        (["tv-exact", "--n0", "2", "--n", "3000"], "--n"),
        (["tv-exact", "--n0", "2", "--n", "100000"], "--n"),  # ran for over 30 s
        (["tv-exact", "--n0", "100000", "--n", "10"], "--n0"),  # ran for 18.6 s
    ], ids=["minorization-3000", "pseudo-10000", "pseudo-100000", "tv-3000", "tv-100000",
            "tv-n0-100000"])
    def test_unprintable_rationals_exit_2_quickly(self, argv, option):
        # Python turns no int of more than sys.get_int_max_str_digits() digits
        # into a string; these runs ended in that ValueError's traceback
        done = run_cli_process("finite", argv[0], "--grid", "3x3", *argv[1:])
        assert done.returncode == 2
        assert done.stderr.startswith(f"mcbounds: error: {option} ")
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("argv", [
        ["minorization", "--n0", "1000"],
        ["pseudo", "--n0", "1000"],
        ["tv-exact", "--n0", "2", "--n", "2000"],
        ["tv-exact", "--n0", "2418", "--n", "2000"],
    ], ids=["minorization", "pseudo", "tv-exact", "tv-exact-n0-2418"])
    def test_long_rationals_within_the_limit_print(self, capsys, argv):
        code, report = run_cli(capsys, "finite", argv[0], "--grid", "3x3", *argv[1:])
        assert code == 0
        results = report["results"]
        text = results["curve"][-1]["tv"] if "curve" in results else results["epsilon"]
        assert len(text) > 1000


class TestBound:
    def test_t1_published_crossings(self, capsys):
        code, report = run_cli(
            capsys, "bound", "t1", "--epsilon", "0.117", "--n0", "1"
        )
        assert code == 0
        assert report["results"]["crossing"] == 38

    def test_t1_exact_rational_epsilon(self, capsys):
        code, report = run_cli(
            capsys, "bound", "t1", "--epsilon", "9/80", "--n0", "2"
        )
        assert code == 0
        assert report["results"]["crossing"] == 78

    def test_t1_degenerate(self, capsys):
        code, report = run_cli(
            capsys, "bound", "t1", "--epsilon", "1", "--delta", "0.5"
        )
        assert code == 0
        assert report["results"]["crossing"] == 1

    def test_t1_requires_epsilon(self, capsys):
        code, _ = run_cli(capsys, "bound", "t1")
        assert code == 2

    @pytest.mark.parametrize("argv,message", [
        ([], "bound t1 requires --epsilon or --pointprocess C,D"),
        (["--epsilon", "0"], "epsilon must be in (0, 1], got 0"),
        (["--epsilon", "3/2"], "epsilon must be in (0, 1], got 3/2"),
        (["--pointprocess", "0,1"], "need c > 0 and d > 0, got c=0.0, d=1.0"),
        (["--epsilon", "1e-300"],
         "epsilon 1e-300 rounds to 0 at denominators up to 10**12; pass it as p/q"),
        (["--epsilon", "inf"], "cannot parse 'inf' as a probability"),
        (["--pointprocess", "inf,0.1"], "c must be finite, got c=inf"),
        (["--pointprocess", "0.1,inf"], "d must be finite, got d=inf"),
        (["--pointprocess", "300,0.1"],
         "the overlap constant at c=300.0, d=0.1 underflows to 0"),
    ], ids=["no-epsilon", "epsilon-0", "epsilon-3/2", "pointprocess-c-0", "epsilon-1e-300",
            "epsilon-inf", "pointprocess-c-inf", "pointprocess-d-inf",
            "pointprocess-underflow"])
    def test_t1_bad_overlap_exits_2(self, capsys, argv, message):
        assert main(["bound", "t1", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"mcbounds: error: {message}\n"

    def test_t1_pointprocess_derived_epsilon(self, capsys):
        code, report = run_cli(capsys, "bound", "t1", "--pointprocess", "0.1,0.1")
        assert code == 0
        assert report["results"]["crossing"] == 38
        assert report["provenance"]["epsilon"].startswith("computed")

    def test_t2_preset_pipeline(self, capsys):
        code, report = run_cli(capsys, "bound", "t2", "--preset", "rwm-laplace")
        assert code == 0
        res = report["results"]
        assert res["crossing"] <= 120_000
        assert res["bound_at_crossing"] < 0.01
        assert res["schedule_point"]["n"] == 120_000
        assert res["schedule_point"]["j"] == 274
        assert res["schedule_point"]["bound"] < 0.01
        assert abs(res["constants"]["alpha_inv"] - 0.9927) <= 5e-4
        assert abs(res["constants"]["B"] - 20.04) <= 0.05
        assert res["constants"]["expected_h"] == 2.0
        assert report["provenance"]["alpha_inv"].startswith("computed")

    def test_t2_check_point_defaults_to_the_schedule(self, capsys):
        # the parser states the defaults without loading bounds; t2 fills them in
        with pytest.raises(SystemExit):
            main(["bound", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        for value in LAPLACE_SCHEDULE:
            assert f"(default: the preset's, {value})" in help_text
        code, report = run_cli(capsys, "bound", "t2")
        assert code == 0
        assert (report["config"]["check_n"], report["config"]["check_j"]) == LAPLACE_SCHEDULE

    def test_t2_fallback_expected_h(self, capsys):
        code, report = run_cli(
            capsys, "bound", "t2", "--expected-h", "fallback"
        )
        assert code == 0
        eh = report["results"]["constants"]["expected_h"]
        assert eh == pytest.approx(0.5 + 0.5 * 3.392857, abs=1e-3)

    @pytest.mark.parametrize("argv", [
        ["--epsilon", "1e-12"],  # the crossing search grew without bound
        ["--epsilon", "1/100000"],  # exact powers of ~8 million bits
        ["--epsilon", "1/10000"],  # a curve of 46051 points
        ["--pointprocess", "1,1"],  # a float curve of 13 million points
    ])
    def test_t1_small_epsilon_exits_2_quickly(self, argv):
        done = run_cli_process("bound", "t1", *argv)
        assert done.returncode == 2
        assert done.stderr.startswith("mcbounds: error:")
        assert "Traceback" not in done.stderr

    def test_t1_small_epsilon_with_short_curve(self, capsys):
        code, report = run_cli(
            capsys, "bound", "t1", "--epsilon", "1/10000", "--n-max", "20"
        )
        assert code == 0
        assert report["results"]["crossing"] == 46050
        assert len(report["results"]["curve"]) == 21


class TestSimulate:
    def test_grid_run_reports_bound_curve(self, capsys):
        code, report = run_cli(
            capsys,
            "simulate", "--grid", "3x3", "--cert", "pseudo",
            "--n-max", "20", "--reps", "2000", "--seed", "42",
        )
        assert code == 0
        res = report["results"]
        assert res["lattice"] == list(range(0, 21, 2))
        for point, p, se in zip(res["bound_curve"], res["p_neq"], res["p_neq_se"]):
            assert p <= point["bound"] + 3 * se
        assert report["config"]["master_seed"] == 42

    def test_rerun_byte_identical(self, tmp_path, capsys):
        argv = [
            "simulate", "--halfline", "--n-max", "8", "--reps", "1000",
            "--burn-in", "100", "--seed", "9",
        ]
        a = main(argv + ["--output", str(tmp_path / "a")])
        b = main(argv + ["--output", str(tmp_path / "b")])
        capsys.readouterr()
        assert a == b == 0
        assert (tmp_path / "a" / "simulate-halfline.json").read_bytes() == (
            tmp_path / "b" / "simulate-halfline.json"
        ).read_bytes()

    def test_single_replication_warns_but_exits_zero(self, capsys):
        code, report = run_cli(
            capsys,
            "simulate", "--grid", "3x3", "--cert", "pseudo",
            "--n-max", "8", "--reps", "1", "--seed", "333",
        )
        assert code == 0
        if report["results"]["p_neq"][1] == 1.0:
            assert report.get("warnings")

    def test_trajectory_dump(self, tmp_path, capsys):
        traj = tmp_path / "paths.csv"
        code = main(
            [
                "simulate", "--grid", "3x3", "--n-max", "6", "--reps", "5",
                "--seed", "4", "--trajectories", str(traj),
                "--output", str(tmp_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        lines = traj.read_text().splitlines()
        assert lines[0] == "replication,n,x,x_prime,coupled"
        assert len(lines) == 1 + 5 * 4  # header + reps * lattice points

    @pytest.mark.parametrize(
        "model,every,lattice",
        [
            (["--grid", "2x2", "--n-max", "8"], 2, [0, 4, 8]),
            (["--halfline", "--n-max", "9", "--burn-in", "20"], 3, [0, 3, 6, 9]),
            (["--rwm-laplace", "--n-max", "20", "--burn-in", "20"], 5, [0, 10, 20]),
        ],
    )
    def test_record_every_thins_the_lattice(self, capsys, tmp_path, model, every, lattice):
        traj = tmp_path / "paths.csv"
        code, report = run_cli(
            capsys, "simulate", *model, "--reps", "30", "--seed", "2",
            "--record-every", str(every), "--trajectories", str(traj),
        )
        assert code == 0
        assert report["config"]["record_every"] == every
        assert report["results"]["lattice"] == lattice
        assert len(report["results"]["p_neq"]) == len(lattice)
        assert len(traj.read_text().splitlines()) == 1 + 30 * len(lattice)

    def test_model_required(self, capsys):
        code, _ = run_cli(capsys, "simulate", "--reps", "10")
        assert code == 2

    @pytest.mark.parametrize("argv,seed_env", [
        (["--grid", "3x3", "--seed", "-1"], None),
        (["--halfline"], "-2"),
        (["--rwm-laplace", "--x0", "nan"], None),
        (["--halfline", "--x0", "inf"], None),
        (["--rwm-laplace", "--burn-in", "-1"], None),
        (["--halfline", "--x0", "1e300"], None),
        (["--grid", "2x2", "--n0", "1", "--reps", "1000000000000", "--n-max", "1000000"],
         None),
        (["--grid", "3x3", "--n0", "5000", "--n-max", "10000"], None),  # epsilon unprintable
    ])
    def test_bad_coupling_input_exits_2(self, capsys, monkeypatch, argv, seed_env):
        if seed_env is not None:
            monkeypatch.setenv("MCB_SEED", seed_env)
        argv = ["simulate", "--n-max", "4", "--reps", "10", "--burn-in", "10", *argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("mcbounds: error:")

    @pytest.mark.parametrize("argv,stdout_digest,traj_digest", [
        (["--grid", "3x3", "--cert", "pseudo", "--n-max", "12", "--reps", "500"],
         "7c035fdd21abeacc1fb6ed913d39a930d49daafcdd3d27d4b946f2d36d38af10", None),
        (["--grid", "3x3", "--cert", "uniform", "--n-max", "12", "--reps", "500"],
         "c26cadcf5022834be455f0a22dc3b2739e89b2d72e8f6c4242eb57419a80d64b", None),
        (["--halfline", "--n-max", "6", "--reps", "300", "--burn-in", "50"],
         "410490dd181de2e2a36d1e517fcf71852afa75f47f6c12d9cd0e579c57a9fa6f", None),
        (["--rwm-laplace", "--n-max", "40", "--reps", "50", "--burn-in", "50",
          "--record-every", "4"],
         "3f45ec8a69edbed6919f0476e9064c997e1d9e5af45963e9893cfd902b859bd2",
         "4c021b896e5d768bb78f54be55012264faaac0b94f78039d78977eb33741914a"),
        (["--halfline", "--n-max", "6", "--reps", "300"],
         "65998f447006604c3df54929d8b16ec341602e2f73836d96e900e442d7dde656",
         "d233a22a2698de5c351c3d00650c5af9836164cdade52eb98341fb29b7b64efa"),
        (["--grid", "3x3", "--cert", "pseudo", "--n-max", "12", "--reps", "500"],
         "7c035fdd21abeacc1fb6ed913d39a930d49daafcdd3d27d4b946f2d36d38af10",
         "fc51cec4a79489f9d043a536e9620e6187b86a4ce7336e66a6d97c2d69762e82"),
    ], ids=["grid-pseudo", "grid-uniform", "halfline", "rwm-laplace", "halfline-burn-in-0",
            "grid-pseudo-trajectories"])
    def test_seeded_bytes_pinned(self, capsys, tmp_path, argv, stdout_digest, traj_digest):
        # the random stream contract: a seed gives these bytes on every version
        # until a change says otherwise
        traj = tmp_path / "paths.csv"
        extra = ["--trajectories", str(traj)] if traj_digest else []
        assert main(["simulate", *argv, "--seed", "7", *extra]) == 0
        stdout = capsys.readouterr().out.encode()
        assert hashlib.sha256(stdout).hexdigest() == stdout_digest
        if traj_digest:
            assert hashlib.sha256(traj.read_bytes()).hexdigest() == traj_digest


class TestVerify:
    @pytest.mark.parametrize("argv", [
        ["drift", "--grid-step", "0"],
        ["drift", "--grid-step", "-1"],
        ["drift", "--grid-step", "nan"],
        ["drift", "--grid-lo", "5", "--grid-hi", "1"],
        ["minorization", "--probe-step", "-1"],
        ["minorization", "--preset", "halfline", "--probe-step", "0"],
        ["drift", "--grid-step", "1e-300"],
        ["drift", "--grid-step", "1e-4"],
        ["minorization", "--probe-step", "1e-300"],
        ["minorization", "--preset", "halfline", "--probe-step", "1e-300"],
        ["minorization", "--preset", "halfline", "--probe-step", "0.02"],
    ])
    def test_degenerate_grid_exits_2(self, capsys, argv):
        assert main(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("mcbounds: error:")
        assert "--grid" in captured.err or "--probe-step" in captured.err

    def test_drift_preset_passes(self, capsys):
        code, report = run_cli(
            capsys, "verify", "drift", "--grid-step", "0.5"
        )
        assert code == 0
        assert report["results"]["passed"] is True
        assert report["results"]["max_violation"] <= 1e-6

    def test_drift_bad_constants_exit_3(self, capsys):
        code, report = run_cli(
            capsys, "verify", "drift", "--lam", "0.5", "--b", "0",
            "--grid-step", "0.5",
        )
        assert code == 3
        assert report["results"]["passed"] is False
        assert report["results"]["max_violation"] > 0
        assert report["provenance"]["lam"] == "user"

    @pytest.mark.parametrize("grid_hi", ["38", "60", "200"])
    def test_drift_on_a_wide_grid_passes(self, capsys, grid_hi):
        # V grows as exp(|x| / 2): from x = 37.55 on, the integrals' error
        # estimates pass 1e-6 while staying within 1.49e-8 |value|
        code, report = run_cli(
            capsys, "verify", "drift", "--preset", "rwm-laplace", "--grid-hi", grid_hi
        )
        assert code == 0
        assert report["results"]["passed"] is True

    def test_minorization_halfline_passes(self, capsys):
        code, report = run_cli(
            capsys, "verify", "minorization", "--preset", "halfline",
            "--probe-step", "0.5",
        )
        assert code == 0
        assert report["results"]["passed"] is True
        assert report["results"]["epsilon"] == 0.5

    def test_minorization_rwm_passes(self, capsys):
        code, report = run_cli(
            capsys, "verify", "minorization", "--preset", "rwm-laplace",
            "--probe-step", "0.25",
        )
        assert code == 0
        assert report["results"]["passed"] is True


class TestCertificates:
    @pytest.mark.parametrize("model", ["halfline", "rwm-laplace"])
    def test_every_layer_reports_the_built_in_certificate(self, capsys, model):
        cert = CERTIFICATES[model]
        small_set = None if cert.small_set is None else [cert.small_set.lo, cert.small_set.hi]
        code, report = run_cli(
            capsys, "simulate", f"--{model}", "--n-max", "2", "--reps", "10",
            "--burn-in", "5", "--seed", "1",
        )
        assert code == 0
        config = report["config"]
        assert (config["epsilon"], config["n0"]) == (cert.epsilon, cert.n0)
        assert config.get("small_set") == small_set
        assert report["results"]["mode"] == ("uniform" if small_set is None else "small-set")

        code, report = run_cli(
            capsys, "verify", "minorization", "--preset", model, "--probe-step", "1.0"
        )
        assert code == 0
        results = report["results"]
        assert (results["lag"], results["epsilon"], results["nu"]) == (
            cert.n0, cert.epsilon, cert.nu,
        )

        if model == "rwm-laplace":
            code, report = run_cli(capsys, "bound", "t2")
            assert code == 0
            constants = report["results"]["constants"]
            assert (constants["epsilon"], constants["n0"]) == (cert.epsilon, cert.n0)


class TestOutputs:
    def test_csv_without_output_dir_exits_2(self, capsys):
        code, _ = run_cli(
            capsys, "finite", "tv-exact", "--grid", "3x3", "--format", "csv"
        )
        assert code == 2

    def test_csv_without_output_dir_is_refused_before_the_run(self, capsys, monkeypatch):
        def must_not_run(config):
            raise AssertionError("the coupling ran before --format csv was refused")

        monkeypatch.setattr("mcbounds.coupling.run_coupling", must_not_run)
        argv = ["simulate", "--grid", "5x5", "--n0", "6", "--reps", "200000", "--format", "csv"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "mcbounds: error: --format csv requires --output DIR\n"
        # the message names the format given
        assert main([*argv[:-1], "both"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "mcbounds: error: --format both requires --output DIR\n"

    @pytest.mark.parametrize("argv", [
        ["finite", "stationary", "--grid", "3x3"],
        ["finite", "minorization", "--grid", "3x3", "--n0", "2"],
        ["finite", "pseudo", "--grid", "3x3", "--n0", "2"],
        ["verify", "minorization", "--preset", "halfline", "--probe-step", "1.0"],
    ], ids=["stationary", "minorization", "pseudo", "verify-minorization"])
    def test_csv_of_a_report_without_tables_writes_its_json(self, capsys, tmp_path, argv):
        # on stdout and under --output alike, csv means json for these reports
        assert main([*argv, "--format", "csv"]) == 0
        printed = capsys.readouterr().out
        assert main([*argv, "--output", str(tmp_path), "--format", "csv"]) == 0
        assert capsys.readouterr().out == ""
        stem = f"{argv[0]}-{argv[1]}"
        assert [p.name for p in tmp_path.iterdir()] == [f"{stem}.json"]
        assert (tmp_path / f"{stem}.json").read_text() == printed

    @pytest.mark.parametrize("argv,analysis", [
        (["finite", "stationary", "--grid", "3x3"], "stationary"),
        (["finite", "eigen-bound", "--grid", "3x3"], "eigen-bound"),
        (["finite", "minorization", "--grid", "3x3", "--n0", "2"], "minorization"),
        (["finite", "pseudo", "--grid", "3x3", "--n0", "2"], "pseudo"),
        (["finite", "tv-exact", "--grid", "3x3", "--n0", "2", "--n", "10"], "tv-exact"),
        (["bound", "t1", "--epsilon", "1/2"], "t1"),
        (["bound", "t2"], "t2"),
        (["simulate", "--grid", "2x2", "--n-max", "4", "--reps", "20", "--seed", "1"], "grid"),
        (["simulate", "--halfline", "--n-max", "2", "--reps", "20", "--seed", "1"], "halfline"),
        (["simulate", "--rwm-laplace", "--n-max", "2", "--reps", "20", "--seed", "1"],
         "rwm-laplace"),
        (["verify", "drift", "--grid-step", "1.0"], "drift"),
        (["verify", "minorization", "--preset", "halfline", "--probe-step", "1.0"],
         "minorization"),
        (["verify", "minorization", "--preset", "rwm-laplace", "--probe-step", "0.5"],
         "minorization"),
    ], ids=["finite-stationary", "finite-eigen-bound", "finite-minorization", "finite-pseudo",
            "finite-tv-exact", "bound-t1", "bound-t2", "simulate-grid", "simulate-halfline",
            "simulate-rwm-laplace", "verify-drift", "verify-minorization-halfline",
            "verify-minorization-rwm-laplace"])
    def test_declared_tables_match_the_written_ones(self, capsys, tmp_path, argv, analysis):
        # _prepare_outputs refuses csv without --output from _TABLELESS alone,
        # before the run; the reports must agree with it
        assert main([*argv, "--output", str(tmp_path), "--format", "both"]) == 0
        assert capsys.readouterr().out == ""
        stem = f"{argv[0]}-{analysis}"
        names = sorted(p.name for p in tmp_path.iterdir())
        if (argv[0], analysis) in _TABLELESS:
            assert names == [f"{stem}.json"]
        else:
            assert f"{stem}.json" in names and len(names) >= 2
            for name in names:
                assert name == f"{stem}.json" or (
                    name.startswith(f"{stem}-") and name.endswith(".csv")
                ), name

    @pytest.mark.parametrize("argv,message", [
        (["finite", "tv-exact", "--grid", "3x3", "--delta", "1.5"], "delta must be in (0, 1)"),
        (["finite", "tv-exact", "--grid", "3x3", "--delta", "0"], "delta must be in (0, 1)"),
        (["finite", "tv-exact", "--grid", "3x3", "--delta", "nan"], "delta must be in (0, 1)"),
        (["finite", "minorization", "--grid", "3x3", "--delta", "0"],
         "delta must be in (0, 1)"),
        (["finite", "tv-exact", "--grid", "3x3", "--n", "-1"], "n_max must be >= 0"),
        (["bound", "t1", "--epsilon", "1/2", "--n-max", "-5"], "n_max must be >= 0"),
        (["verify", "drift", "--tolerance", "nan"], "tolerance must be"),
        (["verify", "minorization", "--tolerance=-1e-6"], "tolerance must be"),
        (["verify", "minorization", "--preset", "halfline", "--tolerance", "nan"],
         "tolerance must be"),
    ], ids=["tv-delta-1.5", "tv-delta-0", "tv-delta-nan", "minorization-delta-0",
            "tv-n-negative", "t1-n-max-negative", "drift-tolerance-nan",
            "minorization-tolerance-negative", "halfline-tolerance-nan"])
    def test_out_of_range_option_exits_2(self, capsys, argv, message):
        # these exited 0 with a null or empty result, or 3 as if verification failed
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"mcbounds: error: {message}")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv,path", [
        (["simulate", "--grid", "3x3", "--n-max", "4", "--reps", "10",
          "--trajectories", "/nonexistent/x.csv"], "/nonexistent/x.csv"),
        (["simulate", "--grid", "3x3", "--n-max", "4", "--reps", "10",
          "--output", "/dev/null/x"], "/dev/null/x"),
        (["finite", "tv-exact", "--grid", "3x3", "--output", "/dev/null/x"], "/dev/null/x"),
    ], ids=["trajectories", "simulate-output", "output"])
    def test_unwritable_path_exits_2(self, capsys, monkeypatch, argv, path):
        # the paths are checked before the command runs, so a mistyped one
        # costs no coupling run
        def must_not_run(config):
            raise AssertionError("the coupling ran before its output paths were checked")

        monkeypatch.setattr("mcbounds.coupling.run_coupling", must_not_run)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("mcbounds: error: cannot ")
        assert path in err and err.count("\n") == 1

    def test_all_reports_validate_against_schema(self, capsys):
        # run_cli validates every JSON payload against the shipped schema
        for argv in (
            ["finite", "minorization", "--grid", "2x2", "--n0", "2"],
            ["bound", "t1", "--epsilon", "1/2"],
            ["verify", "drift", "--grid-step", "1.0"],
            ["verify", "minorization", "--preset", "halfline", "--probe-step", "0.5"],
            ["verify", "minorization", "--preset", "rwm-laplace",
             "--probe-step", "0.25"],
            ["simulate", "--grid", "2x2", "--n-max", "4", "--reps", "50",
             "--seed", "1"],
            ["simulate", "--halfline", "--n-max", "4", "--reps", "50",
             "--burn-in", "20", "--seed", "1"],
            ["simulate", "--rwm-laplace", "--n-max", "4", "--reps", "50",
             "--burn-in", "20", "--seed", "1"],
        ):
            code, report = run_cli(capsys, *argv)
            assert code == 0
            assert report["tool"] == "mcbounds"


FINITE_AND_KERNEL_LAYERS = (
    "mcbounds.finite_chain", "mcbounds.kernels.chains", "mcbounds.kernels.verify", "numpy.ma",
)


class TestStartup:
    def run_script(self, body: str) -> str:
        src = str(Path(mcbounds.__file__).resolve().parents[1])
        script = "import sys\nsys.path.insert(0, %r)\n" % src + body
        return subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        ).stdout

    def test_no_command_imports_scipy(self):
        out = self.run_script(
            "import contextlib, io\n"
            "import mcbounds.cli\n"
            "from mcbounds.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['bound', 't2', '--preset', 'rwm-laplace']) == 0\n"
            "    assert main(['bound', 't1', '--epsilon', '1/2']) == 0\n"
            "    assert main(['finite', 'tv-exact', '--grid', '3x3', '--n0', '2',\n"
            "                 '--n', '10']) == 0\n"
            "    assert main(['simulate', '--grid', '2x2', '--n-max', '4', '--reps',\n"
            "                 '20', '--seed', '1']) == 0\n"
            "    assert main(['simulate', '--halfline', '--n-max', '2', '--reps',\n"
            "                 '5', '--burn-in', '5', '--seed', '1']) == 0\n"
            "    assert main(['verify', 'minorization', '--preset', 'rwm-laplace',\n"
            "                 '--probe-step', '0.5']) == 0\n"
            "    assert main(['verify', 'drift', '--grid-step', '0.5']) == 0\n"
            "    assert main(['verify', 'minorization', '--preset', 'halfline',\n"
            "                 '--probe-step', '1.0']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        assert out.strip() == "[]"

    def test_exact_commands_do_not_import_numpy(self, tmp_path):
        out = self.run_script(
            "import contextlib, io\n"
            "from mcbounds import build_grid_walk, minorization_curve, stationary\n"
            "from mcbounds.cli import main\n"
            "stationary(build_grid_walk(3, 3))\n"
            f"out = {str(tmp_path)!r}\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for analysis in ('stationary', 'pseudo', 'minorization', 'tv-exact'):\n"
            "        assert main(['finite', analysis, '--grid', '3x3', '--n0', '2']) == 0\n"
            "        assert main(['finite', analysis, '--grid', '3x3', '--n0', '2',\n"
            "                     '--output', out, '--format', 'both']) == 0\n"
            "    assert main(['bound', 't1', '--epsilon', '9/80', '--n0', '2']) == 0\n"
            "    assert main(['bound', 't1', '--epsilon', '0.117', '--output', out,\n"
            "                 '--format', 'both']) == 0\n"
            "    assert main(['bound', 't1', '--pointprocess', '0.1,0.1']) == 0\n"
            "    for expected_h in ('analytic', 'fallback'):\n"
            "        assert main(['bound', 't2', '--expected-h', expected_h]) == 0\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('numpy', 'dataclasses', 'inspect')))\n"
        )
        assert out.strip() == "[]"
        assert (tmp_path / "finite-tv-exact-curve.csv").is_file()
        assert (tmp_path / "bound-t1-curve.csv").is_file()

    @pytest.mark.parametrize("argv,unused", [
        (["--halfline", "--burn-in", "5"], FINITE_AND_KERNEL_LAYERS),
        (["--rwm-laplace", "--burn-in", "5"], FINITE_AND_KERNEL_LAYERS),
        (["--grid", "2x2"], FINITE_AND_KERNEL_LAYERS[1:]),
    ], ids=["halfline", "rwm-laplace", "grid"])
    def test_simulate_loads_only_the_layers_its_model_runs(self, argv, unused):
        # the engines need kernels.laws alone; the chains, the verifiers and
        # numpy.ma (loaded by np.quantile) cost start-up time and do nothing
        argv = ["simulate", "--n-max", "4", "--reps", "20", "--seed", "1", *argv]
        out = self.run_script(
            "import contextlib, io\n"
            "from mcbounds.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0\n"
            f"print(sorted(m for m in {unused!r} if m in sys.modules))\n"
        )
        assert out.strip() == "[]"

    def test_every_public_name_imports_from_the_package(self):
        assert len(mcbounds.__all__) > 20
        for name in mcbounds.__all__:
            namespace: dict = {}
            exec(f"from mcbounds import {name}", namespace)
            assert namespace[name] is getattr(mcbounds, name)
        assert set(mcbounds.__all__) <= set(dir(mcbounds))
        assert mcbounds.NUMBA_ENABLED is False
        with pytest.raises(AttributeError):
            mcbounds.no_such_name

    def test_exact_layers_import_no_heavy_module_at_top_level(self):
        # the modules the exact commands load (presets for `bound t2`); a
        # top-level numpy (or engine, kernel or preset) import there puts its
        # start-up cost on every command, and dataclasses loads inspect, ast
        # and dis, which only numpy's commands load anyway
        exact_layers = {
            "__init__.py", "cli.py", "bounds.py", "finite_chain.py", "errors.py", "presets.py",
            "commands/__init__.py", "commands/finite.py", "commands/bound.py",
        }
        heavy = {"numpy", "coupling", "kernels", "presets", "dataclasses"}
        package = Path(mcbounds.__file__).resolve().parent
        checked = set()
        for path, tree in self.sources():
            name = path.relative_to(package).as_posix()
            if name not in exact_layers:
                continue
            checked.add(name)
            for node in _top_level_imports(tree):
                parts = _imported_parts(node)
                assert not parts & heavy, (name, node.lineno, sorted(parts & heavy))
        assert checked == exact_layers

    def test_cli_imports_only_argparse_and_sys_at_top_level(self):
        # everything else cli uses loads after parse_args, inside the function
        # that uses it, and each command's code loads with its own module
        package = Path(mcbounds.__file__).resolve().parent
        imported = set()
        for node in _top_level_imports(ast.parse((package / "cli.py").read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            else:
                base = "." * node.level + (node.module or "")
                imported |= {base if node.module else base + alias.name for alias in node.names}
        assert imported <= {"__future__", "argparse", "sys", ".__version__"}

    def test_parsing_loads_no_layer(self):
        # the parser for every subcommand, and --help, run on argparse alone
        argvs = [
            ["finite", "tv-exact", "--grid", "3x3", "--n0", "2"],
            ["bound", "t2", "--check-n", "500"],
            ["simulate", "--grid", "3x3", "--format", "csv"],
            ["verify", "minorization", "--preset", "halfline"],
            ["--help"],
        ]
        late = ("mcbounds.bounds", "mcbounds.errors", "fractions", "json", "numpy")
        out = self.run_script(
            "import contextlib, io\n"
            "from mcbounds.cli import build_parser\n"
            f"for argv in {argvs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        try:\n"
            "            build_parser().parse_args(argv)\n"
            "        except SystemExit:\n"
            "            assert argv == ['--help']\n"
            f"print(sorted(m for m in {late!r} if m in sys.modules))\n"
        )
        assert out.strip() == "[]"

    def test_a_refused_command_line_loads_no_command_code(self):
        out = self.run_script(
            "import contextlib, io\n"
            "from mcbounds.cli import main\n"
            "with contextlib.redirect_stderr(io.StringIO()):\n"
            "    assert main(['simulate', '--grid', '3x3', '--format', 'csv']) == 2\n"
            "    assert main(['finite', 'tv-exact', '--grid', '3x3', '--delta', '2']) == 2\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'mcbounds'))\n"
        )
        assert out.strip() == "['mcbounds', 'mcbounds.cli', 'mcbounds.errors']"

    def test_only_the_record_base_refuses_assignment(self):
        # the validating records inherit __setattr__/__delattr__ (and equality,
        # hashing and repr) from bounds._Record; a class that writes them out
        # again repeats the record boilerplate
        found = []
        for path, tree in self.sources():
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef) and node.name != "_Record":
                    methods = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
                    if methods & {"__setattr__", "__delattr__"}:
                        found.append((path.name, node.name))
        assert found == []

    def test_simulate_layers_import_no_unused_layer_at_top_level(self):
        # the runner loads finite_chain for finite models only, and the
        # kernels package loads none of its submodules (the engines need laws)
        package = Path(mcbounds.__file__).resolve().parent
        trees = dict(self.sources())
        runner = _top_level_imports(trees[package / "coupling" / "runner.py"])
        assert not any("finite_chain" in _imported_parts(node) for node in runner)
        assert list(_top_level_imports(trees[package / "kernels" / "__init__.py"])) == []

    def sources(self):
        package = Path(mcbounds.__file__).resolve().parent
        sources = sorted(package.rglob("*.py"))
        assert len(sources) > 10
        return [(path, ast.parse(path.read_text())) for path in sources]

    def test_no_module_under_src_imports_scipy(self):
        for path, tree in self.sources():
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                assert not any(n.split(".")[0] == "scipy" for n in names), path

    def test_no_module_under_src_uses_the_legacy_random_stream(self):
        # every sampler owns a seeded Generator; np.random.seed, np.random.random
        # and the other module-level functions share one hidden global stream
        allowed = {"default_rng", "Generator", "SeedSequence"}
        for path, tree in self.sources():
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "numpy":
                    assert "random" not in {alias.name for alias in node.names}, path
                elif isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
                    names = {alias.name for alias in node.names}
                    assert names <= allowed, (path, node.lineno, names - allowed)
                elif (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "random"
                    and isinstance(node.value.value, ast.Name)
                    and node.value.value.id in ("np", "numpy")
                ):
                    assert node.attr in allowed, (path, node.lineno, node.attr)


def _imported_parts(node: ast.Import | ast.ImportFrom) -> set[str]:
    """The dotted parts of the module names an import statement names."""
    names = [alias.name for alias in node.names]  # import x, from . import x
    if isinstance(node, ast.ImportFrom) and node.module is not None:
        names = [node.module]
    return {part for name in names for part in name.split(".")}


def _top_level_imports(tree: ast.Module):
    """Import statements that run when the module is imported: not those inside
    functions or under ``if TYPE_CHECKING:``."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        elif isinstance(node, ast.If) and ast.unparse(node.test) in (
            "TYPE_CHECKING", "typing.TYPE_CHECKING",
        ):
            pending.extend(node.orelse)
        else:
            pending.extend(ast.iter_child_nodes(node))
