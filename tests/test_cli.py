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
from mcbounds.bounds import CERTIFICATES
from mcbounds.cli import main
from mcbounds.finite_chain import build_grid_walk

SCHEMA = json.loads(
    (files("mcbounds") / "schemas" / "report.schema.json").read_text()
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

    def test_non_unique_stationary_exits_3(self, capsys, tmp_path):
        path = tmp_path / "identity.json"
        path.write_text(
            json.dumps({"size": 2, "rows": [["1", "0"], ["0", "1"]]})
        )
        code, _ = run_cli(capsys, "finite", "stationary", "--matrix-file", str(path))
        assert code == 3

    def test_missing_model_exits_2(self, capsys):
        code, _ = run_cli(capsys, "finite", "stationary")
        assert code == 2


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
        # in a child process, so that a search that does not end fails the test
        src = str(Path(mcbounds.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "mcbounds.cli", "bound", "t1", *argv],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": src},
        )
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
         "8115e305cc4362d6ca9f9aa9f1821181446d6aff528eda7ae76ece8350f1981e", None),
        (["--rwm-laplace", "--n-max", "40", "--reps", "50", "--burn-in", "50",
          "--record-every", "4"],
         "721b99c168f2991441871e9a4be09671cac70e678ed4b6839413bf886a594dc0",
         "38877c79f9c0ea3259751aab2f656a0546d3451f168a3b62b4798cdfc67997bb"),
    ], ids=["grid-pseudo", "grid-uniform", "halfline", "rwm-laplace"])
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
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
        )
        assert out.strip() == "[]"
        assert (tmp_path / "finite-tv-exact-curve.csv").is_file()
        assert (tmp_path / "bound-t1-curve.csv").is_file()

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
        # start-up cost on every command
        exact_layers = {
            "__init__.py", "cli.py", "bounds.py", "finite_chain.py", "errors.py", "presets.py",
        }
        heavy = {"numpy", "coupling", "kernels", "presets"}
        package = Path(mcbounds.__file__).resolve().parent
        checked = set()
        for path, tree in self.sources():
            if path.parent != package or path.name not in exact_layers:
                continue
            checked.add(path.name)
            for node in _top_level_imports(tree):
                names = [alias.name for alias in node.names]  # import x, from . import x
                if isinstance(node, ast.ImportFrom) and node.module is not None:
                    names = [node.module]
                parts = {part for name in names for part in name.split(".")}
                assert not parts & heavy, (path.name, node.lineno, sorted(parts & heavy))
        assert checked == exact_layers

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
