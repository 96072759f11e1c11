"""Command-line interface: golden outputs, exit codes, schema stability."""

import ast
import difflib
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from importlib.resources import files
from pathlib import Path

import jsonschema
import pytest

import fraction_reference as ref
import mcbounds
import pinned
from mcbounds import finite_chain
from mcbounds.bounds import CERTIFICATES
from mcbounds.cli import build_parser, main
from mcbounds.finite_chain import build_grid_walk

LIMIT = sys.get_int_max_str_digits()
ROOT = Path(__file__).resolve().parents[1]
SCHEMA = json.loads(
    (files("mcbounds") / "schemas" / "report.schema.json").read_text()
)


def run_cli_process(*argv, stdout=subprocess.PIPE):
    """Run the CLI in a child process, so that a run that does not end fails
    the test after 30 s; its stdout goes to ``stdout``, captured by default."""
    src = str(Path(mcbounds.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "mcbounds.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": src},
    )


def peak_rss_kb(*argv) -> int:
    """Run ``main(argv)`` in a fresh interpreter, require exit 0 and return
    the child's peak resident set (``VmHWM``) in kB."""
    src = str(Path(mcbounds.__file__).resolve().parents[1])
    script = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "from mcbounds.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(sys.argv[1:]) == 0\n"
        "status = open('/proc/self/status').read().splitlines()\n"
        "print([line.split()[1] for line in status if line.startswith('VmHWM')][0])\n"
    )
    done = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, timeout=60, check=True)
    return int(done.stdout)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    report = json.loads(out) if out.strip() else None
    if report is not None:
        jsonschema.validate(report, SCHEMA)
    return code, report


def parser_refusal(capsys, *argv) -> str:
    """The one stderr line of a command line the parser refuses with exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "Traceback" not in err
    return err


DIFF_LINES = 200  # a golden mismatch shows at most this many diff lines


def assert_golden(name: str, got: bytes):
    """``got`` must equal the golden file ``name`` byte for byte; a mismatch
    fails with a unified diff of the two."""
    want = (pinned.GOLDEN / name).read_bytes()
    if got == want:
        return
    diff = list(difflib.unified_diff(
        want.decode(errors="backslashreplace").splitlines(keepends=True),
        got.decode(errors="backslashreplace").splitlines(keepends=True),
        f"tests/golden/{name}", "this run",
    ))
    more = f"... {len(diff) - DIFF_LINES} more diff lines\n" if len(diff) > DIFF_LINES else ""
    pytest.fail(f"{name} differs from its golden file:\n{''.join(diff[:DIFF_LINES])}{more}",
                pytrace=False)


def pinned_test(*commands):
    """The byte test of the pinned cases whose command is one of ``commands``:
    each output equals its golden file, a trajectory CSV its digest.

    One body over one table; the exact, ``verify`` and ``simulate`` cases
    keep the test names, and so the test ids, they were recorded under.
    """
    cases = [case for case in pinned.CASES if case.argv.split()[0] in commands]

    @pytest.mark.parametrize("case", cases, ids=[case.id for case in cases])
    def test(self, tmp_path, case):
        outputs, trajectories = pinned.run(case, tmp_path)
        for name, got in outputs:
            assert_golden(name, got)
        if trajectories is not None:
            assert hashlib.sha256(trajectories).hexdigest() == case.trajectories

    return test


# perfbench's label of each `exact` line, and the pinned case of the same command
BENCHMARK_CASES = {
    "finite_tv_exact_8x8": "tv-exact-8x8", "finite_stationary_8x8": "stationary-8x8",
    "finite_pseudo_3x3": "pseudo-3x3", "finite_minorization_3x3": "minorization-3x3",
    "finite_eigen_bound_3x3": "eigen-bound-3x3", "bound_t1_half": "t1-half",
    "bound_t1_9_80": "t1-9-80", "bound_t1_0_117": "t1-0.117",
    "bound_t1_pointprocess": "t1-pointprocess", "bound_t2_rwm_laplace": "t2-rwm-laplace",
}


class TestGolden:
    def test_directory_holds_exactly_the_cases_files(self):
        named = set().union(*(case.golden_files for case in pinned.CASES))
        present = {path.name for path in pinned.GOLDEN.iterdir()}
        assert sorted(present - named) == [], "golden files no case names"
        assert sorted(named - present) == [], "golden files missing"

    def test_benchmark_digests_are_the_golden_files(self):
        # an exact byte change the benchmark would refuse fails here first
        recorded = json.loads((ROOT / "perfbench" / "golden.json").read_text())
        assert set(recorded) == set(BENCHMARK_CASES)
        cases = {case.id: case for case in pinned.CASES}

        def digest(name: str) -> str:
            return hashlib.sha256((pinned.GOLDEN / name).read_bytes()).hexdigest()

        for label, expected in recorded.items():
            case = cases[BENCHMARK_CASES[label]]
            if case.reports:  # the benchmark passes --output: two reports, no stdout
                files = {name: digest(case.stdout_file if name.endswith(".json")
                                      else case.csv_file) for name in expected["files"]}
                assert expected == {"files": files,
                                    "stdout": hashlib.sha256(b"").hexdigest()}, label
            else:
                assert expected == {"files": {}, "stdout": digest(case.stdout_file)}, label


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

    test_exact_stdout_bytes_pinned = pinned_test("finite", "bound")
    test_verify_stdout_bytes_pinned = pinned_test("verify")

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

    @pytest.mark.parametrize("cert", ["pseudo", "uniform"])
    def test_simulate_scans_the_n_step_matrix_once(self, capsys, monkeypatch, cert):
        # the run's config finds the certificate and every later reader gets
        # it from the matrix; the runner once scanned every pair again
        calls = []
        for name in ("_pseudo_scan", "_uniform_scan"):
            def counted(pn, n0, states, scan=getattr(finite_chain, name)):
                calls.append(scan.__name__)
                return scan(pn, n0, states)

            monkeypatch.setattr(finite_chain, name, counted)
        argv = ["simulate", "--grid", "3x3", "--cert", cert, "--n-max", "6", "--reps", "20"]
        assert main(argv) == 0
        capsys.readouterr()
        assert calls == [f"_{cert}_scan"]

    def test_matrix_file_roundtrip(self, capsys, tmp_path):
        grid = build_grid_walk(3, 3)
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(ref.matrix_json(grid)))
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
        argv = ["finite", analysis, "--matrix-file", str(path)]
        if analysis in ("eigen-bound", "tv-exact"):  # the analyses that read a start
            argv += ["--start", "1"]
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

    MALFORMED = {
        "zero-denominator": ('{"size": 2, "rows": [["1/0", "1"], ["0", "1"]]}',
                             "entry '1/0' is not an exact rational"),
        "nan": ('{"size": 2, "rows": [["nan", "1"], ["0", "1"]]}',
                "entry 'nan' is not an exact rational"),
        "letter": ('{"size": 2, "rows": [["x", "1"], ["0", "1"]]}',
                   "entry 'x' is not an exact rational"),
        "rows-string": ('{"size": 2, "rows": "xy"}', "must be a list of lists"),
        "row-string": ('{"size": 2, "rows": [["1", "0"], "01"]}', "must be a list of lists"),
        "rows-number": ('{"size": 2, "rows": 5}', "must be a list of lists"),
        "bool": ('{"size": 2, "rows": [[true, 0], [0, true]]}', "entry True is a bool"),
        # a size that is no integer was compared with the matrix's, so a
        # true passed as 1 and a "2" read "declared size 2 != actual size 2"
        "size-bool": ('{"size": true, "rows": [["1"]]}',
                      "matrix JSON 'size' must be an integer >= 1, got True"),
        "size-string": ('{"size": "2", "rows": [["1", "0"], ["0", "1"]]}',
                        "matrix JSON 'size' must be an integer >= 1, got '2'"),
        "long-int": ('{"size": 1, "rows": [[1' + "0" * 5000 + ']]}',
                     "cannot read matrix file"),
        "not-utf-8": ("\udcff", "cannot read matrix file"),  # the byte 0xff
    }

    @pytest.mark.parametrize("analysis", ["stationary", "eigen-bound", "pseudo"])
    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_malformed_matrix_file_exits_2(self, capsys, tmp_path, case, analysis):
        # these ended in a ZeroDivisionError, ValueError or TypeError
        # traceback (exit 1), and a JSON true or a row written as a string
        # was read as numbers
        text, message = self.MALFORMED[case]
        path = tmp_path / "matrix.json"
        path.write_bytes(text.encode(errors="surrogateescape"))
        argv = ["finite", analysis, "--matrix-file", str(path)]
        if analysis == "eigen-bound":  # the one of these that reads a start
            argv += ["--start", "1"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("mcbounds: error: ") and err.count("\n") == 1
        assert message in err

    def test_missing_model_exits_2(self, capsys):
        err = parser_refusal(capsys, "finite", "stationary")
        assert err.endswith("error: one of the arguments --grid --matrix-file is required\n")

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

    @pytest.mark.parametrize("exponent, message", [
        (100000, f"entry '1e-100000' needs more than the {LIMIT} digits Python prints"),
        (100000000, f"entry '1e-100000000' needs more than the {LIMIT} digits"),
        (1000, "row 0 sums to 1 + 1e-1000 (to 3 digits), not exactly 1"),
    ])
    def test_huge_exponent_entries_exit_2_quickly(self, capsys, tmp_path, exponent, message):
        # 1e-100000 ended in a traceback while the row-sum refusal printed its
        # exact Fraction, 1e-100000000 built 10**100000000 for over 60 s, and
        # 1e-1000's refusal printed about 2000 digits
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({"size": 2, "rows": [[f"1e-{exponent}", "1"], ["0", "1"]]}))
        argv = ["finite", "stationary", "--matrix-file", str(path)]
        done = run_cli_process(*argv)  # a run that does not end fails here
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("mcbounds: error: ") and done.stderr.count("\n") == 1
        assert message in done.stderr and len(done.stderr) < 200
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == done.stderr

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

    def test_tv_exact_checks_the_start_before_solving_for_pi(self, capsys, monkeypatch):
        # the refusal needs no pi; it came after the 40x40 elimination
        from mcbounds.commands import finite

        def must_not_solve(matrix):
            raise AssertionError("pi was solved for before --start was checked")

        monkeypatch.setattr(finite, "stationary", must_not_solve)
        argv = ["finite", "tv-exact", "--grid", "40x40", "--start", "99999", "--n", "2"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "mcbounds: error: --start must be an integer in 1..1600, got 99999\n")

    def test_tv_exact_checks_n_before_solving_for_pi(self, capsys, monkeypatch):
        # no pi makes --n 3000 printable on a 40x40 grid; the refusal came
        # after the elimination
        from mcbounds.commands import finite

        def must_not_solve(matrix):
            raise AssertionError("pi was solved for before --n was checked")

        monkeypatch.setattr(finite, "stationary", must_not_solve)
        assert main(["finite", "tv-exact", "--grid", "40x40", "--n", "3000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("mcbounds: error: --n 3000 gives exact rationals of up to ")
        assert err.endswith("; pass a smaller --n\n")

    def test_stationary_law_too_long_to_print_exits_2(self, capsys, tmp_path):
        # every entry shares one denominator of 2500 digits, and so prints,
        # but the stationary law's denominators have about 5000; this ended
        # in a traceback from pi.as_strings() after the elimination
        q = 3 * 10**2499 + 7
        firsts = [(q // 3 + 1 + 5 * i, q // 4 + 2 * i) for i in range(3)]
        rows = [[f"{a}/{q}", f"{b}/{q}", f"{q - a - b}/{q}"] for a, b in firsts]
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"size": 3, "rows": rows}))
        # tv-exact prints distances to that law: it is refused for the law,
        # not for an --n that no value could make pass
        for analysis in (["stationary"], ["tv-exact", "--start", "1", "--n", "0"]):
            assert main(["finite", *analysis, "--matrix-file", str(path)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1
            assert err.startswith(f"mcbounds: error: --matrix-file {path}: its stationary law has ")
            assert f"beyond the {LIMIT} that can be printed" in err
        # the analyses that print no exact stationary law still run
        assert main(["finite", "pseudo", "--matrix-file", str(path)]) == 0
        capsys.readouterr()


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
        err = parser_refusal(capsys, "bound", "t1")
        assert err == (
            "mcbounds bound t1: error: one of the arguments --epsilon --pointprocess is required\n"
        )

    @pytest.mark.parametrize("argv,message", [
        ([], "one of the arguments --epsilon --pointprocess is required"),
        (["--epsilon", "0"], "epsilon must be in (0, 1], got 0"),
        (["--epsilon", "3/2"], "epsilon must be in (0, 1], got 3/2"),
        (["--pointprocess", "0,1"], "need c > 0 and d > 0, got c=0.0, d=1.0"),
        (["--epsilon", "1e-300"],
         "epsilon 1e-300 rounds to 0 at denominators up to 10**12; pass it as p/q"),
        (["--epsilon", "1e-400"],
         "epsilon 1e-400 rounds to 0 at denominators up to 10**12; pass it as p/q"),
        (["--epsilon", "0e-400"], "epsilon must be in (0, 1], got 0"),
        (["--epsilon", "-1e-400"], "epsilon must be in (0, 1], got -1e-400"),
        (["--epsilon", "inf"], "cannot parse 'inf' as a probability"),
        (["--pointprocess", "inf,0.1"], "c must be finite, got c=inf"),
        (["--pointprocess", "0.1,inf"], "d must be finite, got d=inf"),
        (["--pointprocess", "300,0.1"],
         "the overlap constant at c=300.0, d=0.1 underflows to 0"),
    ], ids=["no-epsilon", "epsilon-0", "epsilon-3/2", "pointprocess-c-0", "epsilon-1e-300",
            "epsilon-1e-400", "epsilon-0e-400", "epsilon-minus-1e-400", "epsilon-inf",
            "pointprocess-c-inf", "pointprocess-d-inf", "pointprocess-underflow"])
    def test_t1_bad_overlap_exits_2(self, capsys, argv, message):
        if not argv:  # the parser refuses a missing overlap
            err = parser_refusal(capsys, "bound", "t1")
            assert err == f"mcbounds bound t1: error: {message}\n"
            return
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
            main(["bound", "t2", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        schedule = CERTIFICATES["rwm-laplace"].drift.schedule
        for value in schedule:
            assert f"(default: the preset's, {value})" in help_text
        code, report = run_cli(capsys, "bound", "t2")
        assert code == 0
        assert (report["config"]["check_n"], report["config"]["check_j"]) == schedule

    @pytest.mark.parametrize("options,j,n", [
        (["--check-n", "0"], 274, 0),
        (["--check-j", "0"], 0, 120_000),
        (["--check-j", "200000"], 200_000, 120_000),
        (["--check-n", "5", "--check-j", "6"], 6, 5),
    ])
    def test_t2_check_j_outside_1_to_check_n_is_refused(self, capsys, options, j, n):
        assert main(["bound", "t2", *options]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # --check-n is checked first, and --check-j against it
        refusal = (f"--check-n must be an integer >= 1, got {n}" if n < 1
                   else f"--check-j must be an integer in 1..{n}, got {j}")
        assert captured.err == f"mcbounds: error: {refusal}\n"

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
        # 10 000 exact powers of a 1329-bit base, the last of 13 million bits
        ["--epsilon", f"{10**400 - 1}/{10**400}", "--n-max", "9999"],
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

    def test_small_set_run_reports_no_geometric_curve(self, capsys, tmp_path):
        # (1-eps)^floor(n/n0) bounds P(T > n) only when every unequal pair
        # flips the coin; this seed's p_neq lies above it by more than 3 se
        argv = ["simulate", "--rwm-laplace", "--n-max", "24", "--reps", "5000",
                "--record-every", "4", "--seed", "7"]
        code, report = run_cli(capsys, *argv)
        assert code == 0
        assert report["results"]["mode"] == "small-set"
        assert "warnings" not in report
        assert "bound_curve" not in report["results"]
        assert main([*argv, "--output", str(tmp_path), "--format", "both"]) == 0
        capsys.readouterr()
        csv = (tmp_path / "simulate-rwm-laplace-curve.csv").read_text().splitlines()
        assert csv[0] == "n,p_neq,p_neq_se"
        assert len(csv) == 1 + len(report["results"]["lattice"])

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
        # the exact distance needs no second replication
        assert len(report["results"]["tv_exact"]) == len(report["results"]["lattice"]) == 5
        # at seed 0 the one pair is apart at n = 2; no check tells such an
        # excess from chance, so the warning does not call it noise
        code, report = run_cli(
            capsys,
            "simulate", "--grid", "3x3", "--cert", "pseudo",
            "--n-max", "8", "--reps", "1", "--seed", "0",
        )
        assert code == 0 and report["results"]["p_neq"][1] == 1.0
        assert report["warnings"] and not any("noise" in w for w in report["warnings"])

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

    def test_grid_trajectories_label_states_1_based(self, capsys, tmp_path):
        traj = tmp_path / "paths.csv"
        code, report = run_cli(
            capsys, "simulate", "--grid", "3x3", "--reps", "2", "--n-max", "2",
            "--trajectories", str(traj),
        )
        assert code == 0
        rows = [line.split(",") for line in traj.read_text().splitlines()[1:]]
        starts = [int(x) for _, n, x, _, _ in rows if n == "0"]
        assert starts == [report["config"]["start"]] * 2

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
        err = parser_refusal(capsys, "simulate", "--reps", "10")
        assert err == ("mcbounds simulate: error: one of the arguments "
                       "--grid --halfline --rwm-laplace is required\n")

    @pytest.mark.parametrize("argv,seed", [
        (["--grid", "3x3", "--seed", "-1"], None),
        (["--halfline", "--burn-in", "10"], "-2"),
        (["--rwm-laplace", "--burn-in", "10", "--x0", "nan"], None),
        (["--halfline", "--burn-in", "10", "--x0", "inf"], None),
        (["--rwm-laplace", "--burn-in", "-1"], None),
        (["--halfline", "--burn-in", "10", "--x0", "1e300"], None),
        (["--grid", "2x2", "--n0", "1", "--reps", "1000000000000", "--n-max", "1000000"],
         None),
        (["--grid", "3x3", "--n0", "5000", "--n-max", "10000"], None),  # epsilon unprintable
    ])
    def test_bad_coupling_input_exits_2(self, capsys, argv, seed):
        if seed is not None:
            argv = [*argv, "--seed", seed]
        argv = ["simulate", "--n-max", "4", "--reps", "10", *argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("mcbounds: error:")

    test_seeded_bytes_pinned = pinned_test("simulate")

    @pytest.mark.parametrize("argv,option", [
        (["--halfline", "--reps", "10", "--n-max", "4", "--burn-in", "1000000000"],
         "--burn-in"),
        (["--grid", "3x3", "--n0", "2", "--reps", "1000000", "--n-max", "10000000",
          "--record-every", "1000000"], "--n-max"),
        (["--halfline", "--reps", "1000000000000", "--n-max", "0"], "--reps"),
        # the inputs of test_coupling's test_recorded_states_capped
        (["--grid", "3x3", "--cert", "uniform", "--reps", "10000000", "--n-max", "60"],
         "--reps"),
        (["--grid", "3x3", "--cert", "uniform", "--reps", "1", "--n-max", str(2**27)],
         "--n-max"),
        (["--grid", "3x3", "--cert", "uniform", "--reps", str(10**12), "--n-max",
          str(10**6), "--record-every", str(10**6)], "--reps"),
    ], ids=["burn-in", "record-every", "reps-n-max-0", "reps", "n-max", "all-large"])
    def test_work_budget_refuses_before_the_run(self, capsys, argv, option):
        start = time.perf_counter()
        assert main(["simulate", *argv]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("mcbounds: error:")
        assert "work budget" in captured.err and option in captured.err

    def test_work_budget_message_prints_exact_counts(self, capsys):
        # rounded to 3 digits, both counts read "1.2e+08"
        assert main(["simulate", "--halfline", "--reps", "4096", "--n-max", "29296"]) == 2
        assert ("120000512 pair-steps exceed the work budget of 120000000;"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv,message", [
        (["--reps", "1000000000000"], "5000000000000 pair-steps exceed the work budget of "
         "120000000; pass fewer replications (--reps) or a smaller n_max (--n-max)"),
        (["--record-every", "0"], "record_every must be an integer >= 1, got 0"),
        (["--seed", "-1"], "master_seed must be an integer >= 0, got -1"),
        (["--n-max", "1000000"], "714290000 pair-steps exceed the work budget of "
         "120000000; pass fewer replications (--reps) or a smaller n_max (--n-max)"),
        (["--reps", "1", "--n-max", "1000000"], "a run recording 71429 lattice points "
         "exceeds the cap of 10000; pass a larger record_every (--record-every) or a "
         "smaller n_max (--n-max)"),
        (["--n0", "0"], "n0 must be an integer >= 1, got 0"),
    ], ids=["reps", "record-every-0", "seed", "n-max", "curve-cap", "n0-0"])
    def test_grid_run_checked_before_its_certificate_search(self, capsys, monkeypatch,
                                                            argv, message):
        # these were refused only after the exact pairwise search, 2-3 s at 15x15
        def must_not_search(matrix, n0, small_set=None):
            raise AssertionError("the certificate search ran before the run was checked")

        monkeypatch.setattr(finite_chain, "minorization_pseudo", must_not_search)
        assert main(["simulate", "--grid", "15x15", "--n0", "14", *argv]) == 2
        assert capsys.readouterr() == ("", f"mcbounds: error: {message}\n")

    @pytest.mark.parametrize("model", [["--grid", "3x3"], ["--halfline"], ["--rwm-laplace"]],
                             ids=["grid", "halfline", "rwm-laplace"])
    def test_results_repeat_no_config_key_but_n0(self, capsys, model):
        # config echoes the run, results hold what it produced; n0 is in
        # both, as the lattice's step
        code, report = run_cli(capsys, "simulate", *model, "--n-max", "4", "--reps", "10")
        assert code == 0
        assert report["results"].keys() & report["config"].keys() == {"n0"}

    def test_trajectory_buffer_capped_per_block(self, capsys, tmp_path):
        # within the work budget, but 20001 recorded lattice points are over
        # the cap of 10000, so one block's buffer never reaches 4096 x 20001
        # pair states; the run is refused before it writes a row, and leaves
        # no file behind
        traj = tmp_path / "paths.csv"
        argv = ["simulate", "--rwm-laplace", "--reps", "4096", "--n-max", "40000",
                "--trajectories", str(traj)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "20001 lattice points exceeds the cap of 10000" in err
        assert "--record-every" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,code", [
        (["--grid", "2x2", "--cert", "uniform", "--n0", "1"], 3),
        (["--halfline", "--reps", "1000000000000", "--n-max", "0"], 2),
        (["--grid", "3x3", "--n0", "0"], 2),
    ], ids=["no-overlap", "work-budget", "n0-0"])
    def test_refused_run_leaves_no_trajectory_file(self, capsys, tmp_path, argv, code):
        # the file is opened before the config is checked, and removed with it
        traj = tmp_path / "paths.csv"
        argv = ["simulate", *argv, "--trajectories", str(traj)]
        assert main(argv) == code
        assert list(tmp_path.iterdir()) == []
        traj.write_bytes(b"earlier run\n")
        assert main(argv) == code
        capsys.readouterr()
        assert list(tmp_path.iterdir()) == [traj]
        assert traj.read_bytes() == b"earlier run\n"

    def test_failed_run_leaves_the_trajectory_file_as_it_was(self, capsys, tmp_path,
                                                             monkeypatch):
        from mcbounds.coupling import engines
        from mcbounds.errors import MathError

        real = engines.continuous_coupling_paths

        def fails_after_one_block(*args):
            def then_fail(*block):
                args[-1](*block)
                raise MathError("stopped after one block")
            return real(*args[:-1], then_fail)

        monkeypatch.setattr(engines, "continuous_coupling_paths", fails_after_one_block)
        traj = tmp_path / "paths.csv"
        traj.write_text("earlier run\n")
        argv = ["simulate", "--halfline", "--reps", "5000", "--n-max", "4",
                "--trajectories", str(traj)]
        assert main(argv) == 3
        assert "stopped after one block" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["paths.csv"]
        assert traj.read_text() == "earlier run\n"

    def test_trajectories_through_a_symlink_and_to_a_pipe(self, capsys, tmp_path):
        argv = ["simulate", "--grid", "2x2", "--n-max", "4", "--reps", "3", "--seed", "1"]
        (tmp_path / "data").mkdir()
        link = tmp_path / "paths.csv"
        link.symlink_to(tmp_path / "data" / "p.csv")
        assert main([*argv, "--trajectories", str(link)]) == 0
        capsys.readouterr()
        assert link.is_symlink()
        csv = (tmp_path / "data" / "p.csv").read_text()
        assert csv.startswith("replication,n,x,x_prime,coupled\n")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["data", "p.csv", "paths.csv"]
        # a device is written in place, not replaced
        done = run_cli_process(*argv, "--trajectories", "/dev/stdout")
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith(csv)
        assert json.loads(done.stdout[len(csv):])["command"] == "simulate"

    def test_trajectories_to_a_redirected_stdout_keep_the_report(self, tmp_path):
        # /dev/stdout names the file that stdout has open: it is written
        # through fd 1, not replaced by a new file, which the report missed
        out = tmp_path / "out.txt"
        argv = ["simulate", "--grid", "2x2", "--n-max", "4", "--reps", "3", "--seed", "1"]
        with open(out, "w") as stdout:
            done = run_cli_process(*argv, "--trajectories", "/dev/stdout", stdout=stdout)
        assert done.returncode == 0, done.stderr
        text = out.read_text()
        csv, brace, report = text.partition("{")
        lines = csv.splitlines()
        assert lines[0] == "replication,n,x,x_prime,coupled"
        assert len(lines) == 1 + 3 * 3  # three replications at n = 0, 2, 4
        report = json.loads(brace + report)
        jsonschema.validate(report, SCHEMA)
        assert report["command"] == "simulate"

    def test_trajectories_through_a_symlink_loop_exit_2(self, capsys, tmp_path):
        loop = tmp_path / "paths.csv"
        loop.symlink_to(loop)
        argv = ["simulate", "--grid", "2x2", "--n-max", "4", "--reps", "3"]
        assert main([*argv, "--trajectories", str(loop)]) == 2
        assert capsys.readouterr().err.startswith(f"mcbounds: error: cannot write {loop}: ")
        assert list(tmp_path.iterdir()) == [loop] and loop.is_symlink()

    def test_peak_memory_does_not_grow_with_replications(self):
        # the engines keep per-slot totals and one block in flight, so ten
        # times the replications must not raise the process's peak RSS (at
        # 20 000 replications the whole-run arrays took about 35 MB more)
        peak_kb = {
            reps: peak_rss_kb("simulate", "--grid", "3x3", "--cert", "pseudo", "--n-max",
                              "400", "--seed", "3", "--reps", str(reps))
            for reps in (2000, 20000)
        }
        assert abs(peak_kb[20000] - peak_kb[2000]) < 4 * 1024, peak_kb

    def test_large_grid_holds_no_table_per_pair(self):
        # the engine forms a coin pair's rows as it flips the coin; tables of
        # 2 x 144^3 floats, 24 MB each, used to take the peak to 131 MB
        peak_kb = peak_rss_kb("simulate", "--grid", "12x12", "--n0", "11", "--n-max", "11",
                              "--reps", "10")
        assert peak_kb < 60 * 1024, peak_kb


class TestVerify:
    @pytest.mark.parametrize("argv", [
        ["drift", "--grid-lo", "-1", "--grid-hi", "1", "--grid-step", "0.5"],
        ["minorization", "--preset", "rwm-laplace", "--probe-step", "0.5"],
    ])
    def test_point_that_misses_the_quadrature_bound_exits_3(self, capsys, monkeypatch, argv):
        # with both tolerances 0 no estimate meets QUADPACK's test: the one
        # qk21 pass refuses the point instead of refining it
        from mcbounds.kernels import verify

        monkeypatch.setattr(verify, "_QUAD_TOL", 0.0)
        monkeypatch.setattr(verify, "_QUAD_REL", 0.0)
        assert main(["verify", *argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("mcbounds: integration on [")
        assert "requested max(0.0e+00, 0 |value|)" in captured.err

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

    @pytest.mark.parametrize("argv, message", [
        (["drift", "--grid-step", "0.0002"],
         "a drift grid of 100001 points exceeds the cap of 100000;"),
        (["minorization", "--preset", "halfline", "--probe-step", "0.02"],
         "6255001 probe pairs exceed the cap of 4194304;"),
        # counts beyond a float read "inf points" and a 604-digit pair count
        (["drift", "--grid-step", "1e-320"],
         "a drift grid of more than 1.8e+308 points (the count overflows a float) "
         "exceeds the cap of 100000;"),
        (["minorization", "--preset", "halfline", "--probe-step", "1e-320"],
         "more than 1.8e+308 probe pairs (the count overflows a float) exceed the "
         "cap of 4194304;"),
        (["minorization", "--preset", "halfline", "--probe-step", "1e-300"],
         "mcbounds: error: 2.50e+603 probe pairs exceed the cap of 4194304;"),
    ], ids=["drift-grid", "probe-pairs", "drift-overflow", "pairs-overflow", "pairs-huge"])
    def test_cap_messages_print_exact_counts(self, capsys, argv, message):
        # rounded to 3 digits, 100001 points read "1e+05", the cap itself
        assert main(["verify", *argv]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("lo, hi, step, state", [
        ("1400", "1430", "10", "1420.0"),
        ("-1430", "-1400", "10", "-1430.0"),
        ("1417.6", "1417.6", "0.05", "1417.6"),
    ])
    def test_far_drift_grid_is_refused_before_integrating(self, capsys, lo, hi, step, state):
        # V = exp(|x|/2) overflows beyond |x| = 1419.56, at a state or at an
        # end of its window [x - 2, x + 2]; integrating there ended in exit 3
        # on a NaN estimate, after numpy's overflow warnings
        argv = ["drift", "--grid-lo", lo, "--grid-hi", hi, "--grid-step", step]
        assert main(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("mcbounds: error: V = exp(|x|/2) is not finite")
        assert f"probe state {state};" in captured.err
        assert "--grid-lo" in captured.err and "--grid-hi" in captured.err

    def test_drift_next_to_the_overflow_is_checked(self, capsys):
        # the window [1415.5, 1419.5] keeps V finite, so the grid runs
        code, report = run_cli(
            capsys, "verify", "drift", "--grid-lo", "1417.5", "--grid-hi", "1417.5"
        )
        assert code == 0
        assert math.isfinite(report["results"]["max_violation"])

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


# a command line each mode accepts, and the options of its command's one
# flat option list (before each mode had its own parser) that it never read
MODE_LINES = {
    ("finite", "stationary"): ["--grid", "3x3"],
    ("finite", "eigen-bound"): ["--grid", "3x3"],
    ("finite", "minorization"): ["--grid", "3x3", "--n0", "2"],
    ("finite", "pseudo"): ["--grid", "3x3", "--n0", "2"],
    ("finite", "tv-exact"): ["--grid", "3x3", "--n", "4"],
    ("bound", "t1"): ["--epsilon", "1/2"],
    ("bound", "t2"): [],
    ("verify", "drift"): ["--grid-step", "1.0"],
    ("verify", "minorization"): ["--preset", "halfline", "--probe-step", "1.0"],
}
IGNORED_OPTIONS = {
    ("finite", "stationary"): ["--n0", "--start", "--target", "--delta", "--n-max", "--n"],
    ("finite", "eigen-bound"): ["--n0", "--n-max", "--n"],
    ("finite", "minorization"): ["--start", "--target", "--n-max", "--n"],
    ("finite", "pseudo"): ["--start", "--target", "--n-max", "--n"],
    ("finite", "tv-exact"): ["--target"],
    ("bound", "t1"): ["--preset", "--expected-h", "--check-n", "--check-j"],
    ("bound", "t2"): ["--epsilon", "--pointprocess", "--n0", "--n-max"],
    ("verify", "drift"): ["--probe-step"],
    ("verify", "minorization"): ["--lam", "--b", "--grid-lo", "--grid-hi", "--grid-step"],
}
# values the flat lists accepted; any other option took "2"
OPTION_VALUES = {"--preset": "rwm-laplace", "--expected-h": "fallback", "--epsilon": "1/2",
                 "--pointprocess": "0.1,0.1", "--delta": "0.1"}


class TestModeOptions:
    @pytest.mark.parametrize("mode,flag", [
        pytest.param(mode, flag, id=f"{' '.join(mode)} {flag}")
        for mode, flags in IGNORED_OPTIONS.items() for flag in flags
    ])
    def test_option_the_mode_does_not_read_exits_2(self, capsys, mode, flag):
        # each of these exited 0 with the option ignored (stationary --n0
        # echoed an n0 nothing used); an abbreviation is no way round it
        value = OPTION_VALUES.get(flag, "2")
        err = parser_refusal(capsys, *mode, *MODE_LINES[mode], flag, value)
        assert err == f"mcbounds: error: unrecognized arguments: {flag} {value}\n"

    def test_every_mode_has_a_line(self):
        parser = build_parser()
        for mode, argv in MODE_LINES.items():
            args = parser.parse_args([*mode, *argv])
            assert (args.command, args.analysis) == mode

    @pytest.mark.parametrize("argv,message", [
        (["finite", "stationary", "--grid", "3x3", "--matrix-file", "m.json"],
         "mcbounds finite stationary: error: argument --matrix-file: "
         "not allowed with argument --grid"),
        (["bound", "t1", "--epsilon", "1/2", "--pointprocess", "0.1,0.1"],
         "mcbounds bound t1: error: argument --pointprocess: not allowed with argument --epsilon"),
        (["simulate", "--grid", "3x3", "--halfline"],
         "mcbounds simulate: error: argument --halfline: not allowed with argument --grid"),
        (["simulate", "--halfline", "--rwm-laplace"],
         "mcbounds simulate: error: argument --rwm-laplace: not allowed with argument --halfline"),
    ], ids=["grid-matrix-file", "epsilon-pointprocess", "grid-halfline", "halfline-rwm-laplace"])
    def test_conflicting_models_exit_2(self, capsys, argv, message):
        # the first of these analysed the grid, the second used --pointprocess
        assert parser_refusal(capsys, *argv) == message + "\n"

    @pytest.mark.parametrize("argv,message", [
        (["--halfline", "--cert", "uniform"], "--cert cannot be given with --halfline"),
        (["--rwm-laplace", "--n0", "2"], "--n0 cannot be given with --rwm-laplace"),
        (["--halfline", "--start", "1"], "--start cannot be given with --halfline"),
        (["--grid", "3x3", "--x0", "1"], "--x0 cannot be given with --grid"),
        (["--grid", "3x3", "--burn-in", "5"], "--burn-in cannot be given with --grid"),
        (["--grid", "3x3", "--x0", "0", "--burn-in", "0"],
         "--x0, --burn-in cannot be given with --grid"),
    ], ids=["halfline-cert", "rwm-laplace-n0", "halfline-start", "grid-x0", "grid-burn-in",
            "grid-both"])
    def test_option_of_the_other_model_exits_2(self, capsys, monkeypatch, argv, message):
        def must_not_run(config):
            raise AssertionError("the coupling ran with an option its model ignores")

        monkeypatch.setattr("mcbounds.coupling.run_coupling", must_not_run)
        assert main(["simulate", *argv, "--reps", "10", "--n-max", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err == f"mcbounds: error: {message}\n"

    def test_model_options_default_when_not_given(self, capsys):
        # the five model options parse to None; the run fills in their
        # defaults, and a given value is echoed as given
        sim = ["--reps", "20", "--n-max", "2", "--seed", "1"]
        _, report = run_cli(capsys, "simulate", "--grid", "2x2", *sim)
        assert (report["config"]["cert"], report["config"]["n0"]) == ("pseudo", 2)
        _, report = run_cli(capsys, "simulate", "--halfline", *sim)
        assert (report["config"]["x0"], report["config"]["burn_in"]) == (0.0, 0)
        _, report = run_cli(capsys, "simulate", "--halfline", "--x0", "-0.0", *sim)
        assert math.copysign(1.0, report["config"]["x0"]) == -1.0

    @pytest.mark.parametrize("argv,exponent,plain", [
        (["simulate", "--rwm-laplace", "--n-max", "10", "--reps", "5", "--x0"], "-1e1", "-10"),
        (["verify", "drift", "--grid-hi", "4", "--grid-step", "0.5", "--grid-lo"], "-4e0", "-4"),
    ], ids=["x0", "grid-lo"])
    def test_negative_number_in_exponent_form_is_a_value(self, capsys, argv, exponent, plain):
        # argparse's own negative-number pattern has no exponent, so it once
        # read -1e1 as an option and refused the line
        assert main([*argv, exponent]) == 0
        out = capsys.readouterr().out
        assert main([*argv, plain]) == 0
        assert out == capsys.readouterr().out

    @pytest.mark.parametrize("value,echo", [("-inf", "-inf"), ("-Infinity", "-inf"),
                                            ("-nan", "nan")])
    def test_negative_non_finite_value_is_refused_as_not_finite(self, capsys, value, echo):
        argv = ["simulate", "--rwm-laplace", "--n-max", "4", "--reps", "5", "--x0", value]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"mcbounds: error: start point x0 must be a finite number, got {echo}\n")


class TestOutputs:
    @pytest.mark.parametrize("argv", [
        ["finite", "stationary", "--grid", "3x3"],
        ["simulate", "--grid", "2x2", "--n-max", "4", "--reps", "3"],
    ], ids=["finite", "simulate"])
    def test_closed_stdout_pipe_exits_2_without_a_traceback(self, argv):
        # the reader closes its end before the child writes the report
        read, write = os.pipe()
        os.close(read)
        try:
            done = run_cli_process(*argv, stdout=write)
        finally:
            os.close(write)
        assert done.returncode == 2
        assert done.stderr == "mcbounds: error: cannot write stdout: Broken pipe\n"

    def test_non_finite_json_is_refused(self, capsys, tmp_path):
        # RFC 8259 has no NaN or Infinity: the report is refused, not printed
        argv = ["bound", "t2", "--check-n", "1000000", "--check-j", "1000000"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "mcbounds: the report holds a non-finite number at "
            "results.schedule_point.bound\n"
        )
        assert main([*argv, "--output", str(tmp_path), "--format", "both"]) == 3
        capsys.readouterr()
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_csv_cell_is_refused(self, tmp_path):
        from types import SimpleNamespace

        from mcbounds.cli import _emit, _Report
        from mcbounds.errors import MathError

        report = _Report("bound", "t1", {}, {"crossing": 3})
        report.add_csv("-curve", n=[1, 2, 3], bound=[0.5, float("nan"), 0.1])
        with pytest.raises(MathError, match=r"bound-t1-curve.csv would hold a non-finite number at bound\[1\]"):
            _emit(report, SimpleNamespace(output=str(tmp_path), format="both"))
        assert list(tmp_path.iterdir()) == []

    def test_emit_failing_partway_leaves_the_reports_as_they_were(self, tmp_path, monkeypatch):
        import itertools

        from mcbounds import cli

        def argv(n):
            return ["finite", "tv-exact", "--grid", "3x3", "--n", str(n),
                    "--output", str(tmp_path), "--format", "both"]

        assert main(argv(10)) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(before) == ["finite-tv-exact-curve.csv", "finite-tv-exact.json"]
        calls = itertools.count()
        real = cli._csv_cell

        def fails_on_a_later_row(value):
            if next(calls) == 20:  # the first cell of the sixth row
                raise RuntimeError("stopped partway")
            return real(value)

        monkeypatch.setattr(cli, "_csv_cell", fails_on_a_later_row)
        with pytest.raises(RuntimeError, match="stopped partway"):
            main(argv(12))
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("value,key", [
        ({"a": [1.0, {"b": float("-inf")}]}, "a[1].b"),
        ({"b": 1.0, "a": (float("nan"),)}, "a[0]"),
        ({"a": "inf", "b": [2, None, 1e308]}, None),
    ])
    def test_nonfinite_key_names_the_first_in_key_order(self, value, key):
        from mcbounds.cli import _nonfinite_key

        assert _nonfinite_key(value) == key

    @pytest.mark.parametrize("argv,code", [
        (["simulate", "--grid", "3x3", "--n0", "1"], 3),  # no pseudo overlap at lag 1
        (["finite", "tv-exact", "--grid", "3x3", "--n0", "0", "--format", "both"], 2),
    ], ids=["simulate-exit-3", "tv-exact-exit-2"])
    def test_refused_run_takes_back_the_output_directories_it_made(
        self, capsys, tmp_path, argv, code
    ):
        new = tmp_path / "new" / "deeper"
        assert main([*argv, "--output", str(new)]) == code
        assert capsys.readouterr().err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []
        # a directory that was there before the run is left as it was
        kept = tmp_path / "kept"
        kept.mkdir()
        assert main([*argv, "--output", str(kept)]) == code
        assert kept.is_dir() and list(kept.iterdir()) == []
        (kept / "notes.txt").write_text("mine\n")
        assert main([*argv, "--output", str(kept / "sub")]) == code
        capsys.readouterr()
        assert [p.name for p in kept.iterdir()] == ["notes.txt"]

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
    def test_format_of_a_report_without_tables_exits_2(self, capsys, tmp_path, argv):
        # these reports have no table, so no format to choose
        for output in ([], ["--output", str(tmp_path)]):
            with pytest.raises(SystemExit) as refused:
                main([*argv, *output, "--format", "json"])
            assert refused.value.code == 2
            assert "unrecognized arguments: --format json" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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
        # a mode declares --format exactly when its report adds a CSV table:
        # _prepare_outputs refuses csv without --output from the parser
        # alone, before the run, so the reports must agree with it
        try:
            build_parser().parse_args([*argv, "--format", "json"])
            declared = True
        except SystemExit:
            declared = False
        tables = ["--format", "both"] if declared else []
        assert main([*argv, "--output", str(tmp_path), *tables]) == 0
        assert capsys.readouterr().out == ""
        stem = f"{argv[0]}-{analysis}"
        names = sorted(p.name for p in tmp_path.iterdir())
        if not declared:
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
        (["finite", "tv-exact", "--grid", "3x3", "--n", "-1"],
         "n_max must be an integer >= 0, got -1"),
        (["bound", "t1", "--epsilon", "1/2", "--n-max", "-5"],
         "n_max must be an integer >= 0, got -5"),
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
    "mcbounds.finite_chain", "mcbounds.kernels.verify", "numpy.ma",
)


class TestStartup:
    def run_script(self, body: str) -> str:
        src = str(Path(mcbounds.__file__).resolve().parents[1])
        script = "import sys\nsys.path.insert(0, %r)\n" % src + body
        return subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        ).stdout

    def test_module_run_executes_cli_once(self):
        # the command modules import mcbounds.cli by name; under -m that name
        # is the running __main__, not a second copy of the file
        out = self.run_script(
            "import os, runpy\n"
            "runs = []\n"
            "sys.addaudithook(\n"
            "    lambda event, args: event == 'exec' and runs.append(args[0].co_filename))\n"
            "sys.argv = ['mcbounds', 'bound', 't1', '--epsilon', '1/2']\n"
            "try:\n"
            "    runpy.run_module('mcbounds.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0\n"
            "cli = os.path.join('mcbounds', 'cli.py')\n"
            "print('cli runs', sum(name.endswith(cli) for name in runs))\n"
        )
        assert out.splitlines()[-1] == "cli runs 1"

    def test_repeated_main_calls_register_one_exit_hook(self):
        # counted by calls at exit: atexit._ncallbacks() also counts the
        # slots that atexit.unregister emptied
        out = self.run_script(
            "import atexit, contextlib, gc, io\n"
            "from mcbounds.cli import main\n"
            "calls = []\n"
            "freeze = gc.freeze\n"
            "gc.freeze = lambda: calls.append(freeze())\n"
            "atexit.register(lambda: print('freeze calls', len(calls)))  # runs last\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for _ in range(3):\n"
            "        assert main(['bound', 't1', '--epsilon', '1/2']) == 0\n"
            "print('main done', len(calls))\n"
        )
        assert out.splitlines() == ["main done 0", "freeze calls 1"]

    @pytest.mark.parametrize("argv,name", [
        (["finite", "tv-exact", "--grid", "8x8", "--n0", "4", "--n", "100",
          "--format", "both"], None),
        (["simulate", "--rwm-laplace", "--n-max", "40", "--reps", "50", "--burn-in", "50",
          "--record-every", "4", "--seed", "7"], "paths.csv"),
    ], ids=["tv-exact", "simulate-trajectories"])
    def test_a_process_writes_the_bytes_of_an_in_process_run(self, capsys, tmp_path, argv, name):
        # the exit hook leaves the start-up heap to the OS: every output must
        # be complete before the process exits
        outputs = {}
        for where in ("process", "in-process"):
            out = tmp_path / where
            extra = ["--trajectories", str(out / name)] if name else ["--output", str(out)]
            out.mkdir()
            if where == "process":
                done = run_cli_process(*argv, *extra)
                assert done.returncode == 0, done.stderr
                stdout = done.stdout
            else:
                assert main([*argv, *extra]) == 0
                stdout = capsys.readouterr().out
            files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
            outputs[where] = (stdout, files)
        assert outputs["process"] == outputs["in-process"]
        assert outputs["process"][1]

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
            "        lag = [] if analysis == 'stationary' else ['--n0', '2']\n"
            "        tables = ['--format', 'both'] if analysis == 'tv-exact' else []\n"
            "        assert main(['finite', analysis, '--grid', '3x3', *lag]) == 0\n"
            "        assert main(['finite', analysis, '--grid', '3x3', *lag,\n"
            "                     '--output', out, *tables]) == 0\n"
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
        (["--halfline", "--burn-in", "5"], (*FINITE_AND_KERNEL_LAYERS, "dataclasses")),
        (["--rwm-laplace", "--burn-in", "5"], (*FINITE_AND_KERNEL_LAYERS, "dataclasses")),
        (["--grid", "2x2"],
         (*FINITE_AND_KERNEL_LAYERS[1:], "mcbounds.kernels.laws", "dataclasses")),
    ], ids=["halfline", "rwm-laplace", "grid"])
    def test_simulate_loads_only_the_layers_its_model_runs(self, argv, unused):
        # a continuous chain's engine needs kernels.laws alone, a grid's none
        # of the kernels; the verifiers, numpy.ma (loaded by np.quantile) and
        # dataclasses cost start-up time and do nothing
        argv = ["simulate", "--n-max", "4", "--reps", "20", "--seed", "1", *argv]
        out = self.run_script(
            "import contextlib, io\n"
            "from mcbounds.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0\n"
            f"print(sorted(m for m in {unused!r} if m in sys.modules))\n"
        )
        assert out.strip() == "[]"

    @pytest.mark.parametrize("argv", [
        ["minorization", "--preset", "halfline", "--probe-step", "1"],
        ["drift"],
    ], ids=["minorization-halfline", "drift"])
    def test_verify_loads_no_coupling_or_finite_chain_code(self, argv):
        # laws.CHAINS carries the samplers too, but they need no engine
        unused = ("mcbounds.coupling", "mcbounds.finite_chain", "dataclasses")
        out = self.run_script(
            "import contextlib, io\n"
            "from mcbounds.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({['verify', *argv]!r}) == 0\n"
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
        # the modules the exact commands load; a top-level numpy (or engine,
        # kernel or preset) import there puts its start-up cost on every
        # command, and dataclasses loads inspect, ast and dis, which only
        # numpy's commands load anyway
        exact_layers = {
            "__init__.py", "cli.py", "bounds.py", "finite_chain.py", "errors.py",
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

    def test_only_the_writer_opens_a_file(self):
        # every output file goes through cli._replacing, which replaces its
        # target only when the run succeeds; the matrix file is read with
        # read_text. Opening the null device, which takes fd 1 once stdout
        # has failed, writes no file
        package = Path(mcbounds.__file__).resolve().parent
        trees = dict(self.sources())
        writer = next(node for node in trees[package / "cli.py"].body
                      if isinstance(node, ast.FunctionDef) and node.name == "_replacing")
        inside = {id(node) for node in ast.walk(writer)}
        found = []
        for path, tree in trees.items():
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call) or id(node) in inside:
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                null = node.args and getattr(node.args[0], "attr", None) == "devnull"
                if name in ("open", "write_text", "write_bytes") and not null:
                    found.append((path.relative_to(package).as_posix(), node.lineno, name))
        assert found == []

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
