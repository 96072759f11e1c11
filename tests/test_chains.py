"""One record per built-in chain: ``bounds.CERTIFICATES`` holds its numpy-free
facts and ``kernels.laws.CHAINS`` its numpy half, under the same key. The
parser's literal key lists match the table, no other code spells a key, a
chain registered under a second key behaves as under its first, the
Metropolis record's step radius is the one its kernel moves by, and every
drift function is largest at an end of any interval."""

import argparse
import ast
import math
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcbounds
from mcbounds.bounds import (
    CERTIFICATES,
    chain_drift_minorization_inputs,
    sup_rh_via_containment,
)
from mcbounds.cli import build_parser
from mcbounds.coupling import ChainModel, CouplingConfig
from mcbounds.errors import ContainmentError, InputError
from mcbounds.kernels import laws

SRC = Path(mcbounds.__file__).resolve().parent
DRIFT_KEYS = sorted(key for key, chain in CERTIFICATES.items() if chain.drift is not None)


def _mode(*path: str) -> argparse.ArgumentParser:
    parser = build_parser()
    for name in path:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[name]
    return parser


def _choices(*path: str) -> list[str]:
    preset = next(a for a in _mode(*path)._actions if a.dest == "preset")
    return sorted(preset.choices)


class TestParserMatchesTheTable:
    def test_simulate_has_one_flag_per_chain(self):
        flags = {a.const: a.option_strings for a in _mode("simulate")._actions
                 if a.dest == "model"}
        assert flags == {key: [f"--{key}"] for key in CERTIFICATES}

    def test_minorization_presets_are_every_chain(self):
        assert _choices("verify", "minorization") == sorted(CERTIFICATES)

    @pytest.mark.parametrize("path", [("bound", "t2"), ("verify", "drift")])
    def test_drift_presets_are_the_chains_with_a_drift(self, path):
        assert DRIFT_KEYS
        assert _choices(*path) == DRIFT_KEYS


def test_chain_keys_are_spelled_only_in_the_tables_and_the_parser():
    # (module, top-level name) whose whole definition may spell a key
    exempt = {("bounds.py", "CERTIFICATES"), ("kernels/laws.py", "CHAINS"),
              ("cli.py", "build_parser")}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            if any((module, name) in exempt for name in names):
                allowed.update(id(n) for n in ast.walk(node))
        found += [f"{module}:{n.lineno} {n.value!r}" for n in ast.walk(tree)
                  if isinstance(n, ast.Constant) and isinstance(n.value, str)
                  and n.value in CERTIFICATES and id(n) not in allowed]
    assert found == []


def _command_lines(key: str) -> list[list[str]]:
    """Small command lines of every command that runs the chain ``key``."""
    step = "0.5" if CERTIFICATES[key].n0 == 1 else "0.25"
    lines = [
        ["simulate", f"--{key}", "--reps", "200", "--n-max", "8", "--burn-in", "3",
         "--seed", "3"],
        ["verify", "minorization", "--preset", key, "--probe-step", step],
    ]
    if CERTIFICATES[key].drift is not None:
        lines += [
            ["verify", "drift", "--preset", key, "--grid-step", "0.5"],
            ["bound", "t2", "--preset", key],
            ["bound", "t2", "--preset", key, "--expected-h", "fallback"],
        ]
    return lines


def _run(argv: list[str], key: str | None = None) -> tuple[str, int]:
    """repr of the report (payload and CSV tables) and the exit code of one
    command line, run through its command module with the chain key swapped
    for ``key`` when given."""
    args = build_parser().parse_args(argv)
    if key is not None:
        setattr(args, "model" if args.command == "simulate" else "preset", key)
    report, code = import_module(f"mcbounds.commands.{args.command}").run(args)
    return repr((report.payload, report.csv_tables)), code


@pytest.mark.parametrize("key", sorted(CERTIFICATES))
def test_a_chain_under_a_second_key_behaves_the_same(monkeypatch, key):
    copy = f"{key}-copy"
    monkeypatch.setitem(CERTIFICATES, copy, CERTIFICATES[key])
    monkeypatch.setitem(laws.CHAINS, copy, laws.CHAINS[key])
    for argv in _command_lines(key):
        text, code = _run(argv)
        copied, copied_code = _run(argv, copy)
        assert f"'{key}'" in text
        assert (copied.replace(f"'{copy}'", f"'{key}'"), copied_code) == (text, code), argv
    # the copy accepts the chain's starts and refuses the ones beyond them
    run = dict(model=ChainModel(copy), n_max=2, replications=2, master_seed=0)
    for end, beyond in (("lo", -math.inf), ("hi", math.inf)):
        x0 = getattr(CERTIFICATES[key].space, end)
        if math.isfinite(x0):
            CouplingConfig(x0=x0, **run)
            with pytest.raises(InputError, match=f"for the {copy} chain, got"):
                CouplingConfig(x0=math.nextafter(x0, beyond), **run)


class TestMetropolisStepRadius:
    """The record's step radius r against the kernel's own proposal width."""

    r = CERTIFICATES["rwm-laplace"].step_radius
    x = np.linspace(-10.0, 10.0, 201)

    def test_no_density_beyond_one_radius(self):
        for sign in (-1.0, 1.0):
            assert not laws.rwm_density(self.x, self.x + sign * (self.r + 1e-9)).any()

    def test_no_two_step_density_beyond_two_radii(self):
        for gap in (1e-9, 0.5, 3.0):
            for sign in (-1.0, 1.0):
                z = self.x + sign * (2 * self.r + gap)
                assert not laws.rwm_two_step_density(self.x, z).any()

    def test_window_is_one_radius_either_side(self):
        lo, hi = laws.CHAINS["rwm-laplace"].window(self.x)
        np.testing.assert_array_equal(lo, self.x - self.r)
        np.testing.assert_array_equal(hi, self.x + self.r)

    def test_sampled_moves_stay_within_one_radius(self):
        rng = np.random.default_rng(20)
        x = laws.rwm_stationary(rng, 10**5)
        moves = np.abs(laws.rwm_step(rng, x) - x)
        assert moves.max() <= self.r
        assert moves.max() > 0.99 * self.r  # and the radius is not loose


class TestDriftPeaksAtAnEnd:
    """V never exceeds the larger of its values at an interval's two ends:
    ``bounds.sup_rh_via_containment`` reads V at the region's ends alone,
    and ``verify``'s overflow check at the ends of each one-step window,
    anywhere on the user's grid."""

    # e^{|x|/2} overflows past |x| = 2 ln(DBL_MAX) = 1419.56...; there numpy
    # gives inf and math.exp raises
    EDGE = 2 * math.log(np.finfo(float).max)

    @classmethod
    def assert_peaks_at_an_end(cls, V, lo, hi, xs):
        with np.errstate(over="ignore"):
            assert V(np.asarray(xs, float)).max() <= V(np.array([lo, hi])).max()
        if max(-lo, hi) < cls.EDGE - 1:
            assert max(V(float(x)) for x in xs) <= max(V(lo), V(hi))

    @pytest.mark.parametrize("key", DRIFT_KEYS)
    def test_on_the_region(self, key):
        drift = CERTIFICATES[key].drift
        lo, hi = drift.region.lo, drift.region.hi
        self.assert_peaks_at_an_end(drift.V, lo, hi, np.linspace(lo, hi, 2001))
        assert sup_rh_via_containment(drift.V, drift.region) == max(drift.V(lo), drift.V(hi))

    @pytest.mark.parametrize("key", DRIFT_KEYS)
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_on_sub_intervals_of_the_region(self, key, data):
        drift = CERTIFICATES[key].drift
        self.check_a_sub_interval(drift.V, data, st.floats(drift.region.lo, drift.region.hi))

    @pytest.mark.parametrize("key", DRIFT_KEYS)
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_on_sub_intervals_up_to_the_overflow_edge(self, key, data):
        edge = self.EDGE
        ends = st.one_of(st.floats(-1e3, 1e3), st.floats(edge - 2, edge + 2),
                         st.floats(-edge - 2, -edge + 2))
        self.check_a_sub_interval(CERTIFICATES[key].drift.V, data, ends)

    def check_a_sub_interval(self, V, data, ends):
        # -0.0 sorts before 0.0, which floats(0.0, -0.0) would refuse as empty
        lo, hi = sorted((data.draw(ends), data.draw(ends)), key=lambda v: (v, math.copysign(1, v)))
        xs = data.draw(st.lists(st.floats(lo, hi), min_size=1, max_size=50))
        self.assert_peaks_at_an_end(V, lo, hi, xs)


def test_containment_reads_the_record():
    # bounds.chain_drift_minorization_inputs settles containment by the
    # record's step radius: a chain that moves farther is refused
    chain = CERTIFICATES["rwm-laplace"]
    chain_drift_minorization_inputs(chain)
    with pytest.raises(ContainmentError, match="2 steps of at most 2.5"):
        chain_drift_minorization_inputs(chain._replace(step_radius=2.5))
