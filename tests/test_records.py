"""The record types: construction, validation, immutability, equality and
hashing; and the one rule every integer argument follows."""

import ast
import math
import re
from argparse import Namespace
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from mcbounds import errors
from mcbounds.bounds import (
    BoundReport,
    ChainCertificate,
    ChainDrift,
    DriftMinorizationInputs,
    Interval,
    UnivariateDrift,
    drift_minorization_log_terms,
    minorization_bound,
    minorization_crossing,
    minorization_curve,
)
from mcbounds.commands import _default_start
from mcbounds.coupling import ChainModel, CouplingConfig, FiniteModel
from mcbounds.errors import InputError
from mcbounds.finite_chain import (
    EigenBound,
    EigenMode,
    MinorizationCert,
    ProbVector,
    StochasticMatrix,
    build_grid_walk,
    eigen_bound,
    evolve,
    exact_tv_curve,
    matrix_power,
    minorization_pseudo,
    minorization_uniform,
)
from mcbounds.kernels import laws
from mcbounds.kernels.verify import verify_minorization_numeric


def V(x):
    return math.exp(abs(x) / 2.0)


HALVES = ProbVector((F(1, 2), F(1, 2)))
COIN = StochasticMatrix([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
MODE = EigenMode(0.5 + 0j, 0.25, 0.5)
DRIFT = {"V": V, "text": "exp(|x|/2)", "lam": 0.916, "b": 0.285, "d": math.e,
         "region": Interval(-6.0, 6.0), "pi_v": 2.0, "schedule": (120_000, 274)}

# each record with a valid value for every field, in declaration order
RECORDS = [
    (Interval, {"lo": -2.0, "hi": 2.0}),
    (ChainDrift, DRIFT),
    (ChainCertificate, {"epsilon": 0.5, "n0": 1, "nu": "2*exp(-2y)",
                        "small_set": Interval(0.0, 1.0), "space": Interval(0.0, 1e100),
                        "step_radius": 2.0, "probes": ((0.0, 50.0), (0.0, 50.0)),
                        "drift": ChainDrift(**DRIFT)}),
    (BoundReport, {"ns": (0, 1), "values": (F(1), F(1, 2)), "crossing": 1, "js": (1, 1)}),
    (UnivariateDrift, {"V": V, "small_set": Interval(-2.0, 2.0), "lam": 0.916, "b": 0.285}),
    (DriftMinorizationInputs, {"epsilon": 0.0169, "n0": 2, "alpha": 1.007,
                               "big_b": 20.04, "expected_h": 2.0}),
    (ProbVector, {"entries": (F(1, 2), F(1, 2))}),
    (MinorizationCert, {"variant": "uniform", "small_set": (0, 1), "n0": 2,
                        "epsilon": F(1, 3), "nu": HALVES, "argmin_pairs": ((0, 1),)}),
    (EigenMode, {"eigenvalue": 0.5 + 0j, "weight": 0.25, "projection_norm": 0.5}),
    (EigenBound, {"coefficient": 1.0, "rate": 0.5,
                  "eigenvalues": (1 + 0j, 0.5 + 0j), "stationary": (0.5, 0.5),
                  "modes": (MODE,)}),
    (FiniteModel, {"matrix": COIN, "cert": "uniform", "n0": 1, "small_set": (0, 1)}),
    (ChainModel, {"key": "halfline", "burn_in": 3}),
    (CouplingConfig, {"model": ChainModel("halfline", 3), "n_max": 6, "replications": 10,
                      "master_seed": 1, "x0": 0.5, "record_every": 2}),
    (CouplingConfig, {"model": FiniteModel(COIN, "uniform", 1, (0, 1)), "n_max": 6,
                      "replications": 10, "master_seed": 1, "x0": 1, "record_every": 2}),
]
RECORD_IDS = [f"{cls.__name__}-finite" if isinstance(fields.get("model"), FiniteModel)
              else cls.__name__ for cls, fields in RECORDS]


@pytest.mark.parametrize("cls,fields", RECORDS, ids=RECORD_IDS)
class TestRecord:
    def test_construction_by_position_and_keyword(self, cls, fields):
        by_position = cls(*fields.values())
        by_keyword = cls(**fields)
        for name, value in fields.items():
            assert getattr(by_position, name) == value
            assert getattr(by_keyword, name) == value
        assert by_position == by_keyword

    def test_fields_cannot_be_assigned_or_deleted(self, cls, fields):
        record = cls(**fields)
        for name, value in fields.items():
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) == value
        with pytest.raises(AttributeError):
            record.not_a_field = 1

    def test_equal_records_compare_and_hash_equal(self, cls, fields):
        a, b = cls(**fields), cls(**fields)
        assert a is not b
        assert a == b
        assert not a != b
        assert a != object()
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_repr_names_every_field(self, cls, fields):
        text = repr(cls(**fields))
        assert text.startswith(f"{cls.__name__}(")
        assert all(f"{name}=" in text for name in fields)


def test_repr_shows_each_field_value():
    assert repr(Interval(-2.0, 2.0)) == "Interval(lo=-2.0, hi=2.0)"
    assert repr(HALVES) == "ProbVector(entries=(Fraction(1, 2), Fraction(1, 2)))"


class TestDefaults:
    def test_optional_fields(self):
        assert ChainCertificate(0.5, 1, "nu").small_set is None
        chain = ChainCertificate(0.5, 1, "nu")
        assert chain.space == Interval(-math.inf, math.inf)
        assert (chain.step_radius, chain.probes, chain.drift) == (None, None, None)
        report = BoundReport((0,), (1.0,))
        assert (report.crossing, report.js) == (None, None)
        cert = MinorizationCert("pseudo", (0, 1), 1, F(1, 2), argmin_pairs=((0, 1),))
        assert cert.nu is None

    def test_probability_entries_become_fractions(self):
        vector = ProbVector([1, "0"])
        assert vector.entries == (F(1), F(0))
        assert type(vector.entries) is tuple
        assert vector == ProbVector.delta(2, 0)


@pytest.mark.parametrize("build,message", [
    (lambda: Interval(2, 1), r"empty interval \[2, 1\]"),
    (lambda: UnivariateDrift(V, Interval(-2.0, 2.0), 1.0, 0.285), r"lam must be in \(0, 1\)"),
    (lambda: UnivariateDrift(V, Interval(-2.0, 2.0), 0.9, math.inf), "b must be finite"),
    (lambda: DriftMinorizationInputs(0.0, 2, 1.1, 2.0, 2.0), r"epsilon must be in \(0, 1\)"),
    (lambda: DriftMinorizationInputs(1.0, 2, 1.1, 2.0, 2.0), r"epsilon must be in \(0, 1\)"),
    (lambda: DriftMinorizationInputs(0.1, 2, 1.0, 2.0, 2.0), "alpha must be > 1"),
    (lambda: DriftMinorizationInputs(0.1, 2, 1.1, 0.5, 2.0), "B must be >= 1"),
    (lambda: DriftMinorizationInputs(0.1, 2, 1.1, 2.0, 0.5), "expected h must be >= 1"),
    (lambda: ProbVector((F(1, 2), F(1, 3))), "probabilities must sum to 1, got 5/6"),
    # a sum of thousands of digits is printed as its distance from 1
    (lambda: ProbVector(("1e-1000", "1")),
     r"must sum to 1, got 1 \+ 1e-1000 \(to 3 digits\)$"),
    (lambda: ProbVector(("1e-1000", "1/2", "1/3")),
     r"must sum to 1, got 1 - 1\.67e-1 \(to 3 digits\)$"),
    (lambda: ProbVector((F(3, 2), F(-1, 2))), "probabilities must be >= 0"),
    (lambda: ProbVector((0.5, 0.5)), "floats are not exact"),
    (lambda: MinorizationCert("shared", (0, 1), 1, F(1, 2), HALVES), "unknown variant 'shared'"),
    (lambda: MinorizationCert("uniform", (0, 1), 1, F(0), HALVES), r"epsilon must be in \(0, 1\]"),
    (lambda: MinorizationCert("uniform", (0, 1), 1, F(1, 2)), "uniform certificate requires nu"),
])
def test_invalid_fields_raise_input_error(build, message):
    with pytest.raises(InputError, match=message):
        build()


GRID = build_grid_walk(3, 3)
AT_0 = ProbVector.delta(9, 0)
INPUTS = DriftMinorizationInputs(0.1, 2, 1.1, 2.0, 2.0)


def halfline_run(**counts):
    return CouplingConfig(ChainModel("halfline"), **{
        "n_max": 4, "replications": 2, "master_seed": 0, **counts})


# every entry point that takes an integer: the call with the integer in
# place, the name its refusal gives, the least value it takes, and a value
# it takes
COUNTS = [
    pytest.param(lambda v: FiniteModel(GRID, "pseudo", v), "n0", 1, 2, id="FiniteModel-n0"),
    pytest.param(lambda v: FiniteModel(GRID, "pseudo", 1, (v, 4)), "small-set state", 0, 1,
                 id="FiniteModel-small_set"),
    pytest.param(lambda v: CouplingConfig(FiniteModel(GRID, "pseudo", 2), 2, 2, 0, x0=v),
                 "start state x0", 0, 1, id="CouplingConfig-x0"),
    pytest.param(lambda v: ChainModel("halfline", v), "burn_in", 0, 2, id="ChainModel-burn_in"),
    pytest.param(lambda v: halfline_run(n_max=v), "n_max", 0, 4, id="CouplingConfig-n_max"),
    pytest.param(lambda v: halfline_run(replications=v), "replications", 1, 10,
                 id="CouplingConfig-replications"),
    pytest.param(lambda v: halfline_run(master_seed=v), "master_seed", 0, 1,
                 id="CouplingConfig-master_seed"),
    pytest.param(lambda v: halfline_run(record_every=v), "record_every", 1, 2,
                 id="CouplingConfig-record_every"),
    pytest.param(lambda v: minorization_bound(0.5, v, 3), "n0", 1, 2, id="minorization_bound-n0"),
    pytest.param(lambda v: minorization_bound(0.5, 1, v), "n", 0, 2, id="minorization_bound-n"),
    pytest.param(lambda v: minorization_curve(0.5, v, 3), "n0", 1, 2, id="minorization_curve-n0"),
    pytest.param(lambda v: minorization_curve(0.5, 1, v), "n_max", 0, 2,
                 id="minorization_curve-n_max"),
    pytest.param(lambda v: minorization_crossing(0.5, v, 0.1), "n0", 1, 2,
                 id="minorization_crossing-n0"),
    pytest.param(lambda v: DriftMinorizationInputs(0.1, v, 1.1, 2.0, 2.0), "n0", 1, 2,
                 id="DriftMinorizationInputs-n0"),
    pytest.param(lambda v: drift_minorization_log_terms(INPUTS, v, 1), "n", 1, 3,
                 id="drift_minorization_log_terms-n"),
    pytest.param(lambda v: drift_minorization_log_terms(INPUTS, 5, v), "j", 1, 3,
                 id="drift_minorization_log_terms-j"),
    pytest.param(lambda v: ProbVector.delta(v, 0), "size", 1, 2, id="ProbVector.delta-size"),
    pytest.param(lambda v: ProbVector.delta(9, v), "state", 0, 1, id="ProbVector.delta-state"),
    pytest.param(lambda v: StochasticMatrix.from_num_den([[2]], v), "den", 1, 2,
                 id="StochasticMatrix.from_num_den-den"),
    pytest.param(lambda v: StochasticMatrix.from_json_dict({"size": v, "rows": [[1, 0], [0, 1]]}),
                 "matrix JSON 'size'", 1, 2, id="StochasticMatrix.from_json_dict-size"),
    pytest.param(lambda v: build_grid_walk(v, 2), "rows", 1, 2, id="build_grid_walk-rows"),
    pytest.param(lambda v: build_grid_walk(2, v), "cols", 1, 2, id="build_grid_walk-cols"),
    pytest.param(lambda v: matrix_power(GRID, v), "n", 0, 2, id="matrix_power-n"),
    pytest.param(lambda v: evolve(AT_0, GRID, v), "n", 0, 1, id="evolve-n"),
    pytest.param(lambda v: exact_tv_curve(AT_0, GRID, v), "n_max", 0, 2, id="exact_tv_curve-n_max"),
    pytest.param(lambda v: MinorizationCert("uniform", (0, 1), v, F(1, 2), HALVES), "n0", 1, 2,
                 id="MinorizationCert-n0"),
    pytest.param(lambda v: minorization_uniform(GRID, v), "n0", 1, 2,
                 id="minorization_uniform-n0"),
    pytest.param(lambda v: minorization_pseudo(GRID, v), "n0", 1, 2, id="minorization_pseudo-n0"),
    pytest.param(lambda v: eigen_bound(GRID, AT_0, v), "target", 0, 1, id="eigen_bound-target"),
    pytest.param(lambda v: verify_minorization_numeric(laws.CHAINS["halfline"], v, 0.5,
                                                       laws.hl_nu_density, [0.0], [0.0]),
                 "lag", 1, 1, id="verify_minorization_numeric-lag"),
    pytest.param(lambda v: _default_start(Namespace(start=v, grid="3x3"), 9), "--start", 1, 2,
                 id="_default_start-start"),
]


@pytest.mark.parametrize("call,name,low,good", COUNTS)
@pytest.mark.parametrize("kind", ["whole-float", "float", "bool", "below", "long"])
def test_an_integer_argument_is_refused_unless_an_integer_in_range(call, name, low, good, kind):
    # a float once passed a sign check, or ended in a bare TypeError,
    # ValueError or IndexError; a bool passed as 0 or 1; an int of more
    # digits than str() converts ended in a bare ValueError
    value = {"whole-float": float(good), "float": good + 0.5, "bool": True, "below": low - 1,
             "long": -10**5000}[kind]
    shown = "an integer of 5001 digits" if kind == "long" else repr(value)
    refusal = rf"{re.escape(name)} must be an integer (>= {low}|in {low}\.\.\d+), got "
    with pytest.raises(InputError, match=f"^{refusal}{re.escape(shown)}$"):
        call(value)


@pytest.mark.parametrize("call,name,low,good", COUNTS)
def test_a_numpy_integer_is_taken_as_a_python_int(call, name, low, good):
    # a numpy integer kept would repr as np.int64(...)
    got, want = call(np.int64(good)), call(good)
    assert got == want and hash(got) == hash(want)
    assert repr(got) == repr(want)


def test_integers_are_checked_in_one_place():
    # a hand-written integer check shows up here: isinstance(..., bool) and
    # operator.index appear only in errors.integer, in finite_chain._frac,
    # for which a JSON true is no probability, and in ChainModel.check_start,
    # for which True is no point of the line
    def is_check(node):
        if isinstance(node, ast.Attribute):
            return (node.attr == "index" and isinstance(node.value, ast.Name)
                    and node.value.id == "operator")
        if isinstance(node, ast.ImportFrom):
            return node.module == "operator"
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and any(isinstance(n, ast.Name) and n.id == "bool"
                        for n in ast.walk(node.args[1])))

    def checks(node, where, function=None):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if is_check(node):
            yield where, function
        for child in ast.iter_child_nodes(node):
            yield from checks(child, where, function)

    src = Path(errors.__file__).parent
    found = {check for path in sorted(src.rglob("*.py"))
             for check in checks(ast.parse(path.read_text()), path.relative_to(src).as_posix())}
    assert found == {("errors.py", "integer"), ("finite_chain.py", "_frac"),
                     ("coupling/runner.py", "check_start")}
