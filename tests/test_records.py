"""The record types: construction, validation, immutability, equality and
hashing."""

import math
from fractions import Fraction as F

import pytest

from mcbounds.bounds import (
    BoundReport,
    ChainCertificate,
    ChainDrift,
    DriftMinorizationInputs,
    Interval,
    UnivariateDrift,
)
from mcbounds.coupling import ChainModel, CouplingConfig, FiniteModel
from mcbounds.errors import InputError
from mcbounds.finite_chain import (
    EigenBound,
    EigenMode,
    MinorizationCert,
    ProbVector,
    StochasticMatrix,
)


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
    (lambda: DriftMinorizationInputs(0.1, 0, 1.1, 2.0, 2.0), "n0 must be >= 1"),
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
    (lambda: MinorizationCert("uniform", (0, 1), 0, F(1, 2), HALVES), "n0 must be >= 1"),
    (lambda: MinorizationCert("uniform", (0, 1), 1, F(0), HALVES), r"epsilon must be in \(0, 1\]"),
    (lambda: MinorizationCert("uniform", (0, 1), 1, F(1, 2)), "uniform certificate requires nu"),
])
def test_invalid_fields_raise_input_error(build, message):
    with pytest.raises(InputError, match=message):
        build()
