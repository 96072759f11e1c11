"""Coupling simulator: bound dominance, marginal correctness, determinism."""

import ast
import itertools
import json
import math
import re
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_reference as ref
from coupling_reference import rebuilt, reference_for, run_with_paths
from mcbounds.bounds import CERTIFICATES, MAX_CURVE_POINTS
from mcbounds.coupling import ChainModel, CouplingConfig, FiniteModel, run_coupling
from mcbounds.coupling import engines, runner
from mcbounds.coupling.runner import _quantile
from mcbounds.errors import InputError, MathError
import scalar_reference as sref
from mcbounds.kernels import laws
from mcbounds.finite_chain import (
    MinorizationCert,
    ProbVector,
    StochasticMatrix,
    build_grid_walk,
    evolve,
    exact_tv_curve,
    matrix_power,
    minorization_pseudo,
    minorization_uniform,
    stationary,
)


@pytest.fixture(scope="module")
def grid():
    return build_grid_walk(3, 3)


@pytest.fixture(scope="module")
def grid_pseudo_run(grid):
    """(config, result, xs, xps) of a 3x3 pseudo-certificate run."""
    config = CouplingConfig(
        FiniteModel(grid, "pseudo", 2),
        n_max=60,
        replications=20_000,
        master_seed=42,
        x0=4,
    )
    return config, *run_with_paths(config)


def small_configs(master_seed, replications, record_every=1):
    """One short config of each engine: finite 3x3 pseudo, half-line, Metropolis."""
    grid = build_grid_walk(3, 3)
    common = dict(master_seed=master_seed, replications=replications,
                  record_every=record_every)
    return (
        CouplingConfig(FiniteModel(grid, "pseudo", 2), n_max=8, x0=4, **common),
        CouplingConfig(ChainModel("halfline", burn_in=10), n_max=4, **common),
        CouplingConfig(ChainModel("rwm-laplace", burn_in=10), n_max=20, **common),
    )


def small_runs(master_seed, replications, record_every=1):
    """``(result, xs, xps)`` of each of ``small_configs``."""
    return [run_with_paths(c) for c in small_configs(master_seed, replications, record_every)]


class TestSeeds:
    """Randomness contract: one Generator per block of engines.BLOCK replications."""

    def test_same_seed_gives_same_bytes(self):
        for (a, a_xs, a_xps), (b, b_xs, b_xps) in zip(
            small_runs(2024, 300), small_runs(2024, 300)
        ):
            assert a_xs.tobytes() == b_xs.tobytes()
            assert a_xps.tobytes() == b_xps.tobytes()
            assert json.dumps(a.to_jsonable()) == json.dumps(b.to_jsonable())

    def test_different_masters_differ(self):
        for (_, _, a_xps), (_, _, b_xps) in zip(small_runs(1, 100), small_runs(2, 100)):
            assert not np.array_equal(a_xps, b_xps)

    def test_first_block_repeats_in_a_longer_run(self):
        block = engines.BLOCK
        for (_, one_xs, one_xps), (_, two_xs, two_xps) in zip(
            small_runs(5, block), small_runs(5, 2 * block)
        ):
            assert np.array_equal(two_xs[:block], one_xs)
            assert np.array_equal(two_xps[:block], one_xps)
            assert not np.array_equal(two_xps[block:], one_xps)


class TestStreamedSummary:
    """The per-block totals give the statistics of the whole-matrix reference."""

    @settings(max_examples=25, deadline=None)
    @example(0, 4096, 4, 1, 0)
    @example(2, 1, 12, 3, 5)
    @given(
        st.integers(0, 2),
        st.sampled_from([1, 4095, 4096, 4097, 8193]),
        st.integers(0, 12),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_same_bytes_as_the_whole_matrix_summary(self, model, reps, steps, every, seed):
        config = small_configs(seed, reps, every)[model]
        config = rebuilt(config, n_max=steps * config.model.certificate().n0)
        small = CERTIFICATES["rwm-laplace"].small_set
        # small_configs holds a finite, a half-line and a Metropolis config
        want = reference_for(config, small_set=(small.lo, small.hi) if model == 2 else None)
        got = run_coupling(config)
        assert json.dumps(got.to_jsonable()) == json.dumps(want.to_jsonable())
        if model == 0:
            assert len(got.tv_exact) == len(got.lattice)
        else:
            assert got.tv_exact is None

    def test_a_pair_that_separates_raises(self):
        # the loop joins every pair that met, so only a NaN state, unequal to
        # itself, can separate one
        def start(rng, m):
            return np.zeros(m), np.zeros(m)

        def step(rng, x, xp, coin, heads):
            return np.full(x.size, np.nan), np.full(x.size, np.nan)

        with pytest.raises(MathError, match="decoupled"):
            engines._lockstep(3, 1, 10, 1, 0.5, None, start, step)


class TestLockstepCoin:
    """The coin of ``engines._lockstep`` on a toy chain, with no engine: the
    integer states 0..9, the small set {0, ..., 4} or none, and a step that
    moves each chain by its own draw and never returns a pair equal."""

    EPS = 0.5

    @staticmethod
    def run(in_set, reps=300, steps=6):
        seen = []  # (x, xp, coin, heads, new_x, new_xp) per step

        def start(rng, m):
            return rng.integers(0, 10, m), rng.integers(0, 10, m)

        def step(rng, x, xp, coin, heads):
            new_x = rng.integers(0, 10, x.size)
            new_xp = (new_x + 1 + rng.integers(0, 9, x.size)) % 10  # never new_x
            seen.append((x.copy(), xp.copy(), coin, heads, new_x, new_xp))
            return new_x, new_xp

        blocks = []
        totals = engines._lockstep(steps, 5, reps, 1, TestLockstepCoin.EPS, in_set, start,
                                   step, on_block=lambda first, xs, xps: blocks.append(
                                       (xs.copy(), xps.copy())))
        return totals, seen, blocks

    def test_the_coin_is_flipped_only_for_unequal_pairs_inside_the_set(self):
        totals, seen, _ = self.run(lambda s: s < 5)
        for x, xp, coin, heads, _, _ in seen:
            assert np.array_equal(coin, (x != xp) & (x < 5) & (xp < 5))
            assert not (heads & ~coin).any()
        flips = sum(int(coin.sum()) for _, _, coin, _, _, _ in seen)
        assert totals.opportunities == flips > 0
        # the coin lands heads about eps of the time
        heads = sum(int(h.sum()) for _, _, _, h, _, _ in seen)
        assert abs(heads / flips - self.EPS) < 0.1

    def test_without_a_set_every_unequal_pair_flips(self):
        totals, seen, _ = self.run(None)
        for x, xp, coin, _, _, _ in seen:
            assert np.array_equal(coin, x != xp)
        assert totals.opportunities == sum(int((x != xp).sum()) for x, xp, *_ in seen)

    def test_equal_and_heads_pairs_end_the_step_equal(self):
        totals, seen, blocks = self.run(lambda s: s < 5, steps=8)
        (xs, xps), = blocks
        for k, (x, xp, coin, heads, new_x, new_xp) in enumerate(seen):
            joined = (x == xp) | heads
            assert joined.any() and (~joined).any()
            # the step returned different states for every pair
            assert (new_x != new_xp).all()
            assert np.array_equal(xs[:, k + 1], new_x)
            assert np.array_equal(xps[:, k + 1], np.where(joined, new_x, new_xp))
        assert np.array_equal(totals.coupled, (xs == xps).sum(axis=0))


class TestInverseCdf:
    def test_equals_searchsorted_right_including_steps(self):
        rng = np.random.default_rng(0)
        probs = rng.random((50, 7))
        probs[probs < 0.3] = 0.0
        probs[:, 3] = 0.0
        probs[0] = [0, 0, 1, 0, 0, 0, 0]
        probs /= probs.sum(axis=1, keepdims=True)
        cdf = engines._cdf_rows(probs)
        rows = np.repeat(np.arange(50), 9)
        # every step value of each row, 0, and the largest uniform below 1
        u = np.concatenate([cdf, np.zeros((50, 1)), np.full((50, 1), np.nextafter(1.0, 0.0))],
                           axis=1).ravel()
        u = np.minimum(u, np.nextafter(1.0, 0.0))
        want = [np.searchsorted(cdf[r], v, side="right") for r, v in zip(rows, u)]
        assert np.array_equal(engines.inverse_cdf(cdf[rows], u), want)
        assert np.array_equal(engines.inverse_cdf(cdf[7], u), np.searchsorted(cdf[7], u, "right"))

    def test_never_returns_a_zero_probability_state(self):
        # ten entries of 0.1 add up to 1 - 2**-53 in floating point, so the
        # largest uniforms used to land on the trailing zero-probability state
        probs = np.array([
            [0.1] * 10 + [0.0],
            [0.0, 0.5, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0] * 10 + [1.0],
        ])
        cdf = engines._cdf_rows(probs)
        u = np.unique(np.concatenate([cdf.ravel(), [0.0, 0.25, np.nextafter(1.0, 0.0)]]))
        u = u[u < 1.0]
        for row in range(3):
            drawn = engines.inverse_cdf(cdf[row], u)
            assert np.all(probs[row, drawn] > 0)


def pair_chain_oracle(config):
    """Exact P(X_n != X'_n) and law of X_n on the lattice, from exact rows.

    The coupling is a Markov chain on ordered pairs (x, x') with index
    x * size + x'; its float64 transition matrix is assembled from the
    ``Fraction`` n0-step rows and pair rows of ``fraction_reference``, not
    from the engine, and evolved from mu0 (x) pi.
    """
    cert = config.model.certificate()
    matrix = config.model.matrix
    size = matrix.size
    pn0 = ref.matrix_power(matrix, cert.n0)
    step = np.array([[float(v) for v in row] for row in pn0.rows])
    eps = float(cert.epsilon)
    T = np.zeros((size * size, size * size))
    diagonal = np.arange(size) * (size + 1)
    for x in range(size):
        for xp in range(size):
            i = x * size + xp
            if x == xp:
                T[i, diagonal] = step[x]
            elif x in cert.small_set and xp in cert.small_set:
                shared, r_x, r_xp = (
                    np.array([float(v) for v in row])
                    for row in ref.pair_rows(pn0, cert, x, xp)
                )
                T[i] = (1.0 - eps) * np.outer(r_x, r_xp).ravel()
                T[i, diagonal] += eps * shared
            else:
                T[i] = np.outer(step[x], step[xp]).ravel()
    mu0 = np.eye(size)[config.x0]
    pi = stationary(matrix).to_floats()
    law = np.outer(mu0, pi).ravel()
    p_neq, marginals = [], []
    for _ in range(config.n_max // cert.n0 + 1):
        p_neq.append(1.0 - law[diagonal].sum())
        marginals.append(law.reshape(size, size).sum(axis=1))
        law = law @ T
    return np.array(p_neq), np.array(marginals)


CROSS = (1, 3, 4, 5, 7)  # the centre cross of the 3x3 grid


def line_run(variant):
    """``(matrix, fields)``: a lag-1 coupling on the middle states C = (1, 2,
    3) of the 1x5 grid, whose rows there are uniform on three neighbours.
    Both overlaps are 1/3 on C alone: the uniform one with nu the point mass
    at 2 (state 0 never moves to 2), the pairwise one at the pair (1, 3)
    (the end rows 0 and 4 are disjoint)."""
    return build_grid_walk(1, 5), dict(cert=variant, n0=1, small_set=(1, 2, 3))


class TestPairChainOracle:
    """Simulated p_neq and X_n law against the exact pair-chain law, within 4 se."""

    @pytest.mark.parametrize(
        "make_run",
        [
            lambda grid: (grid, dict(cert="uniform", n0=2)),
            lambda grid: (grid, dict(cert="pseudo", n0=2)),
            lambda grid: (grid, dict(cert="pseudo", n0=2, small_set=CROSS)),
            lambda grid: line_run("uniform"),
            lambda grid: line_run("pseudo"),
        ],
        ids=["uniform", "pseudo", "proper-subset", "line-uniform-small-set",
             "line-pseudo-small-set"],
    )
    def test_simulation_matches_the_exact_pair_chain(self, grid, make_run):
        matrix, fields = make_run(grid)
        config = CouplingConfig(FiniteModel(matrix, **fields), n_max=20, replications=20_000,
                                master_seed=99, x0=0)
        res = run_coupling(config)
        exact_p, exact_law = pair_chain_oracle(config)
        reps = config.replications
        p_se = np.sqrt(exact_p * (1.0 - exact_p) / reps)
        assert np.all(np.abs(np.array(res.p_neq) - exact_p) <= 4.0 * p_se + 1e-12)
        freq = np.array(res.marginal_counts) / reps
        law_se = np.sqrt(exact_law * (1.0 - exact_law) / reps)
        assert np.all(np.abs(freq - exact_law) <= 4.0 * law_se + 1e-12)

    def test_proper_subset_coupling_is_slower(self, grid):
        # the oracle itself must see the smaller small set
        config = CouplingConfig(FiniteModel(grid, "pseudo", 2), n_max=10, replications=1,
                                master_seed=0, x0=0)
        whole, _ = pair_chain_oracle(config)
        subset, _ = pair_chain_oracle(
            rebuilt(config, model=rebuilt(config.model, small_set=CROSS)))
        assert np.all(subset[1:] > whole[1:])


def finite_model(**fields):
    return lambda grid: FiniteModel(grid, n0=2, **fields)


@pytest.mark.parametrize(
    "model,mode",
    [
        (finite_model(cert="uniform"), "uniform"),
        (finite_model(cert="pseudo"), "uniform"),
        (finite_model(cert="pseudo", small_set=CROSS), "small-set"),
        (lambda grid: ChainModel("halfline", burn_in=5), "uniform"),
        (lambda grid: ChainModel("rwm-laplace", burn_in=5), "small-set"),
    ],
    ids=["uniform", "pseudo", "proper-subset", "halfline", "rwm-laplace"],
)
def test_mode_follows_from_the_model_and_certificate(grid, model, mode):
    config = CouplingConfig(model(grid), n_max=4, replications=20, master_seed=1)
    assert config.model.mode() == mode
    assert run_coupling(config).mode == mode


def test_finite_small_set_run_reports_its_coin_flips(grid):
    # a pair flips the coin before a step when it is apart and both states lie in C
    config = CouplingConfig(FiniteModel(grid, "pseudo", 2, small_set=CROSS), n_max=20,
                            replications=3000, master_seed=12)
    cert = config.model.certificate()
    res, xs, xps = run_with_paths(config)
    in_c = np.isin(xs, cert.small_set) & np.isin(xps, cert.small_set)
    flips = int(((xs != xps) & in_c)[:, :-1].sum())
    assert res.mode == "small-set" and flips > 0
    assert res.opportunities_mean == flips / config.replications


class TestFiniteConfigFitsItsMatrix:
    """A finite start, search or small set that names no state of the matrix
    is refused when the model or the config is built."""

    @pytest.mark.parametrize("x0", [-1, 9, 2.0, True])
    def test_start_must_be_a_state_index(self, grid, x0):
        message = f"start state x0 must be an integer in 0..8, got {x0!r}"
        with pytest.raises(InputError, match=re.escape(message)):
            CouplingConfig(FiniteModel(grid, "pseudo", 2), n_max=4, replications=10,
                           master_seed=1, x0=x0)

    @pytest.mark.parametrize("small_set,bad", [((0, 9), 9), ((-1, 0), -1)])
    def test_small_set_must_name_states_of_the_matrix(self, grid, small_set, bad):
        message = f"small-set state must be an integer in 0..8, got {bad}"
        with pytest.raises(InputError, match=re.escape(message)):
            FiniteModel(grid, "pseudo", 2, small_set=small_set)

    @pytest.mark.parametrize("build", [
        lambda grid: minorization_pseudo(grid, 2, 4),
        lambda grid: minorization_uniform(grid, 2, 4),
        lambda grid: FiniteModel(grid, "pseudo", 2, small_set=4),
    ], ids=["pseudo", "uniform", "model"])
    def test_small_set_must_be_a_collection(self, grid, build):
        # one check, the finders', refuses it; tuple(4) once raised a bare TypeError
        message = "small_set must be a collection of state indices, got 4"
        with pytest.raises(InputError, match=re.escape(message)):
            build(grid)

    def test_small_set_order_does_not_matter(self, grid):
        run = dict(n_max=4, replications=10, master_seed=1)
        models = [FiniteModel(grid, "pseudo", 2, small_set=c)
                  for c in ((7, 1, 3, 4, 5), CROSS, [5, 4, 7, 3, 1])]
        configs = [CouplingConfig(model, **run) for model in models]
        assert models[0].small_set == CROSS
        assert len(set(models)) == len(set(configs)) == 1
        assert len({config.model.certificate() for config in configs}) == 1
        # the default small set is every state, as if it were named
        assert FiniteModel(grid, "pseudo", 2) == FiniteModel(grid, "pseudo", 2, range(8, -1, -1))

    @pytest.mark.parametrize("cert,shown", [
        ("Pseudo", "'Pseudo'"), ("minorization_pseudo", "'minorization_pseudo'"),
        (2.5, "a float value"),
    ])
    def test_cert_names_one_of_the_two_searches(self, grid, cert, shown):
        message = f'cert must be "uniform" or "pseudo", got {shown}'
        with pytest.raises(InputError, match=re.escape(message)):
            FiniteModel(grid, cert, 2)

    @pytest.mark.parametrize("n0", [0, 2.0, True])
    def test_lag_must_be_a_positive_integer(self, grid, n0):
        with pytest.raises(InputError, match=re.escape(f"n0 must be an integer >= 1, got {n0!r}")):
            FiniteModel(grid, "pseudo", n0)


def _runner_class(tree, name):
    """The class ``name`` of the runner's syntax ``tree``."""
    cls, = (n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == name)
    return cls


def test_the_certificate_table_is_read_in_one_place():
    # the engines take their chain and certificate from the runner, which
    # reads the table only in ChainModel.certificate()
    assert not re.search("CERTIFICATES|CHAINS", Path(engines.__file__).read_text())

    def table_reads(node):
        return [n for n in ast.walk(node) if isinstance(n, ast.Subscript)
                and isinstance(n.value, ast.Name) and n.value.id == "CERTIFICATES"]

    tree = ast.parse(Path(runner.__file__).read_text())
    inside = [n for f in _runner_class(tree, "ChainModel").body if isinstance(f, ast.FunctionDef)
              and f.name == "certificate" for n in table_reads(f)]
    assert len(inside) == 1 and table_reads(tree) == inside


def test_the_runner_asks_the_model_not_its_name():
    # no model, nor a chain's key, is compared with a string; the chain
    # tables are read by ChainModel alone, so each kind answers for itself
    tree = ast.parse(Path(runner.__file__).read_text())

    def is_model(n):
        return (isinstance(n, ast.Name) and n.id in ("model", "key")
                or isinstance(n, ast.Attribute) and n.attr in ("model", "key"))

    def is_text(n):
        if isinstance(n, (ast.Tuple, ast.List, ast.Set)):
            return any(map(is_text, n.elts))
        return isinstance(n, ast.Constant) and isinstance(n.value, str)

    for compare in (n for n in ast.walk(tree) if isinstance(n, ast.Compare)):
        operands = [compare.left, *compare.comparators]
        assert not (any(map(is_model, operands)) and any(map(is_text, operands))), (
            ast.unparse(compare))
    tables = [n for n in ast.walk(tree)
              if isinstance(n, ast.Name) and n.id in ("CERTIFICATES", "CHAINS")]
    assert {n.id for n in tables} == {"CERTIFICATES", "CHAINS"}
    chain = {id(n) for n in ast.walk(_runner_class(tree, "ChainModel"))}
    assert {id(n) for n in tables} <= chain


class TestRecordEvery:
    """Every engine keeps every record_every-th lattice point of the same paths."""

    @pytest.mark.parametrize("every", [2, 3])
    def test_recorded_columns_are_the_full_run_thinned(self, every):
        full = small_runs(8, 200)
        thinned = small_runs(8, 200, every)
        for (a, a_xs, a_xps), (b, b_xs, b_xps) in zip(full, thinned):
            assert b.lattice == a.lattice[::every]
            assert np.array_equal(b_xs, a_xs[:, ::every])
            assert np.array_equal(b_xps, a_xps[:, ::every])
            assert b.p_neq == a.p_neq[::every]
            # coupling times stay exact between recorded points
            assert b.coupling_time_mean == a.coupling_time_mean
            assert b.uncoupled == a.uncoupled


class TestContinuousOverlapBounds:
    def test_negative_acceptance_probability_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(MathError, match="below zero"):
            engines.residual_draw(
                rng, np.zeros(5), lambda rng, x: x + rng.random(x.size),
                lambda x, z: 0.5 - z,
            )

    def test_undefined_acceptance_probability_raises(self):
        # 0/0 where the density underflows: not evidence against the certificate
        rng = np.random.default_rng(0)
        with pytest.raises(MathError, match="undefined"):
            engines.residual_draw(
                rng, np.zeros(5), lambda rng, x: x + rng.random(x.size),
                lambda x, z: np.where(z > 0.5, np.nan, 0.5),
            )

    def test_halfline_start_capped_where_the_density_stays_finite(self):
        cap = CERTIFICATES["halfline"].space.hi
        run = dict(model=ChainModel("halfline", burn_in=10), n_max=4, replications=10,
                   master_seed=1)
        with pytest.raises(InputError, match=r"x0 must be in \[0, 1e\+100\] for the halfline"):
            CouplingConfig(x0=math.nextafter(cap, math.inf), **run)
        with np.errstate(over="raise", invalid="raise"):
            result = run_coupling(CouplingConfig(x0=cap, **run))
        assert all(math.isfinite(p) for p in result.p_neq)

    @pytest.mark.parametrize("run", [
        dict(replications=10_000_000, n_max=60),
        dict(replications=1, n_max=2**27),
        dict(replications=10**12, n_max=10**6, record_every=10**6),
    ])
    def test_recorded_states_capped(self, grid, run):
        with pytest.raises(InputError, match="work budget"):
            CouplingConfig(FiniteModel(grid, "uniform", 2), master_seed=1, **run)
        run = {**run, "model": ChainModel("rwm-laplace"), "n_max": 2 * run["n_max"]}
        with pytest.raises(InputError, match="work budget"):
            CouplingConfig(master_seed=1, **run)

    def test_recorded_points_capped_at_a_bound_curve(self, grid):
        # within the work budget; the cap keeps a block's trajectory buffer
        # under 4096 x 10 000 pair states and the report under 10 000 rows
        config = CouplingConfig(FiniteModel(grid, "uniform", 2), master_seed=1,
                                replications=4096, n_max=2 * MAX_CURVE_POINTS - 1)
        assert len(config.lattice()) == MAX_CURVE_POINTS
        with pytest.raises(InputError, match=f"{MAX_CURVE_POINTS + 1} lattice points.*--record-every"):
            rebuilt(config, n_max=2 * MAX_CURVE_POINTS)
        with pytest.raises(InputError, match="--record-every"):
            CouplingConfig(ChainModel("rwm-laplace"), master_seed=1, replications=4096,
                           n_max=4 * MAX_CURVE_POINTS)
        thinned = rebuilt(config, n_max=4 * MAX_CURVE_POINTS - 1, record_every=2)
        assert len(thinned.lattice()) == MAX_CURVE_POINTS

    def test_work_budget_counts_blocks_at_a_minimum_width(self):
        width = engines.MIN_BLOCK_WIDTH
        assert engines.pair_steps(1, 1) == width
        assert engines.pair_steps(engines.BLOCK, 7) == engines.BLOCK * 7
        assert engines.pair_steps(2 * engines.BLOCK + 1, 3) == (2 * engines.BLOCK + width) * 3
        assert engines.pair_steps(engines.BLOCK + width + 1, 2) == (
            (engines.BLOCK + width + 1) * 2
        )

    def test_work_budget_admits_long_runs_that_memory_once_refused(self, grid):
        # 70 000 replications x 1001 lattice points were 7.0e7 recorded states
        CouplingConfig(FiniteModel(grid, "pseudo", 2), master_seed=1, replications=70_000,
                       n_max=2000)
        with pytest.raises(InputError, match="work budget"):
            CouplingConfig(ChainModel("halfline"), master_seed=1, replications=1,
                           n_max=engines.MAX_PAIR_STEPS // engines.MIN_BLOCK_WIDTH)

    def test_redraws_stop_after_the_round_cap(self):
        rng = np.random.default_rng(0)
        with pytest.raises(MathError, match=f"{engines.MAX_REDRAW_ROUNDS} rounds"):
            engines.residual_draw(
                rng, np.zeros(5), lambda rng, x: x + rng.random(x.size),
                lambda x, z: np.zeros_like(z),
            )

    def test_halfline_epsilon_one_no_longer_samples_silently(self):
        # with eps = 1 the acceptance 1 - nu/p is negative near 0; z = x is
        # the atom, always kept, so the probe sits off it
        def keep(x, z):
            return engines._keep(laws.CHAINS["halfline"], 1.0, x, z)

        assert keep(np.zeros(1), np.full(1, 0.01))[0] < 0
        with pytest.raises(MathError):
            engines.residual_draw(np.random.default_rng(0), np.zeros(4096),
                                  laws.hl_step, keep)


def ks_distance(samples, cdf):
    """Kolmogorov-Smirnov distance of a sample from a continuous CDF."""
    x = np.sort(samples)
    f = cdf(x)
    n = x.size
    return max(np.max(np.arange(1, n + 1) / n - f), np.max(f - np.arange(n) / n))


class TestArrayKernels:
    """The shared array samplers and densities against the scalar reference formulas."""

    def test_rwm_two_step_density_matches_the_scalar_one(self):
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.uniform(-3, 3, 400), [0.0, 1.0, -1.0, 2.0, 0.5]])
        z = np.concatenate([x[:400] + rng.uniform(-4, 4, 400), [0.0, 1.0, 1.0, -2.0, 4.5]])
        got = laws.rwm_two_step_density(x, z)
        want = [sref.rwm_two_step_density(float(a), float(b)) for a, b in zip(x, z)]
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)
        assert laws.rwm_conv2(x, z) == pytest.approx(
            [sref.rwm_conv2(float(a), float(b)) for a, b in zip(x, z)], rel=1e-12, abs=1e-300
        )

    def test_rwm_conv2_at_its_kinks(self):
        # the integrand bends at w = 0, +-|x|, +-|z|; z = +-x makes a flat
        # top of no width, and |x - z| = 4 leaves the windows one common point
        xs = [-3.5, -2.0, -1.0, -0.25, 0.0, 0.5, 1.0, 2.0, 3.0]
        pairs = [(v, w) for v in xs for w in (0.0, v, -v, v + 4.0, v - 4.0)]
        pairs += [(0.0, v) for v in xs]
        x, z = np.array(pairs).T
        got = laws.rwm_conv2(x, z)
        assert got == pytest.approx([sref.rwm_conv2(a, b) for a, b in pairs], rel=1e-12,
                                    abs=1e-300)
        assert np.all(got[np.abs(x - z) == 4.0] == 0.0)

    def test_rwm_conv2_where_the_windows_barely_overlap(self):
        # an overlap 4 - |x - z| from 1e-12 to 1e-1: a difference of two
        # antiderivative values of order one, so an absolute error near 1e-16
        gap = 10.0 ** -np.arange(1, 13)
        pairs = [(v, v + sign * (4.0 - g)) for v in (-2.5, -1.0, 0.3, 1.7, 3.0)
                 for sign in (1.0, -1.0) for g in gap]
        x, z = np.array(pairs).T
        want = [sref.rwm_conv2(a, b) for a, b in pairs]
        assert np.max(np.abs(laws.rwm_conv2(x, z) - want)) <= 1e-15

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-6.0, 6.0), st.floats(-3.99, 3.99))
    def test_rwm_conv2_is_in_detailed_balance(self, x, step):
        # pi(x) p2(x, z) = pi(z) p2(z, x) for the target pi(x) ~ exp(-|x|)
        z = x + step
        forward = math.exp(-abs(x)) * float(laws.rwm_conv2(x, z))
        backward = math.exp(-abs(z)) * float(laws.rwm_conv2(z, x))
        assert forward == pytest.approx(backward, rel=1e-12)

    def test_densities_match_the_scalar_ones(self):
        rng = np.random.default_rng(13)
        x = np.concatenate([rng.uniform(-4, 4, 300), [-1.0, 0.0, 1.0, 2.0]])
        y = np.concatenate([x[:300] + rng.uniform(-3, 3, 300), [1.0, 2.0, -1.0, 4.0]])
        pairs = list(zip(x.tolist(), y.tolist()))
        assert laws.rwm_density(x, y) == pytest.approx(
            [sref.rwm_density(a, b) for a, b in pairs], rel=1e-14)
        assert laws.rwm_atom(x) == pytest.approx([sref.rwm_atom(a) for a in x.tolist()], rel=1e-14)
        hx, hy = np.abs(x), np.abs(y)
        assert laws.hl_density(hx, hy) == pytest.approx(
            [sref.hl_density(a, b) for a, b in zip(hx.tolist(), hy.tolist())], rel=1e-14)
        assert laws.hl_nu_density(hy) == pytest.approx(
            [sref.hl_nu_density(b) for b in hy.tolist()], rel=1e-14)

    def test_halfline_acceptance_matches_the_scalar_formula(self):
        # off the diagonal z = x, where the atom is always kept
        x = np.linspace(0.0, 5.0, 50)
        z = np.linspace(0.01, 8.0, 50)
        got = engines._keep(laws.CHAINS["halfline"], 0.4, x, z)
        want = [1.0 - 0.4 * sref.hl_nu_density(b) / sref.hl_density(a, b)
                for a, b in zip(x, z)]
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("model", ["halfline", "rwm-laplace"])
    def test_acceptance_is_the_scalar_formula_off_the_atom(self, model):
        chain, eps = laws.CHAINS[model], CERTIFICATES[model].epsilon
        rng = np.random.default_rng(17)
        if model == "halfline":
            x, z = rng.uniform(0.0, 5.0, 200), rng.uniform(0.0, 8.0, 200)
            nu, p_n0, nowhere = sref.hl_nu_density, sref.hl_density, 400.0
        else:
            x, z = rng.uniform(-2.0, 2.0, 200), rng.uniform(-1.0, 1.0, 200)
            nu, p_n0, nowhere = sref.rwm_nu_density, sref.rwm_two_step_density, 1.5
        want = [1.0 - eps * nu(b) / p_n0(a, b) for a, b in zip(x.tolist(), z.tolist())]
        assert engines._keep(chain, eps, x, z) == pytest.approx(want, rel=1e-12, abs=1e-12)
        # the n0-step atom z = x and a draw where nu is 0 are always kept
        assert chain.nu_density(np.array(nowhere)) == 0.0
        assert np.all(engines._keep(chain, eps, x, x.copy()) == 1.0)
        assert np.all(engines._keep(chain, eps, x, np.full_like(x, nowhere)) == 1.0)

    def test_halfline_step_law(self):
        x = 1.0
        z = laws.hl_step(np.random.default_rng(4), np.full(100_000, x))
        scale = x + 1.0
        law = lambda t: 0.5 * (1 - np.exp(-2 * t)) + 0.5 * np.array(
            [math.erf(v / (scale * math.sqrt(2))) for v in t])
        assert ks_distance(z, law) < 1.63 / math.sqrt(z.size)

    def test_halfline_residual_law_is_the_half_normal(self):
        # at eps = 1/2 the residual (p - nu/2) / (1/2) is exactly the half-normal part
        x = 0.5
        z = engines.residual_draw(
            np.random.default_rng(5), np.full(100_000, x), laws.hl_step,
            lambda x, z: engines._keep(laws.CHAINS["halfline"], 0.5, x, z),
        )
        scale = x + 1.0
        law = lambda t: np.array([math.erf(v / (scale * math.sqrt(2))) for v in t])
        assert ks_distance(z, law) < 1.63 / math.sqrt(z.size)

    def test_rwm_step_law(self):
        from scipy.integrate import quad

        x = 0.7
        y = laws.rwm_step(np.random.default_rng(6), np.full(200_000, x))
        for t in (-1.0, 0.0, 0.7, 1.5, 2.5):
            cont, _ = quad(lambda v: sref.rwm_density(x, v), x - 2.0, min(t, x + 2.0))
            want = cont + (sref.rwm_atom(x) if t >= x else 0.0)
            got = np.mean(y <= t)
            assert abs(got - want) <= 4 * math.sqrt(want * (1 - want) / y.size) + 1e-12

    def test_rwm_residual_law(self):
        from scipy.integrate import quad

        # an overlap above the published one, still below the two-step density
        x, eps, lo, hi = 0.5, 0.07, -1.0, 0.0
        w = engines.residual_draw(
            np.random.default_rng(7), np.full(100_000, x),
            lambda rng, x: laws.rwm_step(rng, laws.rwm_step(rng, x)),
            lambda x, w: engines._keep(laws.CHAINS["rwm-laplace"], eps, x, w),
        )
        mass, _ = quad(lambda v: sref.rwm_two_step_density(x, v), lo, hi, points=[-0.5])
        want = (mass - eps * 0.5 * (hi - lo)) / (1.0 - eps)
        got = np.mean((lo <= w) & (w <= hi))
        assert abs(got - want) <= 4 * math.sqrt(want * (1 - want) / w.size)


class TestQuantile:
    @settings(max_examples=200, deadline=None)
    @example(1, 40, 0)
    @example(2, 40, 0)
    @example(2, 0, 0)
    @given(
        st.integers(1, 5000),
        st.integers(0, 40),
        st.integers(0, 2**32 - 1),
    )
    def test_same_float_bytes_as_numpy(self, n, bits, seed):
        # values up to 2^bits: small bits repeat values, large ones reach 2^40
        values = np.random.default_rng(seed).integers(0, 2**bits, n, endpoint=True)
        ordered = np.sort(values).tolist()
        qs = (0.5, 0.9, 0.99)
        got = [_quantile(ordered.__getitem__, len(ordered), q) for q in qs]
        assert all(type(v) is float for v in got)
        assert np.array(got).tobytes() == np.quantile(values, qs).tobytes()


class TestGridCoupling:
    def test_non_coupling_dominated_by_geometric_bound(self, grid_pseudo_run):
        config, res, _, _ = grid_pseudo_run
        for n, p, se in zip(res.lattice, res.p_neq, res.p_neq_se):
            assert p <= float(F(2, 3)) ** (n // 2) + 3 * se

    def test_uniform_cert_dominated_too(self, grid):
        config = CouplingConfig(
            FiniteModel(grid, "uniform", 2),
            n_max=40,
            replications=20_000,
            master_seed=7,
            x0=4,
        )
        res = run_coupling(config)
        for n, p, se in zip(res.lattice, res.p_neq, res.p_neq_se):
            assert p <= float(F(71, 80)) ** (n // 2) + 3 * se

    def test_marginals_match_exact_evolution(self, grid, grid_pseudo_run):
        config, res, _, _ = grid_pseudo_run
        mu0 = ProbVector.delta(9, 4)
        for k, n in enumerate(res.lattice):
            want = evolve(mu0, grid, n).to_floats()
            got = np.array(res.marginal_counts[k]) / config.replications
            se = np.sqrt(want * (1 - want) / config.replications)
            assert np.all(np.abs(got - want) <= 4 * se + 1e-12)

    def test_stationary_marginal_stays_stationary(self, grid, grid_pseudo_run):
        config, res, _, _ = grid_pseudo_run
        pi = stationary(grid).to_floats()
        for k in range(len(res.lattice)):
            got = np.array(res.marginal_counts_prime[k]) / config.replications
            se = np.sqrt(pi * (1 - pi) / config.replications)
            assert np.all(np.abs(got - pi) <= 4 * se)

    def test_once_coupled_forever(self, grid_pseudo_run):
        _, _, xs, xps = grid_pseudo_run
        eq = xs == xps
        assert np.all(~eq[:, :-1] | eq[:, 1:])

    def test_non_coupling_frequency_non_increasing(self, grid_pseudo_run):
        _, res, _, _ = grid_pseudo_run
        assert all(b <= a for a, b in zip(res.p_neq, res.p_neq[1:]))

    def test_coupling_inequality_against_the_exact_distance(self, grid_pseudo_run):
        # TV_n <= P(T > n); the error is taken at TV_n, since late slots have
        # p_neq = 0 and so a standard error of 0 there
        config, res, _, _ = grid_pseudo_run
        for tv, p in zip(res.tv_exact, res.p_neq):
            assert tv <= p + 3 * math.sqrt(tv * (1 - tv) / config.replications)

    @pytest.mark.parametrize("rows,n0,start,every", [
        (3, 2, 4, 1), (3, 2, 0, 1), (3, 2, 4, 3), (3, 2, 0, 3),
        # a 5x5 walk has no pairwise overlap at lag 2
        (5, 6, 12, 1), (5, 6, 0, 3),
    ])
    def test_tv_exact_is_the_exact_curve(self, rows, n0, start, every):
        matrix = build_grid_walk(rows, rows)
        mu0 = ProbVector.delta(matrix.size, start)
        config = CouplingConfig(
            FiniteModel(matrix, "pseudo", n0), n_max=60, replications=3, master_seed=5,
            x0=start, record_every=every,
        )
        res = run_coupling(config)
        curve = exact_tv_curve(mu0, matrix, config.lattice()[-1])
        assert len(res.tv_exact) == len(res.lattice)
        for n, tv in zip(res.lattice, res.tv_exact):
            assert tv == pytest.approx(float(curve.value_at(n)), abs=1e-12, rel=0)

    def test_immediate_coupling_with_full_overlap(self):
        # identical rows: the chain forgets its state in one step, overlap 1
        iid = StochasticMatrix([[F(1, 3), F(2, 3)], [F(1, 3), F(2, 3)]])
        config = CouplingConfig(
            FiniteModel(iid, "uniform", 1),
            n_max=5,
            replications=2_000,
            master_seed=3,
            x0=0,
        )
        assert config.model.certificate().epsilon == 1
        res = run_coupling(config)
        assert all(p == 0.0 for p in res.p_neq[1:])

    def test_invalid_certificate_rejected(self, grid):
        # a certificate is found on the matrix, never taken from the caller:
        # one built by hand, here claiming 1/2 where the overlap is 9/80, is
        # refused before any residual could go negative
        good = minorization_uniform(grid, 2)
        inflated = MinorizationCert(
            variant="uniform",
            small_set=good.small_set,
            n0=2,
            epsilon=F(1, 2),
            nu=good.nu,
        )
        message = 'cert must be "uniform" or "pseudo", got a MinorizationCert value'
        with pytest.raises(InputError, match=re.escape(message)):
            FiniteModel(grid, inflated, 2)


ULP = 2.0**-53  # the unit roundoff of float64


def exact_cdf(row) -> np.ndarray:
    return np.array([float(v) for v in itertools.accumulate(row)])


def assert_rows_match_reference(matrix, cert):
    """The engine's step rows are the correctly rounded n0-step matrix, and
    the heads and tails CDFs it forms for every ordered pair of distinct
    states lie within a few ulps a state of the CDFs of the exact pair rows,
    end at exactly 1, never decrease below 1 and stay flat on every state of
    exact probability 0."""
    config = CouplingConfig(FiniteModel(matrix, cert.variant, cert.n0, cert.small_set),
                            n_max=1, replications=1, master_seed=0)
    assert config.model.certificate() == cert
    step_rows = matrix_power(config.model.matrix, config.model.n0).to_floats()
    nu = cert.nu.to_floats() if cert.nu is not None else None
    size = matrix.size
    pn0 = ref.matrix_power(matrix, cert.n0)
    assert np.array_equal(step_rows, [[float(v) for v in row] for row in pn0.rows])
    eps = float(cert.epsilon)
    x, xp = np.divmod(np.arange(size * size), size)
    x, xp = x[x != xp], xp[x != xp]
    rows = step_rows[np.stack([x, xp])]
    # heads: x draws from the overlap law; tails: each chain from its residual
    heads = engines._coin_cdf(rows.copy(), np.ones(x.size, bool), eps, nu)[0]
    tails = engines._coin_cdf(rows.copy(), np.zeros(x.size, bool), eps, nu)
    # each CDF entry sums at most size entries, each a few roundings off
    slack = (2 * size + 4) * ULP
    for k in range(x.size):
        want_nu, *want_resid = ref.pair_rows(pn0, cert, int(x[k]), int(xp[k]))
        got = [heads[k]] if eps == 1.0 else [heads[k], tails[0, k], tails[1, k]]
        want = [want_nu] if eps == 1.0 else [want_nu, *want_resid]
        for cdf, row, scale in zip(got, want, [1.0, 1.0 - eps, 1.0 - eps]):
            # entries rounded above 1 lie past every uniform, like 1 itself
            probs = np.diff(np.minimum(cdf, 1.0), prepend=0.0)
            assert cdf[-1] == 1.0 and np.all(probs >= 0.0)
            assert np.all(probs[np.array(row) == 0] == 0.0)
            assert np.all(np.abs(cdf - exact_cdf(row)) <= slack / scale)
        if eps == 1.0:
            assert want_resid == [None, None]


class TestFiniteTables:
    """The finite engine's arrays and the pair rows it forms on demand
    against the exact ``Fraction`` rows of ``fraction_reference``."""

    @pytest.mark.parametrize(
        "shape,finder,n0",
        [
            ((3, 3), minorization_uniform, 2),
            ((3, 3), minorization_pseudo, 2),
            ((5, 5), minorization_pseudo, 6),
        ],
    )
    def test_grid_tables(self, shape, finder, n0):
        grid = build_grid_walk(*shape)
        assert_rows_match_reference(grid, finder(grid, n0))

    @pytest.mark.parametrize("finder", [minorization_uniform, minorization_pseudo])
    def test_exact_zeros_stay_zero_on_small_grids(self, finder):
        # argmin pairs and column minima give exact zeros that the float
        # difference puts on either side of 0: on the 2x2 grid at lag 3 an
        # unguarded residual gave excluded states probability 7.8e-16
        for shape in ((1, 2), (2, 2), (2, 3), (3, 3)):
            grid = build_grid_walk(*shape)
            for n0 in range(1, 7):
                cert = finder(grid, n0)
                if cert is not None:
                    assert_rows_match_reference(grid, cert)

    def test_disjoint_rows_refuse_any_pairwise_overlap(self):
        # the two states never meet, so no pair of rows overlaps and no
        # pairwise certificate exists to couple with
        with pytest.raises(MathError, match="^no pseudo overlap at lag 1 for this chain$"):
            CouplingConfig(FiniteModel(ref.identity(2), "pseudo", 1), n_max=1,
                           replications=1, master_seed=0)

    def test_full_overlap_tables(self):
        iid = StochasticMatrix([[F(1, 3), F(2, 3)], [F(1, 3), F(2, 3)]])
        for finder in (minorization_uniform, minorization_pseudo):
            cert = finder(iid, 1)
            assert cert.epsilon == 1
            assert_rows_match_reference(iid, cert)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(2, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, 9), min_size=n, max_size=n).filter(any),
                min_size=n,
                max_size=n,
            )
        ),
        st.integers(1, 2),
        st.booleans(),
    )
    def test_random_chain_tables(self, weights, n0, full_overlap):
        if full_overlap:  # every row the same: overlap 1 at every lag
            weights = [weights[0]] * len(weights)
        matrix = StochasticMatrix([[F(w, sum(row)) for w in row] for row in weights])
        for finder in (minorization_uniform, minorization_pseudo):
            cert = finder(matrix, n0)
            if cert is not None:
                assert cert.epsilon == 1 or not full_overlap
                assert_rows_match_reference(matrix, cert)

    def test_argmin_residual_is_clipped_and_never_drawn(self):
        # pair (0, 8) attains the 3x3 grid's pairwise overlap at lag 6, so
        # each of its residual rows is exactly 0 wherever that row is the
        # smaller; the float difference dips below 0 at one such state
        grid = build_grid_walk(3, 3)
        cert = minorization_pseudo(grid, 6)
        assert (0, 8) in cert.argmin_pairs
        rows = matrix_power(grid, 6).to_floats()[[[0], [8]]]
        eps = float(cert.epsilon)
        mins = np.minimum(rows[0], rows[1])
        assert ((rows - eps * mins / mins.sum()) / (1.0 - eps)).min() < 0.0
        cdf = engines._coin_cdf(rows, np.zeros(1, bool), eps, None)[:, 0]
        _, *exact = ref.pair_rows(ref.matrix_power(grid, 6), cert, 0, 8)
        zero = np.array(exact) == 0
        assert zero.any() and np.all(np.diff(cdf, prepend=0.0)[zero] == 0.0)
        # every step of either CDF, its neighbours, 0 and the largest uniform
        steps = np.unique(cdf)
        u = np.concatenate([steps, np.nextafter(steps, 0.0), np.nextafter(steps, 2.0),
                            [0.0, np.nextafter(1.0, 0.0)]])
        u = np.unique(u[(u >= 0.0) & (u < 1.0)])
        for row in range(2):
            drawn = engines.inverse_cdf(cdf[row], u)
            assert not zero[row, drawn].any()


class TestHalflineCoupling:
    def test_geometric_coin_tail(self):
        config = CouplingConfig(
            ChainModel("halfline"),
            n_max=12,
            replications=20_000,
            master_seed=77,
        )
        res = run_coupling(config)
        for n, p in zip(res.lattice, res.p_neq):
            want = 0.5**n
            se = math.sqrt(want * (1 - want) / config.replications)
            assert abs(p - want) <= 3 * se + 1e-12

    def test_negative_start_rejected(self):
        with pytest.raises(InputError):
            CouplingConfig(
                ChainModel("halfline"), n_max=5, replications=10, master_seed=1, x0=-1.0
            )

    @pytest.mark.parametrize("model", ["halfline", "rwm-laplace"])
    @pytest.mark.parametrize("x0", [True, np.True_, np.False_])
    def test_bool_start_rejected(self, model, x0):
        # a bool was taken as the number 1.0 or 0.0
        message = f"start point x0 must be a finite number, got {x0!r}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            CouplingConfig(ChainModel(model), n_max=4, replications=2, master_seed=0, x0=x0)


@pytest.fixture(scope="module")
def rwm_run():
    config = CouplingConfig(
        ChainModel("rwm-laplace"),
        n_max=20_000,
        replications=500,
        master_seed=11,
        record_every=50,
    )
    return config, *run_with_paths(config)


class TestRwmSmallSetCoupling:
    def test_every_replication_couples_within_cap(self, rwm_run):
        _, res, _, _ = rwm_run
        assert res.uncoupled == 0
        assert res.coupling_time_mean is not None

    def test_opportunity_rate_matches_overlap_constant(self, rwm_run):
        # coupling needs on average about 1/eps coin flips
        _, res, _, _ = rwm_run
        eps = 1.0 / (8.0 * math.e**2)
        assert res.opportunities_mean == pytest.approx(1.0 / eps, rel=0.15)

    def test_drift_function_mean_stays_bounded(self, rwm_run):
        # iterated one-step drift gives E[V(X_n)] <= V(x0) + b/(1-lam)
        config, _, xs, _ = rwm_run
        v0 = math.exp(abs(config.x0) / 2.0)
        cap = v0 + 0.285 / (1.0 - 0.916)
        vals = np.exp(np.abs(xs) / 2.0)
        for k in range(vals.shape[1]):
            mean = vals[:, k].mean()
            se = vals[:, k].std(ddof=1) / math.sqrt(vals.shape[0])
            assert mean <= cap + 3 * se

    def test_once_coupled_forever_on_recorded_lattice(self, rwm_run):
        _, _, xs, xps = rwm_run
        eq = xs == xps
        assert np.all(~eq[:, :-1] | eq[:, 1:])


class TestContinuousEngine:
    """One engine runs both continuous chains, the certificate's small set
    (None: the whole space) deciding where the coin is flipped."""

    def test_one_chain_per_certificate(self):
        assert laws.CHAINS.keys() == CERTIFICATES.keys()

    def test_config_refuses_another_model(self):
        with pytest.raises(InputError, match="unknown model 'laplace'"):
            ChainModel("laplace")
        # a model named by its key, as the config once took it, is no model
        with pytest.raises(InputError, match="model must be a FiniteModel or a ChainModel, "
                                             "got 'halfline'"):
            CouplingConfig("halfline", n_max=2, replications=2, master_seed=0)

    @staticmethod
    def coin_run(model, x0):
        """Totals of a seeded run recording every step, its paths, and the
        unequal pairs summed over the steps before the last."""
        reps, blocks = 300, []
        totals = engines.continuous_coupling_paths(
            laws.CHAINS[model], CERTIFICATES[model], 12, 3, reps, 1, x0, 0,
            lambda first, xs, xps: blocks.append((xs.copy(), xps.copy())),
        )
        xs, xps = map(np.concatenate, zip(*blocks))
        unequal_before_a_step = int((reps - totals.coupled[:-1]).sum())
        return totals, xs, xps, unequal_before_a_step

    def test_halfline_flips_the_coin_for_every_unequal_pair(self):
        totals, _, _, unequal = self.coin_run("halfline", 0.0)
        assert totals.opportunities == unequal > 0
        # the whole-space coupling reports no coin count
        config = CouplingConfig(ChainModel("halfline"), n_max=4, replications=20,
                                master_seed=1)
        assert run_coupling(config).opportunities_mean is None

    def test_metropolis_flips_the_coin_only_inside_the_small_set(self):
        # from x0 = 5 every pair starts outside [-2, 2]
        totals, xs, xps, unequal = self.coin_run("rwm-laplace", 5.0)
        small = CERTIFICATES["rwm-laplace"].small_set
        coin = (xs != xps) & small.contains(xs) & small.contains(xps)
        assert totals.opportunities == int(coin[:, :-1].sum())
        assert 0 < totals.opportunities < unequal


class TestDeterminism:
    def test_rerun_is_byte_identical(self, grid):
        config = CouplingConfig(
            FiniteModel(grid, "pseudo", 2),
            n_max=20,
            replications=2_000,
            master_seed=5,
            x0=4,
        )
        a = json.dumps(run_coupling(config).to_jsonable(), sort_keys=True)
        b = json.dumps(run_coupling(config).to_jsonable(), sort_keys=True)
        assert a == b
