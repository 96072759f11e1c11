"""Coupling simulator: bound dominance, marginal correctness, determinism."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_reference as ref
from mcbounds.coupling import (
    CouplingConfig,
    empirical_tv,
    replication_seeds,
    run_small_set_coupling,
    run_uniform_coupling,
)
from mcbounds.coupling.runner import _finite_arrays
from mcbounds.errors import CertificateError, InputError
from mcbounds.finite_chain import (
    MinorizationCert,
    ProbVector,
    StochasticMatrix,
    build_grid_walk,
    evolve,
    exact_tv_curve,
    minorization_pseudo,
    minorization_uniform,
)


@pytest.fixture(scope="module")
def grid():
    return build_grid_walk(3, 3)


@pytest.fixture(scope="module")
def grid_pseudo_run(grid):
    config = CouplingConfig(
        model="finite",
        n_max=60,
        replications=20_000,
        master_seed=42,
        matrix=grid,
        cert=minorization_pseudo(grid, 2),
        initial_law=ProbVector.delta(9, 4),
    )
    return config, run_uniform_coupling(config)


class TestSeeds:
    def test_deterministic_and_unique(self):
        a = replication_seeds(2024, 50_000)
        b = replication_seeds(2024, 50_000)
        assert np.array_equal(a, b)
        assert np.unique(a).size == a.size

    def test_different_masters_differ(self):
        assert not np.array_equal(replication_seeds(1, 100), replication_seeds(2, 100))


class TestEmpiricalTv:
    def test_zero_against_itself(self):
        counts = np.array([10, 30, 60])
        est = empirical_tv(counts, counts / counts.sum())
        assert est.value == 0.0

    def test_matches_manual_half_l1(self):
        est = empirical_tv([25, 75], [0.5, 0.5])
        assert est.value == pytest.approx(0.25)
        assert est.se > 0

    def test_noise_floor_scale(self):
        # floor for a fair coin with n samples is sqrt(2/(pi n)) / 2 * 2 halves
        est = empirical_tv([500, 500], [0.5, 0.5])
        want = 0.5 * math.sqrt(2 / math.pi) * 2 * math.sqrt(0.25 / 1000)
        assert est.noise_floor == pytest.approx(want, rel=1e-12)


class TestGridCoupling:
    def test_non_coupling_dominated_by_geometric_bound(self, grid_pseudo_run):
        config, res = grid_pseudo_run
        for n, p, se in zip(res.lattice, res.p_neq, res.p_neq_se):
            assert p <= float(F(2, 3)) ** (n // 2) + 3 * se

    def test_uniform_cert_dominated_too(self, grid):
        config = CouplingConfig(
            model="finite",
            n_max=40,
            replications=20_000,
            master_seed=7,
            matrix=grid,
            cert=minorization_uniform(grid, 2),
            initial_law=ProbVector.delta(9, 4),
        )
        res = run_uniform_coupling(config)
        for n, p, se in zip(res.lattice, res.p_neq, res.p_neq_se):
            assert p <= float(F(71, 80)) ** (n // 2) + 3 * se

    def test_marginals_match_exact_evolution(self, grid, grid_pseudo_run):
        config, res = grid_pseudo_run
        mu0 = ProbVector.delta(9, 4)
        for k, n in enumerate(res.lattice):
            want = evolve(mu0, grid, n).to_floats()
            got = np.array(res.marginal_counts[k]) / config.replications
            se = np.sqrt(want * (1 - want) / config.replications)
            assert np.all(np.abs(got - want) <= 4 * se + 1e-12)

    def test_stationary_marginal_stays_stationary(self, grid, grid_pseudo_run):
        from mcbounds.finite_chain import stationary

        config, res = grid_pseudo_run
        pi = stationary(grid).to_floats()
        for k in range(len(res.lattice)):
            got = np.array(res.marginal_counts_prime[k]) / config.replications
            se = np.sqrt(pi * (1 - pi) / config.replications)
            assert np.all(np.abs(got - pi) <= 4 * se)

    def test_once_coupled_forever(self, grid_pseudo_run):
        _, res = grid_pseudo_run
        eq = res.xs == res.xps
        assert np.all(~eq[:, :-1] | eq[:, 1:])

    def test_non_coupling_frequency_non_increasing(self, grid_pseudo_run):
        _, res = grid_pseudo_run
        assert all(b <= a for a, b in zip(res.p_neq, res.p_neq[1:]))

    def test_empirical_tv_respects_coupling_inequality(self, grid_pseudo_run):
        _, res = grid_pseudo_run
        for k in range(len(res.lattice)):
            t = res.tv[k]
            allowance = t.noise_floor + 3 * math.hypot(t.se, res.p_neq_se[k])
            assert t.value <= res.p_neq[k] + allowance

    def test_empirical_tv_tracks_exact_curve_at_signal_scale(self, grid, grid_pseudo_run):
        config, res = grid_pseudo_run
        curve = exact_tv_curve(ProbVector.delta(9, 4), grid, 8)
        for k, n in enumerate(res.lattice[:4]):
            exact = float(curve.value_at(n))
            t = res.tv[k]
            assert t.value == pytest.approx(exact, abs=3 * t.se + t.noise_floor)

    def test_immediate_coupling_with_full_overlap(self):
        # identical rows: the chain forgets its state in one step, overlap 1
        iid = StochasticMatrix.from_rows([[F(1, 3), F(2, 3)], [F(1, 3), F(2, 3)]])
        cert = minorization_uniform(iid, 1)
        assert cert.epsilon == 1
        config = CouplingConfig(
            model="finite",
            n_max=5,
            replications=2_000,
            master_seed=3,
            matrix=iid,
            cert=cert,
            initial_law=ProbVector.delta(2, 0),
        )
        res = run_uniform_coupling(config)
        assert all(p == 0.0 for p in res.p_neq[1:])

    def test_invalid_certificate_rejected(self, grid):
        good = minorization_uniform(grid, 2)
        inflated = MinorizationCert(
            variant="uniform",
            small_set=good.small_set,
            n0=2,
            epsilon=F(1, 2),  # true overlap is 9/80; residuals go negative
            nu=good.nu,
        )
        config = CouplingConfig(
            model="finite",
            n_max=4,
            replications=10,
            master_seed=1,
            matrix=grid,
            cert=inflated,
            initial_law=ProbVector.delta(9, 4),
        )
        with pytest.raises(CertificateError):
            run_uniform_coupling(config)

    def test_overlap_claimed_just_above_the_pairwise_overlap_rejected(self, grid):
        good = minorization_pseudo(grid, 2)
        inflated = MinorizationCert(
            variant="pseudo",
            small_set=good.small_set,
            n0=2,
            epsilon=good.epsilon + F(1, 10**15),  # residuals dip below 0 by ~1e-15
            argmin_pairs=good.argmin_pairs,
        )
        config = CouplingConfig(
            model="finite",
            n_max=4,
            replications=10,
            master_seed=1,
            matrix=grid,
            cert=inflated,
            initial_law=ProbVector.delta(9, 4),
        )
        with pytest.raises(CertificateError, match="is negative for pair"):
            run_uniform_coupling(config)


def assert_tables_match_reference(matrix, cert):
    config = CouplingConfig(
        model="finite", n_max=1, replications=1, master_seed=0, matrix=matrix, cert=cert
    )
    tables = _finite_arrays(config)
    expected = ref.finite_arrays(matrix, cert)
    assert len(tables) == len(expected)
    for got, want in zip(tables, expected):
        assert np.array_equal(got, want)
        assert np.asarray(got).dtype == np.asarray(want).dtype


class TestFiniteTables:
    """Engine tables from integer numerators equal the Fraction-built ones."""

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
        assert_tables_match_reference(grid, finder(grid, n0))

    @pytest.mark.parametrize("finder", [minorization_uniform, minorization_pseudo])
    def test_over_claimed_overlap_raises_like_the_reference(self, grid, finder):
        good = finder(grid, 2)
        bad = MinorizationCert(
            variant=good.variant,
            small_set=good.small_set,
            n0=2,
            epsilon=good.epsilon + F(1, 7),
            nu=good.nu,
            argmin_pairs=good.argmin_pairs,
        )
        config = CouplingConfig(
            model="finite", n_max=1, replications=1, master_seed=0, matrix=grid, cert=bad
        )
        with pytest.raises(CertificateError) as fast:
            _finite_arrays(config)
        with pytest.raises(CertificateError) as slow:
            ref.finite_arrays(grid, bad)
        assert str(fast.value) == str(slow.value)

    def test_full_overlap_tables(self):
        iid = StochasticMatrix.from_rows([[F(1, 3), F(2, 3)], [F(1, 3), F(2, 3)]])
        for finder in (minorization_uniform, minorization_pseudo):
            assert_tables_match_reference(iid, finder(iid, 1))

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
    )
    def test_random_chain_tables(self, weights, n0):
        matrix = StochasticMatrix.from_rows([[F(w, sum(row)) for w in row] for row in weights])
        for finder in (minorization_uniform, minorization_pseudo):
            cert = finder(matrix, n0)
            if cert is not None:
                assert_tables_match_reference(matrix, cert)


class TestHalflineCoupling:
    def test_geometric_coin_tail(self):
        config = CouplingConfig(
            model="halfline",
            n_max=12,
            replications=20_000,
            master_seed=77,
            burn_in=200,
        )
        res = run_uniform_coupling(config)
        for n, p in zip(res.lattice, res.p_neq):
            want = 0.5**n
            se = math.sqrt(want * (1 - want) / config.replications)
            assert abs(p - want) <= 3 * se + 1e-12

    def test_negative_start_rejected(self):
        with pytest.raises(InputError):
            CouplingConfig(
                model="halfline", n_max=5, replications=10, master_seed=1, x0=-1.0
            )


@pytest.fixture(scope="module")
def rwm_run():
    config = CouplingConfig(
        model="rwm-laplace",
        n_max=20_000,
        replications=500,
        master_seed=11,
        burn_in=2_000,
        record_every=50,
    )
    return config, run_small_set_coupling(config)


class TestRwmSmallSetCoupling:
    def test_every_replication_couples_within_cap(self, rwm_run):
        _, res = rwm_run
        assert res.uncoupled == 0
        assert res.coupling_time_mean is not None

    def test_opportunity_rate_matches_overlap_constant(self, rwm_run):
        # coupling needs on average about 1/eps coin flips
        _, res = rwm_run
        eps = 1.0 / (8.0 * math.e**2)
        assert res.opportunities_mean == pytest.approx(1.0 / eps, rel=0.15)

    def test_drift_function_mean_stays_bounded(self, rwm_run):
        # iterated one-step drift gives E[V(X_n)] <= V(x0) + b/(1-lam)
        config, res = rwm_run
        v0 = math.exp(abs(config.x0) / 2.0)
        cap = v0 + 0.285 / (1.0 - 0.916)
        vals = np.exp(np.abs(res.xs) / 2.0)
        for k in range(vals.shape[1]):
            mean = vals[:, k].mean()
            se = vals[:, k].std(ddof=1) / math.sqrt(vals.shape[0])
            assert mean <= cap + 3 * se

    def test_once_coupled_forever_on_recorded_lattice(self, rwm_run):
        _, res = rwm_run
        eq = res.xs == res.xps
        assert np.all(~eq[:, :-1] | eq[:, 1:])

    def test_thousand_replications_all_couple_within_step_cap(self):
        config = CouplingConfig(
            model="rwm-laplace",
            n_max=1_000_000,
            replications=1_000,
            master_seed=2_024,
            burn_in=2_000,
            record_every=500_000,
            stop_when_coupled=True,
        )
        res = run_small_set_coupling(config)
        assert res.uncoupled <= 10  # at least 99% must couple; typically all do
        assert res.coupling_time_mean < 2_000

    def test_whole_space_small_set_reduces_to_uniform_coupling(self, grid):
        cert = minorization_pseudo(grid, 2)  # small set is the whole space
        kwargs = dict(
            model="finite",
            n_max=30,
            replications=3_000,
            master_seed=21,
            matrix=grid,
            cert=cert,
            initial_law=ProbVector.delta(9, 4),
        )
        uniform = run_uniform_coupling(CouplingConfig(**kwargs))
        small = run_small_set_coupling(CouplingConfig(**kwargs))
        assert np.array_equal(uniform.xs, small.xs)
        assert np.array_equal(uniform.xps, small.xps)

    def test_rwm_rejects_whole_space_coupling(self):
        config = CouplingConfig(
            model="rwm-laplace", n_max=10, replications=10, master_seed=1
        )
        with pytest.raises(InputError):
            run_uniform_coupling(config)


class TestDeterminism:
    def test_rerun_is_byte_identical(self, grid):
        config = CouplingConfig(
            model="finite",
            n_max=20,
            replications=2_000,
            master_seed=5,
            matrix=grid,
            cert=minorization_pseudo(grid, 2),
            initial_law=ProbVector.delta(9, 4),
        )
        a = json.dumps(run_uniform_coupling(config).to_jsonable(), sort_keys=True)
        b = json.dumps(run_uniform_coupling(config).to_jsonable(), sort_keys=True)
        assert a == b

    def test_worker_count_does_not_change_output(self, grid):
        base = dict(
            model="finite",
            n_max=20,
            replications=2_000,
            master_seed=5,
            matrix=grid,
            cert=minorization_uniform(grid, 2),
            initial_law=ProbVector.delta(9, 4),
        )
        one = run_uniform_coupling(CouplingConfig(**base, workers=1))
        many = run_uniform_coupling(CouplingConfig(**base, workers=0))
        assert np.array_equal(one.xs, many.xs)
        assert np.array_equal(one.xps, many.xps)

    def test_pure_python_backend_matches_numba(self, grid):
        """The same simulation with MCB_NO_NUMBA=1 yields identical JSON."""
        script = (
            "import json\n"
            "from fractions import Fraction as F\n"
            "from mcbounds.finite_chain import build_grid_walk, minorization_pseudo, ProbVector\n"
            "from mcbounds.coupling import CouplingConfig, run_uniform_coupling, run_small_set_coupling\n"
            "grid = build_grid_walk(3, 3)\n"
            "out = {}\n"
            "cfg = CouplingConfig(model='finite', n_max=16, replications=300, master_seed=9,\n"
            "                     matrix=grid, cert=minorization_pseudo(grid, 2),\n"
            "                     initial_law=ProbVector.delta(9, 4))\n"
            "out['finite'] = run_uniform_coupling(cfg).to_jsonable()\n"
            "cfg = CouplingConfig(model='halfline', n_max=8, replications=200, master_seed=5, burn_in=40)\n"
            "out['halfline'] = run_uniform_coupling(cfg).to_jsonable()\n"
            "cfg = CouplingConfig(model='rwm-laplace', n_max=300, replications=80, master_seed=3, burn_in=200)\n"
            "out['rwm'] = run_small_set_coupling(cfg).to_jsonable()\n"
            "print(json.dumps(out, sort_keys=True))\n"
        )

        def run(disable: str) -> str:
            env = dict(os.environ, MCB_NO_NUMBA=disable)
            return subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            ).stdout

        assert run("1") == run("0")
