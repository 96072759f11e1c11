"""Coupling simulator: bound dominance, marginal correctness, determinism."""

import dataclasses
import json
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_reference as ref
from mcbounds.coupling import CouplingConfig, empirical_tv, run_coupling
from mcbounds.coupling import engines
from mcbounds.coupling.runner import _cdf_rows, _finite_arrays, _quantile
from mcbounds.errors import CertificateError, InputError, MathError
import scalar_reference as sref
from mcbounds.kernels import laws
from mcbounds.finite_chain import (
    MinorizationCert,
    ProbVector,
    StochasticMatrix,
    build_grid_walk,
    evolve,
    exact_tv_curve,
    minorization_pseudo,
    minorization_uniform,
    stationary,
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
    return config, run_coupling(config)


def small_runs(master_seed, replications):
    """One short run of each engine: finite 3x3 pseudo, half-line, Metropolis."""
    grid = build_grid_walk(3, 3)
    common = dict(master_seed=master_seed, replications=replications)
    return (
        run_coupling(CouplingConfig(
            model="finite", n_max=8, matrix=grid, cert=minorization_pseudo(grid, 2),
            initial_law=ProbVector.delta(9, 4), **common,
        )),
        run_coupling(CouplingConfig(model="halfline", n_max=4, burn_in=10, **common)),
        run_coupling(CouplingConfig(model="rwm-laplace", n_max=20, burn_in=10, **common)),
    )


class TestSeeds:
    """Randomness contract: one Generator per block of engines.BLOCK replications."""

    def test_same_seed_gives_same_bytes(self):
        for a, b in zip(small_runs(2024, 300), small_runs(2024, 300)):
            assert a.xs.tobytes() == b.xs.tobytes()
            assert a.xps.tobytes() == b.xps.tobytes()
            assert json.dumps(a.to_jsonable()) == json.dumps(b.to_jsonable())

    def test_different_masters_differ(self):
        for a, b in zip(small_runs(1, 100), small_runs(2, 100)):
            assert not np.array_equal(a.xps, b.xps)

    def test_first_block_repeats_in_a_longer_run(self):
        block = engines.BLOCK
        for one, two in zip(small_runs(5, block), small_runs(5, 2 * block)):
            assert np.array_equal(two.xs[:block], one.xs)
            assert np.array_equal(two.xps[:block], one.xps)
            assert not np.array_equal(two.xps[block:], one.xps)


class TestInverseCdf:
    def test_equals_searchsorted_right_including_steps(self):
        rng = np.random.default_rng(0)
        probs = rng.random((50, 7))
        probs[probs < 0.3] = 0.0
        probs[:, 3] = 0.0
        probs[0] = [0, 0, 1, 0, 0, 0, 0]
        probs /= probs.sum(axis=1, keepdims=True)
        cdf = _cdf_rows(probs)
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
        cdf = _cdf_rows(probs)
        u = np.unique(np.concatenate([cdf.ravel(), [0.0, 0.25, np.nextafter(1.0, 0.0)]]))
        u = u[u < 1.0]
        for row in range(3):
            drawn = engines.inverse_cdf(cdf[row], u)
            assert np.all(probs[row, drawn] > 0)


def pair_chain_oracle(config):
    """Exact P(X_n != X'_n) and law of X_n on the lattice, from the engine tables.

    The coupling is a Markov chain on ordered pairs (x, x') with index
    x * size + x'; its float64 transition matrix is assembled from the same
    CDF tables the engine draws from, and evolved from mu0 (x) pi.
    """
    step, nu, resid, in_small = _finite_arrays(config)
    size = step.shape[0]
    pair_mode = config.cert.variant == "pseudo"

    def probs(cdf):
        return np.diff(cdf, prepend=0.0, axis=-1)

    step, nu, resid = map(probs, (step, nu, resid))
    eps = float(config.cert.epsilon)
    T = np.zeros((size * size, size * size))
    diagonal = np.arange(size) * (size + 1)
    for x in range(size):
        for xp in range(size):
            i = x * size + xp
            if x == xp:
                T[i, diagonal] = step[x]
            elif in_small[x] and in_small[xp]:
                shared = nu[i] if pair_mode else nu[0]
                r_x = resid[i] if pair_mode else resid[x]
                r_xp = resid[xp * size + x] if pair_mode else resid[xp]
                T[i] = (1.0 - eps) * np.outer(r_x, r_xp).ravel()
                T[i, diagonal] += eps * shared
            else:
                T[i] = np.outer(step[x], step[xp]).ravel()
    mu0 = config.initial_law.to_floats()
    pi = stationary(config.matrix).to_floats()
    law = np.outer(mu0, pi).ravel()
    p_neq, marginals = [], []
    for _ in range(config.n_max // config.cert.n0 + 1):
        p_neq.append(1.0 - law[diagonal].sum())
        marginals.append(law.reshape(size, size).sum(axis=1))
        law = law @ T
    return np.array(p_neq), np.array(marginals)


def proper_subset_cert(grid):
    """The pairwise certificate with its small set cut to the centre cross."""
    cert = minorization_pseudo(grid, 2)
    return MinorizationCert(
        variant="pseudo", small_set=(1, 3, 4, 5, 7), n0=2, epsilon=cert.epsilon,
        argmin_pairs=cert.argmin_pairs,
    )


class TestPairChainOracle:
    """Simulated p_neq and X_n law against the exact pair-chain law, within 4 se."""

    @pytest.mark.parametrize(
        "make_cert",
        [
            lambda grid: minorization_uniform(grid, 2),
            lambda grid: minorization_pseudo(grid, 2),
            proper_subset_cert,
        ],
        ids=["uniform", "pseudo", "proper-subset"],
    )
    def test_simulation_matches_the_exact_pair_chain(self, grid, make_cert):
        cert = make_cert(grid)
        config = CouplingConfig(
            model="finite", n_max=20, replications=20_000, master_seed=99,
            matrix=grid, cert=cert, initial_law=ProbVector.delta(9, 0),
        )
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
        config = CouplingConfig(
            model="finite", n_max=10, replications=1, master_seed=0, matrix=grid,
            cert=minorization_pseudo(grid, 2), initial_law=ProbVector.delta(9, 0),
        )
        whole, _ = pair_chain_oracle(config)
        subset, _ = pair_chain_oracle(
            dataclasses.replace(config, cert=proper_subset_cert(grid))
        )
        assert np.all(subset[1:] > whole[1:])


def finite_model(make_cert):
    return lambda grid: dict(model="finite", matrix=grid, cert=make_cert(grid),
                             initial_law=ProbVector.delta(9, 0))


@pytest.mark.parametrize(
    "model,mode",
    [
        (finite_model(lambda grid: minorization_uniform(grid, 2)), "uniform"),
        (finite_model(lambda grid: minorization_pseudo(grid, 2)), "uniform"),
        (finite_model(proper_subset_cert), "small-set"),
        (lambda grid: dict(model="halfline", burn_in=5), "uniform"),
        (lambda grid: dict(model="rwm-laplace", burn_in=5), "small-set"),
    ],
    ids=["uniform", "pseudo", "proper-subset", "halfline", "rwm-laplace"],
)
def test_mode_follows_from_the_model_and_certificate(grid, model, mode):
    config = CouplingConfig(n_max=4, replications=20, master_seed=1, **model(grid))
    assert config.mode() == mode
    assert run_coupling(config).mode == mode


class TestRecordEvery:
    """Every engine keeps every record_every-th lattice point of the same paths."""

    @pytest.mark.parametrize("every", [2, 3])
    def test_recorded_columns_are_the_full_run_thinned(self, every):
        full = small_runs(8, 200)
        grid = build_grid_walk(3, 3)
        common = dict(master_seed=8, replications=200, record_every=every)
        thinned = (
            run_coupling(CouplingConfig(
                model="finite", n_max=8, matrix=grid, cert=minorization_pseudo(grid, 2),
                initial_law=ProbVector.delta(9, 4), **common,
            )),
            run_coupling(CouplingConfig(model="halfline", n_max=4, burn_in=10, **common)),
            run_coupling(CouplingConfig(model="rwm-laplace", n_max=20, burn_in=10, **common)),
        )
        for a, b in zip(full, thinned):
            assert b.lattice == a.lattice[::every]
            assert np.array_equal(b.xs, a.xs[:, ::every])
            assert np.array_equal(b.xps, a.xps[:, ::every])
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
        from mcbounds.coupling.runner import MAX_HALFLINE_START

        run = dict(model="halfline", n_max=4, replications=10, master_seed=1, burn_in=10)
        with pytest.raises(InputError, match="half-line start"):
            CouplingConfig(x0=math.nextafter(MAX_HALFLINE_START, math.inf), **run)
        with np.errstate(over="raise", invalid="raise"):
            result = run_coupling(CouplingConfig(x0=MAX_HALFLINE_START, **run))
        assert all(math.isfinite(p) for p in result.p_neq)

    @pytest.mark.parametrize("run", [
        dict(replications=10_000_000, n_max=60),
        dict(replications=1, n_max=2 * engines.MAX_RECORDED_STATES),
        dict(replications=10**12, n_max=10**6, record_every=10**6),
    ])
    def test_recorded_states_capped(self, grid, run):
        cert = minorization_uniform(grid, 2)
        with pytest.raises(InputError, match="recorded pair states"):
            CouplingConfig(model="finite", matrix=grid, cert=cert, master_seed=1, **run)
        run = {**run, "model": "rwm-laplace", "n_max": 2 * run["n_max"]}
        with pytest.raises(InputError, match="recorded pair states"):
            CouplingConfig(master_seed=1, **run)

    def test_redraws_stop_after_the_round_cap(self):
        rng = np.random.default_rng(0)
        with pytest.raises(MathError, match=f"{engines.MAX_REDRAW_ROUNDS} rounds"):
            engines.residual_draw(
                rng, np.zeros(5), lambda rng, x: x + rng.random(x.size),
                lambda x, z: np.zeros_like(z),
            )

    def test_halfline_epsilon_one_no_longer_samples_silently(self):
        # with eps = 1 the acceptance 1 - nu/p is negative near 0
        keep = engines._hl_keep(1.0)
        assert keep(np.zeros(1), np.zeros(1))[0] < 0
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
        x = np.linspace(0.0, 5.0, 50)
        z = np.linspace(0.0, 8.0, 50)
        got = engines._hl_keep(0.4)(x, z)
        want = [1.0 - 0.4 * sref.hl_nu_density(b) / sref.hl_density(a, b)
                for a, b in zip(x, z)]
        assert got == pytest.approx(want, rel=1e-12)

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
            np.random.default_rng(5), np.full(100_000, x), laws.hl_step, engines._hl_keep(0.5)
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
            np.random.default_rng(7), np.full(100_000, x), laws.rwm_two_steps,
            engines._rwm_keep(eps),
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
        got = [_quantile(ordered, q) for q in qs]
        assert all(type(v) is float for v in got)
        assert np.array(got).tobytes() == np.quantile(values, qs).tobytes()


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
        res = run_coupling(config)
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
        iid = StochasticMatrix([[F(1, 3), F(2, 3)], [F(1, 3), F(2, 3)]])
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
        res = run_coupling(config)
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
            run_coupling(config)

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
            run_coupling(config)


def assert_tables_match_reference(matrix, cert):
    config = CouplingConfig(
        model="finite", n_max=1, replications=1, master_seed=0, matrix=matrix, cert=cert
    )
    tables = _finite_arrays(config)
    expected = ref.finite_arrays(matrix, cert)
    # one overlap row, one residual row per state; or both per ordered pair
    size = matrix.size
    pair = cert.variant == "pseudo"
    assert tables[1].shape == (size * size if pair else 1, size)
    assert tables[2].shape == (size * size if pair else size, size)
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
        iid = StochasticMatrix([[F(1, 3), F(2, 3)], [F(1, 3), F(2, 3)]])
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
        matrix = StochasticMatrix([[F(w, sum(row)) for w in row] for row in weights])
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
        )
        res = run_coupling(config)
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
        record_every=50,
    )
    return config, run_coupling(config)


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
        a = json.dumps(run_coupling(config).to_jsonable(), sort_keys=True)
        b = json.dumps(run_coupling(config).to_jsonable(), sort_keys=True)
        assert a == b
