"""Acceptance suite: one test per headline criterion, one line printed each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import json
import math
from fractions import Fraction as F

import numpy as np
import pytest

from mcbounds.bounds import (
    CERTIFICATES,
    b_constant,
    bivariate_from_univariate,
    stationary_moment_bound,
    steps_to_threshold,
    sup_rh_via_containment,
    minorization_bound,
    drift_minorization_bound,
    drift_minorization_log_terms,
    point_process_overlap,
)
from mcbounds.coupling import CouplingConfig, run_coupling
from mcbounds.finite_chain import (
    ProbVector,
    build_grid_walk,
    eigen_bound,
    evolve,
    exact_tv_curve,
    minorization_pseudo,
    minorization_uniform,
    stationary,
)
from mcbounds.kernels import laws
from mcbounds.kernels.chains import halfline_mixture_kernel, metropolis_rwm_laplace
from mcbounds.kernels.verify import (
    containment_escape_mass,
    expected_value_after_step,
    verify_minorization_numeric,
    verify_univariate_drift,
)
from mcbounds import presets

GOLDEN_PI = (
    F(1, 11), F(4, 33), F(1, 11),
    F(4, 33), F(5, 33), F(4, 33),
    F(1, 11), F(4, 33), F(1, 11),
)


def report(line: str) -> None:
    print(f"[PASS] {line}")


@pytest.fixture(scope="module")
def grid():
    return build_grid_walk(3, 3)


@pytest.fixture(scope="module")
def grid_pi(grid):
    return stationary(grid)


def test_criterion_01_stationary_distribution_exact(grid_pi):
    assert grid_pi.entries == GOLDEN_PI
    report("criterion 1: grid stationary distribution exact (1/11, 4/33, ..., 5/33, ...)")


def test_criterion_02_eigen_bound_dominates_oracle(grid, grid_pi):
    eb = eigen_bound(grid, ProbVector.delta(9, 4), target=4)
    assert eb.coefficient <= 0.85
    assert abs(eb.rate - 0.4667) <= 0.001
    mu = ProbVector.delta(9, 4)
    for n in range(201):
        gap = abs(float(mu[4] - grid_pi[4]))
        assert gap <= 0.85 * 0.4667**n
        assert gap <= eb.value(n) + 1e-9
        mu = evolve(mu, grid, 1)
    assert steps_to_threshold(eb.value, 0.01) == 6
    report(
        f"criterion 2: eigen bound coefficient {eb.coefficient:.4f} <= 0.85, "
        f"rate {eb.rate:.4f}, oracle dominated for n <= 200, crossing at 6"
    )


def test_criterion_03_uniform_overlap_9_80_crossing_78(grid):
    cert = minorization_uniform(grid, 2)
    assert cert.epsilon == F(9, 80)
    crossing = steps_to_threshold(
        lambda n: float(minorization_bound(cert.epsilon, 2, n)), 0.01
    )
    assert crossing == 78
    report("criterion 3: two-step uniform overlap 9/80 exact, 0.01-crossing at n=78")


def test_criterion_04_pseudo_overlap_one_third_crossing_24(grid):
    cert = minorization_pseudo(grid, 2)
    assert cert.epsilon == F(1, 3)
    assert set(cert.argmin_pairs) == {(0, 8), (2, 6)}  # 1-based: (1,9) and (3,7)
    crossing = steps_to_threshold(
        lambda n: float(minorization_bound(cert.epsilon, 2, n)), 0.01
    )
    assert crossing == 24
    report(
        "criterion 4: pairwise overlap 1/3 exact at opposite corners, "
        "0.01-crossing at n=24"
    )


def test_criterion_05_exact_tv_dominated_by_both_bounds(grid):
    curve = exact_tv_curve(ProbVector.delta(9, 4), grid, 200)
    violations = 0
    for n, tv in zip(curve.ns, curve.values):
        if float(tv) > float(minorization_bound(F(9, 80), 2, n)) + 1e-12:
            violations += 1
        if float(tv) > float(minorization_bound(F(1, 3), 2, n)) + 1e-12:
            violations += 1
    assert violations == 0
    report(
        "criterion 5: exact distance curve below both geometric bounds for "
        "all n <= 200, zero violations at 1e-12 slack"
    )


def test_criterion_06_halfline_overlap_and_crossing():
    kernel = halfline_mixture_kernel()
    verif = verify_minorization_numeric(
        kernel,
        lag=1,
        epsilon=0.5,
        nu_density=laws.hl_nu_density,
        probe_x=np.arange(0.0, 50.0 + 1e-9, 0.05),
        probe_y=np.arange(0.0, 50.0 + 1e-9, 0.05),
    )
    assert verif.passed
    crossing = steps_to_threshold(lambda n: float(minorization_bound(F(1, 2), 1, n)), 0.01)
    # six steps leave 2^-6 = 0.015625, still above 0.01; the exact crossing is 7
    assert 0.5**6 > 0.01
    assert crossing == 7
    report(
        "criterion 6: half-line overlap 1/2 verified on [0,50]; bound 2^-n "
        "crosses 0.01 at n=7 (n=6 leaves 0.0156, a recorded discrepancy with "
        "the informal six-step figure)"
    )


def test_criterion_07_particle_chain_overlap_and_crossing():
    eps = point_process_overlap(0.1, 0.1)
    assert abs(eps - 0.117) <= 0.001
    crossing = steps_to_threshold(lambda n: minorization_bound(0.117, 1, n), 0.01)
    assert crossing == 38
    report(
        f"criterion 7: particle-chain overlap eps(0.1, 0.1) = {eps:.4f} "
        "within 0.001 of 0.117; 0.01-crossing at n=38"
    )


def test_criterion_08_laplace_two_term_pipeline():
    drift = presets.laplace_drift()
    pair = bivariate_from_univariate(drift, d=presets.LAPLACE_D)
    alpha_inv = 1.0 / pair.alpha
    assert abs(alpha_inv - 0.9927) <= 5e-4

    precondition = drift.b / (1.0 - drift.lam) - 1.0
    assert abs(precondition - 2.39) <= 0.01

    kernel = metropolis_rwm_laplace()
    escape = containment_escape_mass(
        kernel, CERTIFICATES["rwm-laplace"].small_set, presets.LAPLACE_REGION, 2
    )
    assert escape == 0.0
    sup_rh = sup_rh_via_containment(drift.V, presets.LAPLACE_REGION, probe_step=0.05)
    assert sup_rh == pytest.approx(math.e**3, rel=1e-12)

    big_b = b_constant(2, pair.alpha, CERTIFICATES["rwm-laplace"].epsilon, sup_rh)
    assert abs(big_b - 20.04) <= 0.05

    fallback = stationary_moment_bound(drift.lam, drift.b)
    assert abs(fallback - 3.393) <= 0.001

    inputs, _ = presets.laplace_drift_minorization_inputs(expected_h="analytic")
    assert inputs.expected_h == 2.0
    value = drift_minorization_bound(inputs, 120_000, 274)
    log_t1, log_t2 = drift_minorization_log_terms(inputs, 120_000, 274)
    assert value < 0.01
    assert log_t2 < -60.0  # the drift term only survives in log space
    assert value == pytest.approx(math.exp(log_t1) + math.exp(log_t2), rel=1e-12)
    report(
        f"criterion 8: pair-drift rate {alpha_inv:.4f}, precondition "
        f"{precondition:.2f} < e, sup V = e^3, B = {big_b:.2f}, expected h "
        f"analytic 2 (fallback moment bound {fallback:.3f}), two-term bound "
        f"at (120000, 274) = {value:.5f} < 0.01 in log space"
    )


def test_criterion_09_drift_verification():
    kernel = metropolis_rwm_laplace()
    verif = verify_univariate_drift(
        kernel,
        presets.laplace_drift(),
        np.arange(-10.0, 10.0 + 1e-9, 0.05),
        tolerance=1e-6,
    )
    assert verif.passed
    assert verif.max_violation <= 1e-6
    pv, _ = expected_value_after_step(kernel, presets.laplace_drift_V, 6.0)
    ratio = pv / presets.laplace_drift_V(6.0)
    assert abs(ratio - 0.9159) <= 0.001
    report(
        f"criterion 9: drift inequality holds on [-10,10] step 0.05 "
        f"(max violation {verif.max_violation:.2e} <= 1e-6); spot ratio at "
        f"x=6 is {ratio:.5f}"
    )


@pytest.fixture(scope="module")
def big_grid_run(grid):
    config = CouplingConfig(
        model="finite",
        n_max=60,
        replications=100_000,
        master_seed=1,
        matrix=grid,
        cert=minorization_pseudo(grid, 2),
        initial_law=ProbVector.delta(9, 4),
    )
    return config, run_coupling(config)


def test_criterion_10_coupling_simulation(grid, big_grid_run):
    config, res = big_grid_run

    for n, p, se in zip(res.lattice, res.p_neq, res.p_neq_se):
        assert p <= float(F(2, 3)) ** (n // 2) + 3 * se

    # coupling inequality on the simulation output; the frequency-based
    # distance estimate needs its multinomial noise floor on top of the
    # jackknife errors
    for k in range(len(res.lattice)):
        t = res.tv[k]
        allowance = t.noise_floor + 3 * math.hypot(t.se, res.p_neq_se[k])
        assert t.value <= res.p_neq[k] + allowance

    mu0 = ProbVector.delta(9, 4)
    for k, n in enumerate(res.lattice):
        want = evolve(mu0, grid, n).to_floats()
        got = np.array(res.marginal_counts[k]) / config.replications
        se = np.sqrt(want * (1.0 - want) / config.replications)
        assert np.all(np.abs(got - want) <= 4.0 * se + 1e-12)

    report(
        "criterion 10: 1e5-replication coupling run dominated by (2/3)^(n/2) "
        "+ 3se on every lattice point, empirical distance respects the "
        "coupling inequality, pooled marginals within 4se of the exact law"
    )


def test_criterion_11_determinism(grid):
    config = CouplingConfig(
        model="finite",
        n_max=40,
        replications=5_000,
        master_seed=777,
        matrix=grid,
        cert=minorization_uniform(grid, 2),
        initial_law=ProbVector.delta(9, 4),
    )
    first = json.dumps(run_coupling(config).to_jsonable(), sort_keys=True)
    second = json.dumps(run_coupling(config).to_jsonable(), sort_keys=True)
    assert first.encode() == second.encode()
    report("criterion 11: identical seed and config reproduce byte-identical JSON")
