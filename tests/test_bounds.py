"""Analytic bound calculators: golden crossings and structural properties."""

import math
import random
from fractions import Fraction as F

import pytest

from mcbounds import presets
from mcbounds.bounds import (
    MAX_CURVE_POINTS,
    MAX_STEPS,
    Interval,
    DriftMinorizationInputs,
    UnivariateDrift,
    b_constant,
    bivariate_from_univariate,
    optimize_drift_minorization,
    stationary_moment_bound,
    steps_to_threshold,
    sup_rh_via_containment,
    minorization_bound,
    minorization_crossing,
    minorization_curve,
    drift_minorization_bound,
    point_process_overlap,
)
from mcbounds.errors import (
    ContainmentError,
    DriftConversionError,
    InputError,
    ThresholdNotReachedError,
)
from mcbounds.finite_chain import build_grid_walk, exact_tv_curve, ProbVector


class TestMinorizationBound:
    def test_half_overlap_gives_powers_of_two(self):
        for n in range(10):
            assert minorization_bound(F(1, 2), 1, n) == F(1, 2) ** n

    def test_grid_uniform_crossing_at_78(self):
        bound = lambda n: float(minorization_bound(F(9, 80), 2, n))
        assert steps_to_threshold(bound, 0.01) == 78

    def test_grid_pseudo_crossing_at_24(self):
        bound = lambda n: float(minorization_bound(F(1, 3), 2, n))
        assert steps_to_threshold(bound, 0.01) == 24

    def test_lag_floor(self):
        assert minorization_bound(F(1, 3), 2, 5) == (F(2, 3)) ** 2

    def test_epsilon_range_checked(self):
        with pytest.raises(InputError):
            minorization_bound(0.0, 1, 3)
        with pytest.raises(InputError):
            minorization_bound(1.5, 1, 3)

    def test_curve_monotone_and_blockwise_constant(self):
        vals = minorization_curve(F(9, 80), 2, 80).values
        assert all(vals[n + 1] <= vals[n] for n in range(80))
        assert all(vals[2 * k] == vals[2 * k + 1] for k in range(40))
        # the curve first falls below 0.01 at the crossing the search finds
        crossing = minorization_crossing(F(9, 80), 2, 0.01)
        assert crossing == 78
        assert vals[crossing - 1] >= 0.01 > vals[crossing]

    @pytest.mark.parametrize("eps, n0", [
        (F(9, 80), 2), (F(1, 1000), 1), (F(1, 3), 4), (F(1), 3), (0.117, 1),
        (point_process_overlap(0.1, 0.1), 2),
    ])
    def test_curve_values_are_the_rounded_exact_bound(self, eps, n0):
        values = minorization_curve(eps, n0, 400).values
        assert values == tuple(float(minorization_bound(eps, n0, n)) for n in range(401))

    def test_curve_point_cap(self):
        assert len(minorization_curve(F(1, 2), 1, MAX_CURVE_POINTS - 1).values) == MAX_CURVE_POINTS
        with pytest.raises(InputError, match="cap"):
            minorization_curve(F(1, 2), 1, MAX_CURVE_POINTS)


def exact_search_crossing(eps, n0, delta):
    """The crossing by the doubling search over exact powers (the reference)."""
    return steps_to_threshold(lambda n: float(minorization_bound(eps, n0, n)), delta)


class TestMinorizationCrossing:
    def test_matches_the_exact_search(self):
        cases = [
            (F(1, 2), 1, 0.01), (F(9, 80), 2, 0.01), (F(1, 3), 2, 0.01), (0.117, 1, 0.01),
            (point_process_overlap(0.1, 0.1), 1, 0.01), (F(1), 3, 0.01), (1.0, 2, 0.3),
            (F(1, 1000), 1, 0.01), (F(999, 1000), 1, 1e-300), (0.9999999, 2, 0.01),
            # the bound equals delta at k = 6 (2^-6): the crossing is the next step
            (F(1, 2), 1, 2.0**-6), (0.5, 3, 2.0**-6),
        ]
        rng = random.Random(11)
        for _ in range(150):
            q = rng.randint(2, 10**6)
            eps = F(rng.randint(max(1, q // 300), q), q)
            cases.append((eps, rng.randint(1, 4), rng.choice([0.9, 0.5, 0.01, 1e-4])))
            cases.append((float(eps), rng.randint(1, 4), rng.choice([0.5, 1e-3, 1e-12])))
        for eps, n0, delta in cases:
            assert minorization_crossing(eps, n0, delta) == exact_search_crossing(
                eps, n0, delta
            ), (eps, n0, delta)

    def test_published_crossings(self):
        assert minorization_crossing(F(9, 80), 2, 0.01) == 78
        assert minorization_crossing(F(1, 3), 2, 0.01) == 24
        assert minorization_crossing(F(1, 2), 1, 0.01) == 7
        assert minorization_crossing(0.117, 1, 0.01) == 38

    @pytest.mark.parametrize("eps", [F(1, 10**12), F(1, 100000), F(1, 10**400)])
    def test_tiny_rational_epsilon_is_refused_before_any_exact_power(self, eps):
        with pytest.raises(InputError, match="epsilon too small"):
            minorization_crossing(eps, 1, 0.01)

    def test_tiny_float_epsilon_never_crosses_within_the_cap(self):
        with pytest.raises(ThresholdNotReachedError):
            minorization_crossing(point_process_overlap(10.0, 10.0), 1, 0.01)

    def test_inputs_checked(self):
        with pytest.raises(InputError):
            minorization_crossing(F(1, 2), 1, 1.0)
        with pytest.raises(InputError):
            minorization_crossing(F(0), 1, 0.01)
        with pytest.raises(InputError):
            minorization_crossing(F(1, 2), 0, 0.01)


class TestStepsToThreshold:
    def test_power_of_two_needs_seven_steps(self):
        # 2^-6 = 0.015625 is not below 0.01; the first n below is 7
        assert steps_to_threshold(lambda n: 0.5**n, 0.01) == 7

    def test_eigen_curve_crossing_at_6(self):
        assert steps_to_threshold(lambda n: 0.85 * 0.4667**n, 0.01) == 6

    def test_immediate_when_already_below(self):
        assert steps_to_threshold(lambda n: 0.001, 0.01) == 0

    def test_cap_raises(self):
        probed = []

        def flat(n):
            probed.append(n)
            return 1.0

        with pytest.raises(ThresholdNotReachedError, match=f"within {MAX_STEPS} steps"):
            steps_to_threshold(flat, 0.01)
        assert MAX_STEPS == 10**9
        assert max(probed) <= 2 * MAX_STEPS


class TestDriftConversion:
    def uni(self):
        return UnivariateDrift(
            V=lambda x: math.exp(abs(x) / 2.0),
            small_set=Interval(-2.0, 2.0),
            lam=0.916,
            b=0.285,
        )

    def test_pair_drift_rate(self):
        bi = bivariate_from_univariate(self.uni(), d=math.e)
        assert 1.0 / bi.alpha == pytest.approx(0.916 + 0.285 / (math.e + 1), abs=1e-12)
        assert 1.0 / bi.alpha == pytest.approx(0.9927, abs=5e-4)

    def test_precondition_boundary_value(self):
        floor = 0.285 / (1 - 0.916) - 1
        assert floor == pytest.approx(2.39, abs=0.01)
        assert floor < math.e

    def test_small_set_too_small(self):
        bad = UnivariateDrift(
            V=lambda x: math.exp(abs(x) / 2.0),
            small_set=Interval(-2.0, 2.0),
            lam=0.9,
            b=10.0,
        )
        with pytest.raises(DriftConversionError):
            bivariate_from_univariate(bad, d=1.0)

    def test_pair_function_averages(self):
        bi = bivariate_from_univariate(self.uni(), d=math.e)
        assert bi.h(0.0, 2.0) == pytest.approx(0.5 * (1 + math.e), abs=1e-12)


class TestMomentAndBConstant:
    def test_stationary_moment_golden(self):
        assert stationary_moment_bound(0.916, 0.285) == pytest.approx(3.393, abs=1e-3)

    def test_zero_b_signals_upstream_inconsistency(self):
        assert stationary_moment_bound(0.5, 0.0) == 0.0

    def test_analytic_expected_h_below_fallback(self):
        fallback = 0.5 + 0.5 * stationary_moment_bound(0.916, 0.285)
        assert 2.0 <= fallback

    def test_b_constant_golden(self):
        alpha = 1.0 / 0.9927
        eps = 1.0 / (8.0 * math.e**2)
        assert b_constant(2, alpha, eps, 20.1) == pytest.approx(20.04, abs=0.05)

    def test_b_constant_clamps_at_one(self):
        assert b_constant(2, 1.01, 0.5, 0.1) == 1.0

    def test_sup_rh_on_interval(self):
        V = lambda x: math.exp(abs(x) / 2)
        sup = sup_rh_via_containment(V, Interval(-6.0, 6.0), probe_step=0.05)
        assert sup == pytest.approx(math.e**3, rel=1e-12)
        assert sup < 20.1
        # the one-pass sup is the float the pairwise maximum of h gives
        pts = Interval(-6.0, 6.0).grid(0.05)
        assert len(pts) == 241
        assert sup == max(0.5 * (V(x) + V(y)) for x in pts for y in pts)
        assert sup == 20.085536923187668

    @pytest.mark.parametrize("lo,hi,step,points", [
        (0.0, 1.0, 0.6, [0.0, 0.6, 1.0]),  # 2 * 0.6 lies above 1
        (0.0, 1.0, 0.4, [0.0, 0.4, 0.8, 1.0]),
        (0.0, 0.3, 0.1, [0.0, 0.1, 0.2, 0.3]),  # 3 * 0.1 rounds above 0.3
        (2.0, 2.0, 0.5, [2.0]),
    ])
    def test_grid_stays_inside_the_interval(self, lo, hi, step, points):
        assert Interval(lo, hi).grid(step) == points

    @pytest.mark.parametrize("step", [0.0, -0.05, math.inf, math.nan])
    def test_grid_refuses_a_bad_step(self, step):
        with pytest.raises(InputError, match="grid step must be a positive finite number"):
            Interval(0.0, 1.0).grid(step)
        with pytest.raises(InputError, match="grid step"):
            sup_rh_via_containment(lambda x: 1.0, Interval(-6, 6), probe_step=step)

    def test_sup_rh_constant_function(self):
        assert sup_rh_via_containment(lambda x: 1.0, Interval(-6, 6)) == 1.0

    def test_containment_failure_raises(self, monkeypatch):
        # two steps of at most 2 from [-2, 2] end in [-6, 6]: a region short
        # of that on either side is refused, one that meets it is accepted
        assert presets.laplace_drift_minorization_inputs()[0].big_b > 1
        for region in (Interval(-6.0, 5.9), Interval(-5.9, 6.0)):
            monkeypatch.setattr(presets, "LAPLACE_REGION", region)
            with pytest.raises(ContainmentError, match="can leave the containment region"):
                presets.laplace_drift_minorization_inputs()


def laplace_inputs():
    eps = 1.0 / (8.0 * math.e**2)
    alpha = 1.0 / (0.916 + 0.285 / (math.e + 1))
    big_b = b_constant(2, alpha, eps, math.e**3)
    return DriftMinorizationInputs(epsilon=eps, n0=2, alpha=alpha, big_b=big_b, expected_h=2.0)


class TestDriftMinorizationBound:
    def test_paper_schedule_point_below_threshold(self):
        assert drift_minorization_bound(laplace_inputs(), 120_000, 274) < 0.01

    def test_log_space_avoids_underflow(self):
        # alpha^-n alone underflows; the combined log-space term must not be 0
        val = drift_minorization_bound(laplace_inputs(), 120_000, 274)
        assert 0.008 < val < 0.01

    def test_j_equals_n_lower_bound(self):
        inputs = laplace_inputs()
        for n in (5, 50):
            assert drift_minorization_bound(inputs, n, n) >= (1 - inputs.epsilon) ** n

    def test_j_out_of_range(self):
        with pytest.raises(InputError):
            drift_minorization_bound(laplace_inputs(), 10, 11)

    def test_b_equal_one_optimum_is_j_equals_n(self):
        inputs = DriftMinorizationInputs(epsilon=0.2, n0=1, alpha=1.5, big_b=1.0, expected_h=2.0)
        report = optimize_drift_minorization(inputs, delta=0.01)
        n_star = report.crossing
        expected = (1 - 0.2) ** n_star + 1.5 ** (-n_star) * 2.0
        assert report.value_at(n_star) == pytest.approx(expected, rel=1e-12)
        assert report.js[report.ns.index(n_star)] == n_star

    def test_optimizer_beats_hand_picked_point(self):
        report = optimize_drift_minorization(laplace_inputs(), delta=0.01)
        assert report.crossing is not None
        assert report.crossing <= 120_000
        assert report.value_at(report.crossing) < 0.01
        assert drift_minorization_bound(laplace_inputs(), 120_000, 274) < 0.01

    def test_optimizer_bound_at_most_any_scanned_pair(self):
        inputs = laplace_inputs()
        report = optimize_drift_minorization(inputs, delta=0.01)
        n_star = report.crossing
        best = report.value_at(n_star)
        for j in range(1, 400, 13):
            assert best <= drift_minorization_bound(inputs, n_star, j) + 1e-15

    def test_decreasing_in_n_at_fixed_j(self):
        inputs = laplace_inputs()
        vals = [drift_minorization_bound(inputs, n, 100) for n in range(100, 2000, 100)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))


class TestDegenerateCrossCheck:
    def test_whole_space_cert_recovers_geometric_rate(self):
        # with B = alpha^n0 (1-eps) >= 1 and E[h] = 1 (constant drift
        # function), choosing j = floor(n/n0) makes the second term at most
        # (1-eps)^(j-1), so the total tracks the geometric bound up to the
        # factor 1 + 1/(1-eps)
        eps, n0, alpha = 0.25, 2, 1.2
        big_b = b_constant(n0, alpha, eps, 1.0)
        assert big_b == alpha**n0 * (1 - eps)  # no clamp, identity applies
        inputs = DriftMinorizationInputs(
            epsilon=eps, n0=n0, alpha=alpha, big_b=big_b, expected_h=1.0
        )
        for n in range(4, 120, 8):
            j = n // n0
            geometric = float(minorization_bound(eps, n0, n))
            two_term = drift_minorization_bound(inputs, n, j)
            assert two_term >= geometric
            assert two_term <= geometric * (1.0 + 1.0 / (1.0 - eps))


class TestOracleDomination:
    def test_exact_curve_below_both_geometric_bounds(self):
        grid = build_grid_walk(3, 3)
        curve = exact_tv_curve(ProbVector.delta(9, 4), grid, 200)
        for n, tv in zip(curve.ns, curve.values):
            assert float(tv) <= float(minorization_bound(F(9, 80), 2, n)) + 1e-12
            assert float(tv) <= float(minorization_bound(F(1, 3), 2, n)) + 1e-12
