"""Continuous kernels: densities, verification routines, sampler correctness."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import scalar_reference as sref
from mcbounds.bounds import CERTIFICATES, Interval, UnivariateDrift, point_process_overlap
from mcbounds import presets
from mcbounds.errors import ContainmentError, InputError, MathError, QuadratureError
from mcbounds.kernels import (
    containment_escape_mass,
    expected_value_after_step,
    halfline_mixture_kernel,
    metropolis_point_process,
    metropolis_rwm_laplace,
    two_step_density,
    verify_minorization_numeric,
    verify_univariate_drift,
)
from mcbounds.kernels import laws, verify
from mcbounds.kernels.verify import batch_quad

LAPLACE_EPS = 1.0 / (8.0 * math.e**2)


def batch_se(indicator: np.ndarray, n_batches: int = 100) -> float:
    """Standard error of a correlated binary/real series via batch means."""
    usable = (indicator.size // n_batches) * n_batches
    batches = indicator[:usable].reshape(n_batches, -1).mean(axis=1)
    return float(batches.std(ddof=1) / math.sqrt(n_batches))


@pytest.fixture(scope="module")
def halfline():
    return halfline_mixture_kernel()


@pytest.fixture(scope="module")
def rwm():
    return metropolis_rwm_laplace()


@pytest.fixture(scope="module")
def point_process():
    return metropolis_point_process(0.1, 0.1)


class TestHalflineDensity:
    def test_value_at_zero(self, halfline):
        for x in (0.0, 1.0, 4.5):
            want = 1.0 + 1.0 / (math.sqrt(2 * math.pi) * (x + 1.0))
            assert halfline.transition_density(x, 0.0) == pytest.approx(want, rel=1e-14)

    def test_normalizes(self, halfline):
        for x in (0.0, 1.0, 7.3):
            total, _ = quad(
                lambda y: halfline.transition_density(x, y), 0, np.inf, limit=200
            )
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_dominates_exponential_component(self, halfline):
        ys = np.linspace(0.0, 50.0, 1001)
        for x in (0.0, 0.5, 3.0, 20.0):
            assert np.all(halfline.transition_density(x, ys) >= np.exp(-2.0 * ys))

    def test_negative_state_rejected(self, halfline):
        with pytest.raises(InputError):
            halfline.trajectory(-0.5, 10, seed=1)


class TestRwmDensity:
    def test_acceptance_zero_to_one(self, rwm):
        kernel, _ = rwm
        # uniform proposal density 1/4 times the acceptance e^-1
        assert kernel.transition_density(0.0, 1.0) == pytest.approx(0.25 * math.exp(-1.0))

    def test_density_plus_atom_normalizes(self, rwm):
        kernel, _ = rwm
        for x in (-3.0, 0.0, 5.0):
            mass, _ = quad(
                lambda y: kernel.transition_density(x, y),
                x - 2.0,
                x + 2.0,
                points=[p for p in (0.0, x, -x) if x - 2 < p < x + 2],
                limit=200,
            )
            assert mass + kernel.atom_mass(x) == pytest.approx(1.0, abs=1e-8)

    def test_two_step_closed_form_matches_quadrature(self, rwm):
        kernel, _ = rwm
        rng = np.random.default_rng(11)
        for _ in range(40):
            x = rng.uniform(-4, 4)
            y = x + rng.uniform(-4, 4)
            via_quad, _ = two_step_density(kernel, x, y)
            assert laws.rwm_two_step_density(x, y) == pytest.approx(
                via_quad, abs=1e-10
            )

    def test_detailed_balance(self, rwm):
        kernel, target = rwm
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.uniform(-4, 4)
            y = x + rng.uniform(-2, 2)
            lhs = math.exp(target.log_unnormalized(x)) * kernel.transition_density(x, y)
            rhs = math.exp(target.log_unnormalized(y)) * kernel.transition_density(y, x)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_detailed_balance_point_process(self, point_process):
        kernel, target = point_process
        rng = np.random.default_rng(6)
        for _ in range(25):
            x = rng.random(6)
            y = rng.random(6)
            lhs = math.exp(target.log_unnormalized(x)) * kernel.transition_density(x, y)
            rhs = math.exp(target.log_unnormalized(y)) * kernel.transition_density(y, x)
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestMinorizationVerification:
    def test_halfline_half_overlap_on_probe_grid(self, halfline):
        report = verify_minorization_numeric(
            halfline,
            lag=1,
            epsilon=0.5,
            nu_density=laws.hl_nu_density,
            probe_x=np.arange(0.0, 50.0 + 1e-9, 0.05),
            probe_y=np.arange(0.0, 50.0 + 1e-9, 0.05),
        )
        assert report.passed
        assert report.min_margin >= 0.0

    def test_rwm_two_step_overlap(self, rwm):
        kernel, _ = rwm
        nu = lambda y: np.where(np.abs(y) <= 1.0, 0.5, 0.0)
        report = verify_minorization_numeric(
            kernel,
            lag=2,
            epsilon=LAPLACE_EPS,
            nu_density=nu,
            probe_x=np.arange(-2.0, 2.0 + 1e-9, 0.1),
            probe_y=np.arange(-1.0, 1.0 + 1e-9, 0.1),
        )
        assert report.passed
        assert report.min_margin > 0.01  # comfortably above the published constant

    def test_zero_epsilon_trivially_passes(self, halfline):
        report = verify_minorization_numeric(
            halfline, 1, 0.0, laws.hl_nu_density, [0.0], [0.0]
        )
        assert report.passed

    def test_point_process_unsupported(self, point_process):
        kernel, _ = point_process
        with pytest.raises(InputError):
            verify_minorization_numeric(kernel, 1, 0.1, lambda y: 1.0, [0], [0])

    def test_report_holds_builtin_scalars(self, halfline):
        # numpy probes must not leak np.bool_/np.float64 into the report:
        # json.dumps rejects np.bool_, and a truthy np.bool_ passes `assert passed`
        probes = np.arange(0.0, 5.0 + 1e-9, 0.5)
        report = verify_minorization_numeric(
            halfline, 1, 0.5, laws.hl_nu_density, probes, probes
        )
        assert type(report.passed) is bool
        assert type(report.min_margin) is float
        json.dumps(dataclasses.asdict(report))

    @pytest.mark.parametrize("probe_x, probe_y", [([], [0.0]), ([0.0], []), ([], [])])
    def test_empty_probe_set_is_refused(self, halfline, probe_x, probe_y):
        # zero probe pairs used to pass vacuously, with a NaN argmin
        with pytest.raises(InputError, match="at least one probe"):
            verify_minorization_numeric(
                halfline, 1, 0.5, laws.hl_nu_density, probe_x, probe_y
            )


class TestBuiltInCertificates:
    """Each record in ``CERTIFICATES`` holds for its kernel, and an over-claim shows."""

    def verify(self, model, halfline, rwm, epsilon=None, small_set=None):
        cert = CERTIFICATES[model]
        if model == "halfline":
            kernel, nu, x_range, y_range = halfline, laws.hl_nu_density, (0.0, 20.0), (0.0, 20.0)
        else:
            kernel, nu = rwm[0], laws.rwm_nu_density
            x_range, y_range = (cert.small_set.lo, cert.small_set.hi), (-1.0, 1.0)
        probe_x, probe_y = (
            np.arange(lo, hi + 1e-9, 0.1) for lo, hi in (small_set or x_range, y_range)
        )
        eps = cert.epsilon if epsilon is None else epsilon
        return verify_minorization_numeric(kernel, cert.n0, eps, nu, probe_x, probe_y)

    @pytest.mark.parametrize("model", ["halfline", "rwm-laplace"])
    def test_record_holds_on_its_small_set(self, model, halfline, rwm):
        assert self.verify(model, halfline, rwm).passed

    @pytest.mark.parametrize(
        "model,eps", [("halfline", 1.0), ("halfline", 0.6), ("rwm-laplace", 0.1)]
    )
    def test_epsilon_above_the_record_fails(self, model, eps, halfline, rwm):
        assert not self.verify(model, halfline, rwm, epsilon=eps).passed

    @pytest.mark.parametrize("small_set", [(-10.0, 10.0), (-5.0, 5.0)])
    def test_metropolis_small_set_beyond_the_record_fails(self, small_set, halfline, rwm):
        # from |x| >= 5 two steps of radius 2 do not reach into (-1, 1)
        report = self.verify("rwm-laplace", halfline, rwm, small_set=small_set)
        assert not report.passed
        assert abs(report.argmin_x) >= 5.0


def laplace_drift():
    return UnivariateDrift(
        V=lambda x: np.exp(np.abs(x) / 2.0),
        small_set=Interval(-2.0, 2.0),
        lam=0.916,
        b=0.285,
    )


class TestDriftVerification:
    def test_laplace_drift_passes_on_standard_grid(self, rwm):
        kernel, _ = rwm
        report = verify_univariate_drift(
            kernel, laplace_drift(), np.arange(-10.0, 10.0 + 1e-9, 0.05)
        )
        assert report.passed
        assert report.max_violation <= 1e-6
        assert report.quadrature_error_estimate < 1e-8

    def test_spot_value_matches_closed_form(self, rwm):
        kernel, _ = rwm
        pv, _ = expected_value_after_step(kernel, lambda y: np.exp(np.abs(y) / 2.0), 6.0)
        closed = 0.25 * math.exp(3.0) * (
            2.0 * (1.0 - math.exp(-1.0))
            + 2.0 * (1.0 - math.exp(-1.0))
            + (1.0 + math.exp(-2.0))
        )
        assert pv == pytest.approx(closed, rel=1e-10)
        assert pv / math.exp(3.0) == pytest.approx(0.9159, abs=1e-3)

    def test_constant_drift_function_always_passes(self, rwm):
        kernel, _ = rwm
        drift = UnivariateDrift(
            V=lambda x: 1.0, small_set=Interval(-10.0, 10.0), lam=0.5, b=1.0
        )
        report = verify_univariate_drift(kernel, drift, np.arange(-10.0, 10.5, 0.5))
        assert report.passed

    def test_report_holds_builtin_scalars(self, rwm):
        kernel, _ = rwm
        drift = UnivariateDrift(
            V=lambda x: np.exp(np.abs(x) / 2.0),  # numpy arrays in, builtins out
            small_set=Interval(-2.0, 2.0),
            lam=0.916,
            b=0.285,
        )
        report = verify_univariate_drift(
            kernel, drift, np.arange(-4.0, 4.0 + 1e-9, 1.0)
        )
        assert type(report.passed) is bool
        assert type(report.max_violation) is float
        assert {type(v) for v in report.lhs + report.rhs} == {float}
        json.dumps(dataclasses.asdict(report))

    def test_understated_constants_fail(self, rwm):
        kernel, _ = rwm
        drift = UnivariateDrift(
            V=lambda x: np.exp(np.abs(x) / 2.0),
            small_set=Interval(-2.0, 2.0),
            lam=0.5,
            b=0.0,
        )
        report = verify_univariate_drift(kernel, drift, np.arange(-10.0, 10.5, 0.5))
        assert not report.passed
        assert report.max_violation > 0.1

    def test_empty_probe_grid_is_refused(self, rwm):
        kernel, _ = rwm
        with pytest.raises(InputError, match="at least one probe"):
            verify_univariate_drift(kernel, laplace_drift(), np.arange(5.0, 1.0, 0.5))


class TestContainment:
    def test_two_steps_from_small_set_stay_inside(self, rwm):
        kernel, _ = rwm
        escape = containment_escape_mass(
            kernel, Interval(-2.0, 2.0), Interval(-6.0, 6.0), n_steps=2
        )
        assert escape == 0.0

    def test_too_small_region_leaks(self, rwm):
        kernel, _ = rwm
        escape = containment_escape_mass(
            kernel, Interval(-2.0, 2.0), Interval(-3.0, 3.0), n_steps=2
        )
        assert escape > 1e-3

    @pytest.mark.parametrize(
        "small,region",
        [
            (Interval(-1.0, 1.5), Interval(-3.0, 3.0)),
            (Interval(-2.0, 2.0), Interval(-5.0, 5.5)),
        ],
    )
    def test_two_step_escape_matches_the_closed_form(self, rwm, small, region):
        # scipy integrates the closed-form two-step density piece by piece,
        # split at every kink: the jumps at x -+ 2, the kinks 0, -+|x| of
        # p(x, .), those shifted by -+2, and |y| = 1 of the atom term
        kernel, _ = rwm
        worst = 0.0
        for x in (small.lo, small.hi):
            lo, hi = max(region.lo, x - 4.0), min(region.hi, x + 4.0)
            kinks = {s * 2.0 + b for s in (-1, 0, 1) for b in (0.0, abs(x), -abs(x))}
            kinks |= {x - 2.0, x + 2.0, -1.0, 1.0}
            edges = [lo] + sorted(k for k in kinks if lo < k < hi) + [hi]
            inside = sum(
                quad(lambda y: float(laws.rwm_two_step_density(x, y)), a, b,
                     epsabs=1e-14, epsrel=1e-13)[0]
                for a, b in zip(edges[:-1], edges[1:])
            )
            if region.contains(x):
                inside += sref.rwm_atom(x) ** 2
            worst = max(worst, 1.0 - inside)
        got = containment_escape_mass(kernel, small, region, n_steps=2)
        assert got == pytest.approx(worst, rel=1e-12, abs=1e-12)

    def test_preset_integrates_where_the_step_radius_does_not_settle_it(
        self, rwm, monkeypatch
    ):
        # two steps from [-2, 2] reach -6, below this region: the preset loads
        # the kernels, integrates, and the t2 constants refuse the leak
        region = Interval(-5.0, 5.5)
        monkeypatch.setattr(presets, "LAPLACE_REGION", region)
        kernel, _ = rwm
        small_set = CERTIFICATES["rwm-laplace"].small_set
        escape = containment_escape_mass(kernel, small_set, region, 2)
        assert escape > 1e-3
        assert presets.laplace_escape_mass() == escape
        with pytest.raises(ContainmentError, match=f"mass {escape:.3e} escapes"):
            presets.laplace_drift_minorization_inputs()

    def test_quadrature_agrees_with_the_step_radius_argument(self, monkeypatch):
        expected = presets.laplace_drift_minorization_inputs()
        for module in (presets, verify):
            monkeypatch.setattr(module, "contained_by_step_radius", lambda *args: False)
        assert 0.0 <= presets.laplace_escape_mass() <= 1e-12
        assert presets.laplace_drift_minorization_inputs() == expected

    def test_unbounded_kernel_rejected(self, halfline):
        with pytest.raises(InputError):
            containment_escape_mass(halfline, Interval(0, 2), Interval(0, 50), 1)


def scipy_integral(f, lo, hi, pts=()):
    """``scipy.integrate.quad`` as the verifiers used to call it: inner kinks
    as points, 200 subintervals, absolute tolerance 1e-8."""
    inner = sorted({p for p in pts if lo < p < hi}) if math.isfinite(hi) else []
    value, _ = quad(f, lo, hi, points=inner or None, limit=200, epsabs=1e-8)
    return value


def scipy_two_step(x, y):
    lo, hi = max(x, y) - 2.0, min(x, y) + 2.0
    conv = 0.0
    if lo < hi:
        conv = scipy_integral(
            lambda w: sref.rwm_density(x, w) * sref.rwm_density(w, y), lo, hi,
            (0.0, abs(x), -abs(x), abs(y), -abs(y)),
        )
    p = sref.rwm_density(x, y)
    return conv + sref.rwm_atom(x) * p + p * sref.rwm_atom(y)


def cauchy(centre, scale):
    """Cauchy densities, one per point, as a ``batch_quad`` integrand."""

    def f(i, w):
        c, s = np.asarray(centre)[i], np.asarray(scale)[i]
        return s / (math.pi * ((w - c) ** 2 + s * s))

    return f


class TestBatchQuad:
    """The batched qk21 integrator, cross-checked with scipy.integrate.quad to 1e-12."""

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
    def test_rwm_two_step_convolution(self, rwm, x, d):
        kernel, _ = rwm
        y = x + d
        got, err = two_step_density(kernel, x, y)
        assert got == pytest.approx(scipy_two_step(x, y), rel=1e-12, abs=1e-12)
        assert err <= 1e-8

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-10.0, 10.0))
    def test_drift_integrand(self, rwm, x):
        kernel, _ = rwm
        got, _ = expected_value_after_step(kernel, lambda y: np.exp(np.abs(y) / 2.0), x)
        want = scipy_integral(
            lambda w: sref.rwm_density(x, w) * math.exp(abs(w) / 2.0), x - 2.0, x + 2.0,
            (0.0, abs(x), -abs(x)),
        ) + sref.rwm_atom(x) * math.exp(abs(x) / 2.0)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 20.0))
    def test_halfline_infinite_window(self, halfline, x):
        got, err = expected_value_after_step(halfline, lambda y: 1.0 + y, x)
        assert err <= 1.49e-8 * got
        # E[1 + Y] = (1/2 + 1/4) + (1/2 + (x + 1) / sqrt(2 pi)), in closed form.
        # On the mapped half-line neither integrator is good to 1e-12: both
        # stop at a relative estimate of 1.49e-8 and land up to ~1e-10 off
        # (scipy's qagi at x = 15.2, for one), so each must stay within its
        # own estimate instead.
        closed = 1.25 + (x + 1.0) / math.sqrt(2.0 * math.pi)
        assert abs(got - closed) <= min(err, 1e-10 * closed)
        want, scipy_err = quad(lambda y: sref.hl_density(x, y) * (1.0 + y), 0.0, math.inf,
                               limit=200, epsabs=1e-8)
        assert abs(got - want) <= err + scipy_err

    @pytest.mark.parametrize("x", [8.05078125, 13.921875, 17.2421875, 18.095])
    def test_halfline_wide_normal_part_is_resolved(self, halfline, x):
        # on the uncut map (0, 1] these missed the closed form by up to 2.7e-5
        # (at x = 18.095) while estimating at most 6e-8
        got, err = expected_value_after_step(halfline, lambda y: 1.0 + y, x)
        closed = 1.25 + (x + 1.0) / math.sqrt(2.0 * math.pi)
        assert abs(got - closed) <= min(err, 1e-10 * closed)

    @pytest.mark.parametrize("region", [Interval(-6.0, 6.0), Interval(-3.0, 3.0)])
    @pytest.mark.parametrize("n_steps", [1, 2])
    def test_containment_escape_mass(self, rwm, region, n_steps):
        kernel, _ = rwm
        worst = 0.0
        for x in (-2.0, 2.0):
            reach = 2.0 * n_steps
            lo, hi = max(region.lo, x - reach), min(region.hi, x + reach)
            if n_steps == 1:
                inside = scipy_integral(lambda y: sref.rwm_density(x, y), lo, hi,
                                        (0.0, abs(x), -abs(x)))
            else:
                inside = scipy_integral(lambda y: scipy_two_step(x, y), lo, hi,
                                        (0.0, abs(x), -abs(x)))
            if region.contains(x):
                inside += sref.rwm_atom(x) ** n_steps
            worst = max(worst, 1.0 - inside)
        got = containment_escape_mass(kernel, Interval(-2.0, 2.0), region, n_steps)
        assert got == pytest.approx(worst, rel=1e-12, abs=1e-12)

    def test_peaked_integrand_is_bisected_until_it_converges(self):
        # Cauchy density with scale 1e-3 at 0.3: its tails reach every node
        f = cauchy([0.3], [1e-3])
        passes = []

        def counted(i, w):
            passes.append(w.shape[1])
            return f(i, w)

        value, err = batch_quad(counted, np.array([-1.0]), np.array([1.0]))
        assert len(passes) > 5  # bisection rounds after the first pass
        want = (math.atan(0.7 / 1e-3) + math.atan(1.3 / 1e-3)) / math.pi
        assert value[0] == pytest.approx(want, rel=1e-12)
        assert err[0] <= 1.49e-8 * value[0]

    def test_divergent_integrand_raises_at_the_cap(self):
        passes = []

        def inverse(i, w):
            passes.append(w.shape[1])
            return 1.0 / np.abs(w - 1.0 / 3.0)

        with pytest.raises(QuadratureError, match="reported error"):
            batch_quad(inverse, np.array([-1.0]), np.array([1.0]))
        # each bisection turns one piece into two: the point ends at 200 pieces
        assert passes[0] + sum(passes[1:]) // 2 == 200
        with pytest.raises(QuadratureError):
            batch_quad(lambda i, w: np.full(w.shape, np.nan), np.zeros(1), np.ones(1))

    def test_value_does_not_depend_on_the_batch(self):
        centre = np.array([0.3, 0.0, -0.7, 2.0, 0.1])
        scale = np.array([1e-3, 1.0, 0.05, 0.5, 1e-2])
        lo = np.array([-1.0, -math.inf, -1.0, 0.0, -math.inf])
        hi = np.array([1.0, math.inf, 1.0, math.inf, 0.5])
        breaks = np.array([[0.0], [np.nan], [-0.5], [1.0], [0.0]])
        value, err = batch_quad(cauchy(centre, scale), lo, hi, breaks)
        with np.errstate(divide="ignore"):
            want = (np.arctan((hi - centre) / scale) - np.arctan((lo - centre) / scale)) / math.pi
        assert value == pytest.approx(want, rel=1e-10)
        for order in ([0], [3], [4, 1], [2, 0, 3], [4, 3, 2, 1, 0]):
            sub = np.array(order)
            v, e = batch_quad(cauchy(centre[sub], scale[sub]), lo[sub], hi[sub], breaks[sub])
            assert v.tobytes() == value[sub].tobytes()
            assert e.tobytes() == err[sub].tobytes()


class TestPointProcessOverlap:
    def test_published_value(self):
        assert point_process_overlap(0.1, 0.1) == pytest.approx(0.117, abs=1e-3)

    def test_small_constant_limit(self):
        assert point_process_overlap(1e-12, 1e-12) == pytest.approx(0.48, abs=1e-9)

    def test_log_space_cross_check(self):
        direct = point_process_overlap(1.0, 1.0)
        via_log = math.exp(math.log(0.48) - 4.25 - 9.88)
        assert direct == pytest.approx(via_log, rel=1e-12)
        assert direct == pytest.approx(0.48 * math.exp(-14.13), rel=1e-12)

    def test_overlap_monte_carlo_lower_bound(self, point_process):
        # sampled continuous-part overlap between two fixed starts must not
        # sit below the published constant
        _, target = point_process
        config_a = np.array([0.1, 0.1, 0.1, 0.9, 0.9, 0.5])
        config_b = np.array([0.9, 0.9, 0.2, 0.1, 0.6, 0.6])
        log_a = target.log_unnormalized(config_a)
        log_b = target.log_unnormalized(config_b)
        rng = np.random.default_rng(42)
        ys = rng.random((100_000, 6))
        log_t = target.log_unnormalized(ys)
        overlap = np.minimum(
            np.minimum(1.0, np.exp(log_t - log_a)),
            np.minimum(1.0, np.exp(log_t - log_b)),
        )
        estimate = overlap.mean()
        se = overlap.std(ddof=1) / math.sqrt(overlap.size)
        assert estimate >= point_process_overlap(0.1, 0.1) - 3 * se


class TestSamplerCorrectness:
    def test_trajectories_deterministic_in_seed(self, halfline, rwm):
        kernel, _ = rwm
        assert np.array_equal(
            halfline.trajectory(0.0, 500, seed=7), halfline.trajectory(0.0, 500, seed=7)
        )
        assert np.array_equal(
            kernel.trajectory(0.0, 500, seed=7), kernel.trajectory(0.0, 500, seed=7)
        )

    def test_rwm_trajectory_steps_like_rwm_step(self, rwm):
        kernel, _ = rwm
        path = kernel.trajectory(0.3, 2000, seed=4)
        rng = np.random.default_rng(4)
        x = np.array([0.3])
        want = [0.3]
        for _ in range(2000):
            x = laws.rwm_step(rng, x)
            want.append(float(x[0]))
        assert path.tobytes() == np.array(want).tobytes()

    def test_halfline_trajectory_follows_hl_step(self, halfline):
        # the trajectory's scalar recurrence against a lockstep ensemble
        # advanced by laws.hl_step; 40 steps leave a bias below 2^-40, as
        # every step regenerates with probability 1/2
        path = halfline.trajectory(0.0, 200_000, seed=41)[1000:]
        rng = np.random.default_rng(42)
        ensemble = np.zeros(100_000)
        for _ in range(40):
            ensemble = laws.hl_step(rng, ensemble)
        for q in (0.1, 0.25, 0.6, 1.3, 2.5, 7.0):
            chain_ind = (path <= q).astype(float)
            ensemble_ind = (ensemble <= q).astype(float)
            se = math.hypot(
                batch_se(chain_ind),
                float(ensemble_ind.std(ddof=1)) / math.sqrt(ensemble_ind.size),
            )
            assert chain_ind.mean() == pytest.approx(ensemble_ind.mean(), abs=4 * se)

    def test_rwm_one_step_histogram_matches_density(self, rwm):
        kernel, _ = rwm
        x = 0.7
        samples = kernel.one_step_samples(x, 1_000_000, seed=123)
        stayed = samples == x
        assert stayed.mean() == pytest.approx(
            kernel.atom_mass(x), abs=4 * math.sqrt(0.25 / samples.size)
        )
        moved = samples[~stayed]
        edges = np.linspace(x - 2.0, x + 2.0, 41)
        counts, _ = np.histogram(moved, bins=edges)
        for k in range(len(edges) - 1):
            prob, _ = quad(
                lambda y: kernel.transition_density(x, y),
                edges[k],
                edges[k + 1],
                points=[p for p in (0.0, x, -x) if edges[k] < p < edges[k + 1]],
            )
            se = math.sqrt(prob * (1 - prob) / samples.size)
            assert counts[k] / samples.size == pytest.approx(prob, abs=4 * se + 1e-9)

    def test_halfline_one_step_histogram_matches_density(self, halfline):
        x = 1.0
        samples = halfline.one_step_samples(x, 1_000_000, seed=321)
        edges = np.linspace(0.0, 8.0, 33)
        counts, _ = np.histogram(samples, bins=edges)
        for k in range(len(edges) - 1):
            prob, _ = quad(
                lambda y: halfline.transition_density(x, y), edges[k], edges[k + 1]
            )
            se = math.sqrt(prob * (1 - prob) / samples.size)
            assert counts[k] / samples.size == pytest.approx(prob, abs=4 * se + 1e-9)

    def test_rwm_preserves_laplace_target(self, rwm):
        kernel, _ = rwm
        path = kernel.trajectory(0.0, 200_000, seed=99)[1000:]
        laplace_cdf = lambda q: 0.5 * math.exp(q) if q < 0 else 1.0 - 0.5 * math.exp(-q)
        for q in (-2.0, -0.5, 0.0, 1.0, 3.0):
            indicator = (path <= q).astype(float)
            se = batch_se(indicator)
            assert indicator.mean() == pytest.approx(laplace_cdf(q), abs=3 * se)

    def test_point_process_matches_direct_sampling_oracle(self, point_process):
        kernel, _ = point_process
        path, _ = kernel.trajectory(
            np.array([0.2, 0.2, 0.8, 0.3, 0.5, 0.9]), 120_000, seed=17
        )
        path = path[2000:]
        oracle, _ = kernel.direct_samples(120_000, seed=18)
        for coord, q in ((0, 0.3), (1, 0.5), (3, 0.7), (4, 0.2), (5, 0.8)):
            chain_ind = (path[:, coord] <= q).astype(float)
            oracle_ind = (oracle[:, coord] <= q).astype(float)
            se = math.hypot(
                batch_se(chain_ind),
                float(oracle_ind.std(ddof=1)) / math.sqrt(oracle_ind.size),
            )
            assert chain_ind.mean() == pytest.approx(oracle_ind.mean(), abs=3 * se)

    def test_point_process_acceptance_rate_reproducible(self, point_process):
        kernel, _ = point_process
        x0 = np.array([0.2, 0.2, 0.8, 0.3, 0.5, 0.9])
        _, accepts_a = kernel.trajectory(x0, 100_000, seed=31)
        _, accepts_b = kernel.trajectory(x0, 100_000, seed=77)
        rate_a = accepts_a / 100_000
        rate_b = accepts_b / 100_000
        se = math.sqrt(rate_a * (1 - rate_a) / 100_000)
        assert rate_a == pytest.approx(rate_b, abs=3 * math.hypot(se, se))

    def test_point_process_direct_samples_finish_at_low_acceptance(self):
        kernel, target = metropolis_point_process(0.5, 0.5)
        samples, proposals = kernel.direct_samples(120_000, seed=3)
        assert samples.shape == (120_000, 6)
        assert np.all((samples >= 0.0) & (samples < 1.0))
        assert np.all(np.isfinite(target.log_unnormalized(samples)))
        # about 1.4 % of uniform proposals are accepted at c = d = 0.5
        assert 0.012 < samples.shape[0] / proposals < 0.016

    def test_point_process_direct_samples_give_up_at_the_round_cap(self):
        kernel, _ = metropolis_point_process(3.0, 3.0)
        with pytest.raises(MathError, match="1000 of 1000 direct samples still pending"):
            kernel.direct_samples(1000, seed=3)

    def test_point_process_log_target_matches_the_scalar_one(self, point_process):
        _, target = point_process
        states = np.random.default_rng(8).random((4, 50, 6))
        states[1, 7, 2:4] = states[1, 7, 0:2]  # particles 1 and 2 coincide
        got = target.log_unnormalized(states)
        assert got.shape == (4, 50)
        want = [[sref.pp_log_target(s, 0.1, 0.1) for s in block] for block in states]
        assert got == pytest.approx(np.array(want), rel=1e-13)
        assert got[1, 7] == -math.inf

    def test_coincident_particles_invalid_start_and_always_rejected(
        self, point_process
    ):
        kernel, target = point_process
        coincident = np.array([0.5, 0.5, 0.5, 0.5, 0.1, 0.9])
        assert target.log_unnormalized(coincident) == -math.inf
        with pytest.raises(InputError):
            kernel.trajectory(coincident, 10, seed=1)
        valid = np.array([0.2, 0.2, 0.8, 0.3, 0.5, 0.9])
        assert kernel.transition_density(valid, coincident) == 0.0
        # moves out of a zero-density state are always accepted
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernel.transition_density(coincident, valid) == 1.0
            assert kernel.transition_density(coincident, coincident) == 1.0

    def test_acceptance_certain_when_target_increases(self, point_process):
        kernel, target = point_process
        better = np.array([0.1, 0.1, 0.9, 0.1, 0.1, 0.9])
        worse = np.array([0.5, 0.45, 0.55, 0.5, 0.5, 0.55])
        assert target.log_unnormalized(better) > target.log_unnormalized(worse)
        assert kernel.transition_density(worse, better) == 1.0
