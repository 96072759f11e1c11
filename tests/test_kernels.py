"""Continuous kernels: densities, verification routines, sampler correctness."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import ks_2samp, kstest

import scalar_reference as sref
from mcbounds.bounds import CERTIFICATES, Interval, UnivariateDrift, point_process_overlap
from mcbounds import presets
from mcbounds.errors import ContainmentError, InputError, QuadratureError
from mcbounds.kernels import laws, verify
from mcbounds.kernels.chains import (
    halfline_mixture_kernel,
    metropolis_rwm_laplace,
)
from mcbounds.kernels.verify import (
    batch_quad,
    containment_escape_mass,
    expected_value_after_step,
    two_step_density,
    verify_minorization_numeric,
    verify_univariate_drift,
)

LAPLACE_EPS = 1.0 / (8.0 * math.e**2)


def laplace_cdf(q):
    """CDF of the Metropolis target exp(-|x|) / 2."""
    tail = 0.5 * np.exp(-np.abs(q))
    return np.where(q < 0.0, tail, 1.0 - tail)


@pytest.fixture(scope="module")
def halfline():
    return halfline_mixture_kernel()


@pytest.fixture(scope="module")
def rwm():
    return metropolis_rwm_laplace()


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


class TestRwmDensity:
    def test_acceptance_zero_to_one(self, rwm):
        kernel = rwm
        # uniform proposal density 1/4 times the acceptance e^-1
        assert kernel.transition_density(0.0, 1.0) == pytest.approx(0.25 * math.exp(-1.0))

    def test_density_plus_atom_normalizes(self, rwm):
        kernel = rwm
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
        kernel = rwm
        rng = np.random.default_rng(11)
        for _ in range(40):
            x = rng.uniform(-4, 4)
            y = x + rng.uniform(-4, 4)
            via_quad, _ = two_step_density(kernel, x, y)
            assert laws.rwm_two_step_density(x, y) == pytest.approx(
                via_quad, abs=1e-10
            )

    def test_detailed_balance(self, rwm):
        # with respect to the target exp(-|x|)
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.uniform(-4, 4)
            y = x + rng.uniform(-2, 2)
            lhs = math.exp(-abs(x)) * rwm.transition_density(x, y)
            rhs = math.exp(-abs(y)) * rwm.transition_density(y, x)
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
        kernel = rwm
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
            kernel, nu = rwm, laws.rwm_nu_density
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

    def test_halfline_record_is_the_one_the_exact_start_uses(self):
        # laws.hl_stationary splits the kernel as eps nu + (1 - eps) R with
        # this record's eps = 1/2, nu = Exponential(2) and lag 1 on the whole space
        cert = CERTIFICATES["halfline"]
        assert (cert.epsilon, cert.n0, cert.small_set) == (0.5, 1, None)
        assert cert.nu == "2*exp(-2y)"


def laplace_drift():
    return UnivariateDrift(
        V=lambda x: np.exp(np.abs(x) / 2.0),
        small_set=Interval(-2.0, 2.0),
        lam=0.916,
        b=0.285,
    )


class TestDriftVerification:
    def test_laplace_drift_passes_on_standard_grid(self, rwm):
        kernel = rwm
        report = verify_univariate_drift(
            kernel, laplace_drift(), np.arange(-10.0, 10.0 + 1e-9, 0.05)
        )
        assert report.passed
        assert report.max_violation <= 1e-6
        assert report.quadrature_error_estimate < 1e-8

    def test_spot_value_matches_closed_form(self, rwm):
        kernel = rwm
        pv, _ = expected_value_after_step(kernel, lambda y: np.exp(np.abs(y) / 2.0), 6.0)
        closed = 0.25 * math.exp(3.0) * (
            2.0 * (1.0 - math.exp(-1.0))
            + 2.0 * (1.0 - math.exp(-1.0))
            + (1.0 + math.exp(-2.0))
        )
        assert pv == pytest.approx(closed, rel=1e-10)
        assert pv / math.exp(3.0) == pytest.approx(0.9159, abs=1e-3)

    def test_constant_drift_function_always_passes(self, rwm):
        kernel = rwm
        drift = UnivariateDrift(
            V=lambda x: 1.0, small_set=Interval(-10.0, 10.0), lam=0.5, b=1.0
        )
        report = verify_univariate_drift(kernel, drift, np.arange(-10.0, 10.5, 0.5))
        assert report.passed

    def test_report_holds_builtin_scalars(self, rwm):
        kernel = rwm
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
        kernel = rwm
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
        kernel = rwm
        with pytest.raises(InputError, match="at least one probe"):
            verify_univariate_drift(kernel, laplace_drift(), np.arange(5.0, 1.0, 0.5))


class TestContainment:
    def test_two_steps_from_small_set_stay_inside(self, rwm):
        kernel = rwm
        escape = containment_escape_mass(
            kernel, Interval(-2.0, 2.0), Interval(-6.0, 6.0), n_steps=2
        )
        assert escape == 0.0

    def test_too_small_region_leaks(self, rwm):
        kernel = rwm
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
        kernel = rwm
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

    def test_preset_refuses_where_the_step_radius_does_not_settle_it(
        self, rwm, monkeypatch
    ):
        # two steps from [-2, 2] reach -6, below this region: quadrature finds
        # the leak, and the t2 constants refuse the region without integrating
        region = Interval(-5.0, 5.5)
        small_set = CERTIFICATES["rwm-laplace"].small_set
        assert containment_escape_mass(rwm, small_set, region, 2) > 1e-3
        monkeypatch.setattr(presets, "LAPLACE_REGION", region)
        monkeypatch.setattr(verify, "batch_quad", None)  # any integral fails
        with pytest.raises(
            ContainmentError,
            match=r"2 steps of at most 2.0 from \[-2.0, 2.0\] can leave the "
            r"containment region \[-5.0, 5.5\]",
        ):
            presets.laplace_drift_minorization_inputs()

    def test_quadrature_agrees_with_the_step_radius_argument(self, rwm, monkeypatch):
        # the preset's region holds every two-step path by the step radius;
        # integrating the escape mass there instead finds none either
        small_set = CERTIFICATES["rwm-laplace"].small_set
        monkeypatch.setattr(verify, "contained_by_step_radius", lambda *args: False)
        escape = containment_escape_mass(rwm, small_set, presets.LAPLACE_REGION, 2)
        assert 0.0 <= escape <= 1e-12

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
        kernel = rwm
        y = x + d
        got, err = two_step_density(kernel, x, y)
        assert got == pytest.approx(scipy_two_step(x, y), rel=1e-12, abs=1e-12)
        assert err <= 1e-8

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-10.0, 10.0))
    def test_drift_integrand(self, rwm, x):
        kernel = rwm
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

    @pytest.mark.parametrize("x", [1e6, 1e7, 1e8])
    def test_large_values_pass_the_relative_test(self, halfline, x):
        # the estimates (1.5e-3 at x = 1e6) are far above 1e-6 but within
        # 1.49e-8 |value|, the test the bisection itself stops on
        got, err = expected_value_after_step(halfline, lambda y: 1.0 + y, x)
        closed = 1.25 + (x + 1.0) / math.sqrt(2.0 * math.pi)
        assert err <= 1.49e-8 * got
        assert abs(got - closed) <= 1e-14 * closed

    @pytest.mark.parametrize("region", [Interval(-6.0, 6.0), Interval(-3.0, 3.0)])
    @pytest.mark.parametrize("n_steps", [1, 2])
    def test_containment_escape_mass(self, rwm, region, n_steps):
        kernel = rwm
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

        requested = r"requested max\(1\.0e-08, 1\.49e-08 \|value\|\)"
        with pytest.raises(QuadratureError, match=requested):
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

    def test_overlap_monte_carlo_lower_bound(self):
        # the independence Metropolis chain proposes uniformly on [0, 1]^6 and
        # moves from x to y with density min(1, pi(y) / pi(x)); the sampled
        # overlap of those densities from two fixed starts must not sit below
        # the published constant
        config_a = np.array([0.1, 0.1, 0.1, 0.9, 0.9, 0.5])
        config_b = np.array([0.9, 0.9, 0.2, 0.1, 0.6, 0.6])
        log_a = laws.pp_log_target(config_a, 0.1, 0.1)
        log_b = laws.pp_log_target(config_b, 0.1, 0.1)
        rng = np.random.default_rng(42)
        ys = rng.random((100_000, 6))
        log_t = laws.pp_log_target(ys, 0.1, 0.1)
        overlap = np.minimum(
            np.minimum(1.0, np.exp(log_t - log_a)),
            np.minimum(1.0, np.exp(log_t - log_b)),
        )
        estimate = overlap.mean()
        se = overlap.std(ddof=1) / math.sqrt(overlap.size)
        assert estimate >= point_process_overlap(0.1, 0.1) - 3 * se


class TestSamplerCorrectness:
    def test_trajectories_deterministic_in_seed(self):
        for draw in (laws.hl_stationary, laws.rwm_stationary):
            a = draw(np.random.default_rng(7), 500)
            assert a.tobytes() == draw(np.random.default_rng(7), 500).tobytes()

    def test_halfline_stationary_matches_a_long_hl_step_ensemble(self):
        # 60 steps from 0 leave a bias below 2^-60, as every step regenerates
        # with probability 1/2
        rng = np.random.default_rng(41)
        exact = laws.hl_stationary(rng, 200_000)
        ensemble = np.zeros(100_000)
        for _ in range(60):
            ensemble = laws.hl_step(rng, ensemble)
        assert np.all(exact >= 0.0)
        assert ks_2samp(exact, ensemble).pvalue > 0.01

    def test_halfline_stationary_is_invariant_under_hl_step(self):
        rng = np.random.default_rng(43)
        exact = laws.hl_stationary(rng, 200_000)
        stepped = laws.hl_step(rng, laws.hl_stationary(rng, 200_000))
        assert ks_2samp(exact, stepped).pvalue > 0.01

    def test_rwm_one_step_histogram_matches_density(self, rwm):
        kernel = rwm
        x = 0.7
        samples = laws.rwm_step(np.random.default_rng(123), np.full(1_000_000, x))
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
        samples = laws.hl_step(np.random.default_rng(321), np.full(1_000_000, x))
        edges = np.linspace(0.0, 8.0, 33)
        counts, _ = np.histogram(samples, bins=edges)
        for k in range(len(edges) - 1):
            prob, _ = quad(
                lambda y: halfline.transition_density(x, y), edges[k], edges[k + 1]
            )
            se = math.sqrt(prob * (1 - prob) / samples.size)
            assert counts[k] / samples.size == pytest.approx(prob, abs=4 * se + 1e-9)

    def test_rwm_stationary_is_the_laplace_target(self):
        exact = laws.rwm_stationary(np.random.default_rng(97), 200_000)
        assert kstest(exact, laplace_cdf).pvalue > 0.01

    def test_rwm_preserves_laplace_target(self):
        rng = np.random.default_rng(99)
        stepped = laws.rwm_step(rng, laws.rwm_stationary(rng, 200_000))
        assert kstest(stepped, laplace_cdf).pvalue > 0.01

    def test_point_process_log_target_matches_the_scalar_one(self):
        states = np.random.default_rng(8).random((4, 50, 6))
        states[1, 7, 2:4] = states[1, 7, 0:2]  # particles 1 and 2 coincide
        got = laws.pp_log_target(states, 0.1, 0.1)
        assert got.shape == (4, 50)
        want = [[sref.pp_log_target(s, 0.1, 0.1) for s in block] for block in states]
        assert got == pytest.approx(np.array(want), rel=1e-13)
        assert got[1, 7] == -math.inf
