"""Continuous kernels: densities, verification routines, sampler correctness."""

import json
import math
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import ks_2samp, kstest

import scalar_reference as sref
from mcbounds.bounds import (
    CERTIFICATES,
    Interval,
    UnivariateDrift,
    chain_drift,
    chain_drift_minorization_inputs,
    contained_by_step_radius,
    point_process_overlap,
)
from mcbounds.errors import ContainmentError, InputError, QuadratureError
from mcbounds.kernels import laws, verify
from mcbounds.kernels.verify import (
    batch_quad,
    verify_minorization_numeric,
    verify_univariate_drift,
)
from verify_points import expected_value_after_step, two_step_density

LAPLACE_EPS = 1.0 / (8.0 * math.e**2)


def pair_loop_lag1(kernel, epsilon, nu_density, xs, ys):
    """(min margin, argmin x, argmin y) of the lag-1 overlap check, formed as
    ``verify_minorization_numeric`` once did: 1024 gathered pairs per pass,
    x-major, keeping the first smallest margin."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    min_margin, arg = math.inf, (math.nan, math.nan)
    for start in range(0, xs.size * ys.size, 1024):
        pairs = np.arange(start, min(start + 1024, xs.size * ys.size))
        x, y = xs[pairs // ys.size], ys[pairs % ys.size]
        margin = kernel.transition_density(x, y) - epsilon * nu_density(y)
        k = int(np.argmin(margin))
        if margin[k] < min_margin:
            min_margin, arg = float(margin[k]), (float(x[k]), float(y[k]))
    return min_margin, *arg


def loop_qk21(f, owner, a, b):
    """qk21 on every piece in one pass, its sums formed one node pair at a
    time in QUADPACK's order, as ``verify._qk21`` once did."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    absc = hlgth * verify._XGK[:, None]
    fv = f(owner, np.concatenate([centr - absc, centr + absc, centr[None]]))
    wgk, wg = verify._WGK, verify._WG
    fv1, fv2, fc = fv[:10], fv[10:20], fv[20]
    fsum = fv1 + fv2
    resk = wgk[10] * fc
    resg = np.zeros_like(resk)
    resabs = np.abs(resk)
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):
        if j % 2:
            resg = resg + wg[j // 2] * fsum[j]
        resk = resk + wgk[j] * fsum[j]
        resabs = resabs + wgk[j] * (np.abs(fv1[j]) + np.abs(fv2[j]))
    reskh = resk * 0.5
    resasc = wgk[10] * np.abs(fc - reskh)
    for j in range(10):
        resasc = resasc + wgk[j] * (np.abs(fv1[j] - reskh) + np.abs(fv2[j] - reskh))
    dhlgth = np.abs(hlgth)
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    err = np.abs((resk - resg) * hlgth)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    floor = (verify._EPMACH * 50.0) * resabs
    err = np.where(resabs > verify._UFLOW / (50.0 * verify._EPMACH), np.maximum(floor, err), err)
    return resk * hlgth, err


def float_bits(values):
    return [struct.pack("<d", v) for v in values]


def laplace_cdf(q):
    """CDF of the Metropolis target exp(-|x|) / 2."""
    tail = 0.5 * np.exp(-np.abs(q))
    return np.where(q < 0.0, tail, 1.0 - tail)


@pytest.fixture(scope="module")
def halfline():
    return laws.CHAINS["halfline"]


@pytest.fixture(scope="module")
def rwm():
    return laws.CHAINS["rwm-laplace"]


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
        json.dumps(report._asdict())

    @pytest.mark.parametrize("probe_x, probe_y", [
        (np.arange(0.0, 50.0 + 1e-12, 0.05), np.arange(0.0, 50.0 + 1e-12, 0.05)),
        ([0.0, 3.5, 20.0], np.linspace(0.0, 50.0, 3 * (verify._PASS_BYTES // 8) // 2)),
    ], ids=["halfline-default-grid", "row-larger-than-a-block"])
    def test_lag1_blocks_match_the_pair_loop(self, halfline, probe_x, probe_y):
        # the default grid's margin is exactly 0 at many pairs (the normal
        # part underflows), and the first of them in x-major order is reported
        report = verify_minorization_numeric(
            halfline, 1, 0.5, laws.hl_nu_density, probe_x, probe_y
        )
        got = (report.min_margin, report.argmin_x, report.argmin_y)
        assert float_bits(got) == float_bits(
            pair_loop_lag1(halfline, 0.5, laws.hl_nu_density, probe_x, probe_y)
        )

    @settings(max_examples=150, deadline=None)
    @given(
        model=st.sampled_from(["halfline", "rwm-laplace", "independence"]),
        epsilon=st.sampled_from([0.5, 0.25, LAPLACE_EPS, 1.0]),
        xs=st.lists(st.integers(0, 160), min_size=1, max_size=40),
        ys=st.lists(st.integers(0, 160), min_size=1, max_size=40),
        block=st.integers(1, 64),
    )
    def test_lag1_blocks_match_the_pair_loop_on_random_grids(
        self, halfline, rwm, model, epsilon, xs, ys, block
    ):
        # quarter-step grid points repeat, and far from x the densities
        # vanish, so minima tie; small blocks split rows and split a row
        if model == "halfline":
            kernel, nu = halfline, laws.hl_nu_density
            xs, ys = np.array(xs) * 0.25, np.array(ys) * 0.25
        elif model == "independence":
            # a density free of x and a constant nu, as a library caller may pass
            kernel = halfline._replace(transition_density=lambda x, y: np.exp(-y))
            nu = lambda y: 1.0
            xs, ys = np.array(xs) * 0.25, np.array(ys) * 0.25
        else:
            kernel, nu = rwm, laws.rwm_nu_density
            xs, ys = np.array(xs) * 0.25 - 20.0, np.array(ys) * 0.25 - 20.0
        with mock.patch.object(verify, "_PASS_BYTES", 8 * block):
            report = verify_minorization_numeric(kernel, 1, epsilon, nu, xs, ys)
        got = (report.min_margin, report.argmin_x, report.argmin_y)
        assert float_bits(got) == float_bits(pair_loop_lag1(kernel, epsilon, nu, xs, ys))

    def test_lag2_check_stays_within_its_pass_budget(self, rwm):
        # the command's default Metropolis grid, 81 x 41 pairs: passes over a
        # whole 1024-pair chunk at once peaked at 6.2 MiB here
        cert = CERTIFICATES["rwm-laplace"]
        probe_x = np.arange(-2.0, 2.0 + 1e-12, 0.05)
        probe_y = np.arange(-1.0, 1.0 + 1e-12, 0.05)
        tracemalloc.start()
        try:
            verify_minorization_numeric(
                rwm, cert.n0, cert.epsilon, laws.rwm_nu_density, probe_x, probe_y
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20

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
        json.dumps(report._asdict())

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
    def test_two_steps_from_small_set_stay_inside(self):
        # two moves of at most 2 from [-2, 2] end in [-6, 6], which is how
        # `bound t2` settles containment
        assert contained_by_step_radius(
            Interval(-2.0, 2.0), Interval(-6.0, 6.0), CERTIFICATES["rwm-laplace"].step_radius, 2
        )

    def test_preset_refuses_where_the_step_radius_does_not_settle_it(self, monkeypatch):
        # two steps from [-2, 2] reach -6, below this region: the t2
        # constants refuse the region without integrating
        region = Interval(-5.0, 5.5)
        chain = CERTIFICATES["rwm-laplace"]
        chain = chain._replace(drift=chain.drift._replace(region=region))
        monkeypatch.setattr(verify, "batch_quad", None)  # any integral fails
        with pytest.raises(
            ContainmentError,
            match=r"2 steps of at most 2.0 from \[-2.0, 2.0\] can leave the "
            r"containment region \[-5.0, 5.5\]",
        ):
            chain_drift_minorization_inputs(chain)


def scipy_integral(f, lo, hi, pts=()):
    """``scipy.integrate.quad`` as the verifiers used to call it: inner kinks
    as points, 200 subintervals, absolute tolerance 1e-8."""
    inner = sorted({p for p in pts if lo < p < hi})
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


def laplace(centre, rate):
    """Laplace densities, one per point, as a ``batch_quad`` integrand."""

    def f(i, w):
        c, r = np.asarray(centre)[i], np.asarray(rate)[i]
        return 0.5 * r * np.exp(-r * np.abs(w - c))

    return f


REQUESTED = r"requested max\(1\.0e-08, 1\.49e-08 \|value\|\)"


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

    @pytest.mark.parametrize("x", [1e6, 1e7, 1e8])
    def test_large_values_pass_the_relative_test(self, x):
        # x e^w on [-1, 1]: qk21's rounding floor, 50 eps times the integral
        # of |f| (2.6e-8 at x = 1e6), is above the absolute tolerance 1e-8,
        # so the one pass meets QUADPACK's test on the relative part
        # 1.49e-8 |value| or not at all
        value, err = batch_quad(lambda i, w: x * np.exp(w), np.array([-1.0]), np.array([1.0]))
        assert 1e-8 < err[0] <= 1.49e-8 * value[0]
        assert value[0] == pytest.approx(x * (math.e - 1.0 / math.e), rel=1e-12)

    @pytest.mark.parametrize("lo, hi", [
        (0.0, math.inf), (-math.inf, 1.0), (-math.inf, math.inf), (0.0, math.nan),
    ])
    def test_infinite_end_is_refused(self, halfline, lo, hi):
        # every window the commands integrate is finite, and no other is
        with pytest.raises(InputError, match="is not finite"):
            batch_quad(cauchy([0.0, 0.5], [1.0, 1.0]), np.array([-1.0, lo]),
                       np.array([1.0, hi]))
        # the half-line kernel's window is [0, inf): it is checked at lag 1 only
        with pytest.raises(InputError, match=r"\[0.0, inf\] is not finite"):
            expected_value_after_step(halfline, lambda y: 1.0 + y, 1.0)

    def test_peaked_integrand_that_misses_the_bound_raises(self):
        # a Cauchy peak of scale 1e-3 at 0.3 needs more than one qk21 pass on
        # [-1, 1]: the pass is not refined, it raises
        with pytest.raises(QuadratureError, match=REQUESTED):
            batch_quad(cauchy([0.3], [1e-3]), np.array([-1.0]), np.array([1.0]))

    def test_divergent_integrand_raises_in_one_pass(self):
        # 1 / |w - 1/3| has no finite integral, and a NaN is no estimate
        passes = []

        def inverse(i, w):
            passes.append(w.shape[1])
            return 1.0 / np.abs(w - 1.0 / 3.0)

        with pytest.raises(QuadratureError, match=REQUESTED):
            batch_quad(inverse, np.array([-1.0]), np.array([1.0]))
        assert passes == [1]
        with pytest.raises(QuadratureError, match=REQUESTED):
            batch_quad(lambda i, w: np.full(w.shape, np.nan), np.zeros(1), np.ones(1))

    def test_value_does_not_depend_on_the_batch(self):
        # Laplace densities, exp-linear between the declared kinks like the
        # kernels' integrands; the fourth peak lies outside its window
        centre = np.array([0.3, 0.0, -0.7, 2.0, 0.1])
        rate = np.array([3.0, 1.0, 0.5, 2.0, 1.5])
        lo = np.array([-1.0, -4.0, -1.0, -1.0, -3.0])
        hi = np.array([1.0, 4.0, 1.0, 1.5, 0.5])
        breaks = np.array([[0.3], [0.0], [-0.7], [np.nan], [0.1]])
        value, err = batch_quad(laplace(centre, rate), lo, hi, breaks)

        def cdf(q):
            tail = 0.5 * np.exp(-rate * np.abs(q - centre))
            return np.where(q < centre, tail, 1.0 - tail)

        assert value == pytest.approx(cdf(hi) - cdf(lo), rel=1e-12)
        for order in ([0], [3], [4, 1], [2, 0, 3], [4, 3, 2, 1, 0]):
            sub = np.array(order)
            v, e = batch_quad(laplace(centre[sub], rate[sub]), lo[sub], hi[sub], breaks[sub])
            assert v.tobytes() == value[sub].tobytes()
            assert e.tobytes() == err[sub].tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        grid=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=40),
        xs=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=8),
        ys=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8),
        few=st.integers(2, 7),
    )
    def test_chunk_budgets_give_the_bits_of_one_pass(self, rwm, grid, xs, ys, few):
        # budgets of one point a pass, a few points and the default give the
        # reports of one unbounded pass with the per-node sums: qk21 treats
        # each piece on its own, and a point's pieces are summed left to
        # right (repr tells every float's bits)
        cert = CERTIFICATES["rwm-laplace"]
        drift = chain_drift(cert)

        def reports():
            return repr((
                verify_univariate_drift(rwm, drift, grid),
                verify_minorization_numeric(rwm, 2, cert.epsilon, laws.rwm_nu_density, xs, ys),
            ))

        with mock.patch.object(verify, "_qk21", loop_qk21), \
                mock.patch.object(verify, "_PASS_BYTES", 1 << 40):
            want = reports()
        # a drift state has at most 4 pieces and a lag-2 pair at most 7
        for budget in (21 * 8, 21 * 8 * 7 * few, verify._PASS_BYTES):
            with mock.patch.object(verify, "_PASS_BYTES", budget):
                assert reports() == want

    @settings(max_examples=60, deadline=None)
    @given(
        states=st.lists(st.floats(-1417.5, 1417.5), min_size=1, max_size=30),
        xs=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=10),
        ys=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=10),
    )
    def test_command_traffic_meets_the_bound_in_one_pass(self, rwm, states, xs, ys):
        # the drift states `verify drift` admits under the preset V, and the
        # lag-2 pairs of the Metropolis overlap check: one qk21 pass meets
        # QUADPACK's test at every one, or batch_quad raises
        verify._expected_values(rwm, CERTIFICATES["rwm-laplace"].drift.V, np.array(states))
        x, y = np.meshgrid(xs, ys, indexing="ij")
        verify._two_step_densities(rwm, x.ravel(), y.ravel())


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
