"""Analytic convergence-bound calculators.

Covers the geometric minorization bound (1-eps)^floor(n/n0), the
drift-based two-term bound (1-eps)^j + alpha^-n * B^(j-1) * E[h], the
univariate-to-bivariate drift conversion, and the helpers around them
(stationary moment bound, B constant, sup-h shortcut, threshold search,
integer-j optimization), the overlap certificates of the built-in chains,
which every layer reads from ``CERTIFICATES``, and the step-radius argument
that settles containment without an integral. Everything here is a pure
function; large powers are evaluated in log space. The module imports no
numpy, so the exact commands (``bound t2`` among them) start without it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple

from .errors import (
    DriftConversionError,
    InputError,
    MathError,
    ThresholdNotReachedError,
)

__all__ = [
    "BoundReport",
    "CERTIFICATES",
    "ChainCertificate",
    "Interval",
    "UnivariateDrift",
    "BivariateDrift",
    "DriftMinorizationInputs",
    "minorization_bound",
    "minorization_curve",
    "minorization_crossing",
    "steps_to_threshold",
    "bivariate_from_univariate",
    "stationary_moment_bound",
    "b_constant",
    "sup_rh_via_containment",
    "drift_minorization_bound",
    "drift_minorization_log_terms",
    "optimize_drift_minorization",
    "point_process_overlap",
    "contained_by_step_radius",
    "LAPLACE_SCHEDULE",
    "MAX_CURVE_POINTS",
    "MAX_POWER_BITS",
    "MAX_STEPS",
    "RWM_STEP_RADIUS",
]

# exp() overflows just above this; larger log-terms are reported as +inf
_EXP_OVERFLOW = 700.0

# The geometric bound is evaluated on exact powers (1-eps)^k, whose numerator
# and denominator grow linearly in k. A curve holds at most MAX_CURVE_POINTS
# lattice points, and a crossing search refuses a power whose numerator or
# denominator would exceed MAX_POWER_BITS bits (forming one such power takes
# about a second on a 2-core x86 host); both limits raise InputError.
MAX_CURVE_POINTS = 10_000
MAX_POWER_BITS = 1 << 22

# a threshold search gives up, with ThresholdNotReachedError, beyond this n
MAX_STEPS = 10**9

# reference (n, j) pair at which `bound t2` reports the Metropolis chain's
# two-term bound, for regression
LAPLACE_SCHEDULE = (120_000, 274)

# the Metropolis chain's proposals lie within this distance of the state
RWM_STEP_RADIUS = 2.0


class _Record:
    """Base of the immutable validating records: fields are the subclass's
    ``__slots__``, stored once by ``_fill`` and read-only afterwards; equality
    (same class only), hashing and repr go by the fields in slot order."""

    __slots__ = ()

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Interval(_Record):
    """Closed interval [lo, hi], used as a small-set / region description."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float) -> None:
        if not lo <= hi:
            raise InputError(f"empty interval [{lo}, {hi}]")
        self._fill(lo, hi)

    def contains(self, x):
        """Membership of x; per element when x is a numpy array."""
        return (self.lo <= x) & (x <= self.hi)

    def grid(self, step: float) -> list[float]:
        """Probe points lo, lo+step, ... up to hi, and hi itself.

        No point lies above hi. Raises ``InputError`` unless ``step`` is a
        positive finite number.
        """
        if not 0 < step < math.inf:
            raise InputError(f"grid step must be a positive finite number, got {step}")
        n = int(round((self.hi - self.lo) / step))
        pts = [x for x in (self.lo + k * step for k in range(n + 1)) if x <= self.hi]
        if pts[-1] < self.hi - 1e-12:
            pts.append(self.hi)
        return pts


class ChainCertificate(NamedTuple):
    """Overlap certificate (C, n0, eps, nu) of a built-in chain.

    From any two states in ``small_set`` (the whole space when None) the
    ``n0``-step laws share mass ``epsilon`` of the measure ``nu``, given here
    as the text the reports print.
    """

    epsilon: float
    n0: int
    nu: str
    small_set: Interval | None = None


# published certificates of the built-in continuous chains, keyed by model;
# the half-line mixture dominates its exponential component everywhere
CERTIFICATES = {
    "halfline": ChainCertificate(epsilon=0.5, n0=1, nu="2*exp(-2y)"),
    "rwm-laplace": ChainCertificate(
        epsilon=1.0 / (8.0 * math.e**2),
        n0=2,
        nu="half of Lebesgue on [-1,1]",
        small_set=Interval(-2.0, 2.0),
    ),
}


class BoundReport(NamedTuple):
    """A bound (or exact-distance) curve with its threshold crossing.

    ``values`` holds floats for analytic bounds and ``Fraction`` entries for
    exact curves. ``js`` is populated only by the two-term drift bound, where
    each lattice point carries the minimizing j.
    """

    ns: tuple[int, ...]
    values: tuple
    crossing: int | None = None
    js: tuple[int, ...] | None = None

    def value_at(self, n: int) -> object:
        return self.values[self.ns.index(n)]


def minorization_bound(epsilon, n0: int, n: int):
    """Geometric bound (1-eps)^floor(n/n0) on the distance to stationarity.

    Returns a ``Fraction`` when ``epsilon`` is one (so exact-curve comparisons
    stay exact), a float otherwise.
    """
    if not 0 < epsilon <= 1:
        raise InputError(f"epsilon must be in (0, 1], got {epsilon}")
    if n0 < 1:
        raise InputError("n0 must be >= 1")
    if n < 0:
        raise InputError("n must be >= 0")
    return (1 - epsilon) ** (n // n0)


def minorization_curve(epsilon, n0: int, n_max: int) -> BoundReport:
    """Evaluate the geometric bound on n = 0..n_max, as floats.

    Each value is the float nearest the exact bound: powers of a rational
    ``epsilon`` are formed exactly, one multiplication per step. Raises
    ``InputError`` for a curve of more than ``MAX_CURVE_POINTS`` points.
    """
    minorization_bound(epsilon, n0, 0)  # validates epsilon and n0
    if n_max + 1 > MAX_CURVE_POINTS:
        raise InputError(
            f"a curve of {n_max + 1} points exceeds the cap of {MAX_CURVE_POINTS}; "
            "pass a smaller n_max"
        )
    ns = tuple(range(n_max + 1))
    powers = _geometric_powers(1 - epsilon, n_max // n0)
    return BoundReport(ns=ns, values=tuple(powers[n // n0] for n in ns))


def _geometric_powers(base, k_max: int) -> list[float]:
    """float(base**k) for k = 0..k_max; a rational base is powered exactly."""
    if isinstance(base, float):
        return [base**k for k in range(k_max + 1)]
    num, den = Fraction(base).as_integer_ratio()
    top, bottom, out = 1, 1, []
    for _ in range(k_max + 1):
        out.append(top / bottom)  # int division rounds correctly, as Fraction's float does
        top *= num
        bottom *= den
    return out


def minorization_crossing(epsilon, n0: int, delta: float) -> int:
    """Smallest n with float(minorization_bound(epsilon, n0, n)) < delta.

    The answer ``steps_to_threshold`` gives for the geometric bound, found
    without a search over exact powers: the crossing exponent k is estimated
    in float log space, then settled by exact powers at k and k - 1 (a step
    or two further in the rare case the estimate is off). Raises
    ``InputError`` when an exact power at the crossing would exceed
    ``MAX_POWER_BITS``, and ``ThresholdNotReachedError`` when the crossing
    lies beyond the ``MAX_STEPS`` steps ``steps_to_threshold`` searches.
    """
    if not 0 < delta < 1:
        raise InputError(f"delta must be in (0, 1), got {delta}")
    minorization_bound(epsilon, n0, 0)  # validates epsilon and n0
    base = 1 - epsilon
    if base == 0:
        return n0
    ratio = Fraction(base)
    eps = float(epsilon)
    if eps <= 0.5:
        log_base = math.log1p(-eps)  # accurate near 1, where base itself is not
    else:
        log_base = math.log(ratio.numerator) - math.log(ratio.denominator)
    k_est = math.log(delta) / log_base if log_base < 0 else math.inf
    if not isinstance(base, float):
        bits = k_est * max(ratio.numerator.bit_length(), ratio.denominator.bit_length())
        if bits > MAX_POWER_BITS:
            raise InputError(
                f"the bound falls below {delta} near n = {k_est * n0:.4g}; its exact "
                f"value there needs about {bits:.3g} bits, beyond the cap of "
                f"{MAX_POWER_BITS} (epsilon too small for this delta)"
            )
    if k_est * n0 > MAX_STEPS:
        raise ThresholdNotReachedError(
            f"bound does not fall below {delta} within {MAX_STEPS} steps"
        )

    def below(k: int) -> bool:
        return float(base**k) < delta

    k = max(1, math.ceil(k_est))  # the bound at k = 0 is 1 >= delta
    for _ in range(8):
        if not below(k):
            k += 1
        elif k > 1 and below(k - 1):
            k -= 1
        else:
            return k * n0
    raise MathError(f"log-space estimate {k_est} missed the crossing of the geometric bound")


def steps_to_threshold(bound: Callable[[int], float], delta: float) -> int:
    """Smallest n >= 0 with bound(n) < delta, for a non-increasing bound.

    Doubling search for a bracket, then bisection. Raises
    ``ThresholdNotReachedError`` if the bound stays >= delta up to ``MAX_STEPS``.
    """
    if not 0 < delta < 1:
        raise InputError(f"delta must be in (0, 1), got {delta}")
    if bound(0) < delta:
        return 0
    hi = 1
    while bound(hi) >= delta:
        hi *= 2
        if hi > MAX_STEPS:
            raise ThresholdNotReachedError(
                f"bound does not fall below {delta} within {MAX_STEPS} steps"
            )
    lo = hi // 2  # bound(lo) >= delta, bound(hi) < delta
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bound(mid) < delta:
            hi = mid
        else:
            lo = mid
    return hi


class UnivariateDrift(_Record):
    """One-chain drift certificate: E[V(next)] <= lam*V(x) + b*1_C(x)."""

    __slots__ = ("V", "small_set", "lam", "b")

    def __init__(
        self, V: Callable[[float], float], small_set: Interval, lam: float, b: float
    ) -> None:
        if not 0 < lam < 1:
            raise InputError(f"lam must be in (0, 1), got {lam}")
        if not 0 <= b < math.inf:
            raise InputError(f"b must be finite and >= 0, got {b}")
        self._fill(V, small_set, lam, b)


class BivariateDrift(_Record):
    """Two-chain drift certificate: E[h(next pair)] <= h(x,y)/alpha off C x C."""

    __slots__ = ("h", "small_set", "alpha")

    def __init__(
        self, h: Callable[[float, float], float], small_set: Interval, alpha: float
    ) -> None:
        if not alpha > 1:
            raise InputError(f"alpha must be > 1, got {alpha}")
        self._fill(h, small_set, alpha)


class DriftMinorizationInputs(_Record):
    """Constants feeding the two-term drift/minorization bound."""

    __slots__ = ("epsilon", "n0", "alpha", "big_b", "expected_h")

    def __init__(
        self, epsilon: float, n0: int, alpha: float, big_b: float, expected_h: float
    ) -> None:
        if not 0 < epsilon < 1:
            raise InputError(f"epsilon must be in (0, 1), got {epsilon}")
        if n0 < 1:
            raise InputError("n0 must be >= 1")
        if not alpha > 1:
            raise InputError(f"alpha must be > 1, got {alpha}")
        if not big_b >= 1:
            raise InputError(f"B must be >= 1, got {big_b}")
        if not expected_h >= 1:
            raise InputError(f"expected h must be >= 1, got {expected_h}")
        self._fill(epsilon, n0, alpha, big_b, expected_h)


def bivariate_from_univariate(uni: UnivariateDrift, d: float) -> BivariateDrift:
    """Build the pair drift h(x,y) = (V(x)+V(y))/2 from a one-chain drift.

    ``d`` is inf of V outside the small set, supplied analytically by the
    caller. Requires d > b/(1-lam) - 1; then alpha = 1/(lam + b/(d+1)) > 1.
    """
    floor = uni.b / (1.0 - uni.lam) - 1.0
    if not d > floor:
        raise DriftConversionError(
            f"small set too small for drift conversion: need d > b/(1-lam)-1 "
            f"= {floor:.6g}, got d = {d:.6g}"
        )
    alpha_inv = uni.lam + uni.b / (d + 1.0)
    # algebraic consequence of the precondition; guard anyway
    assert alpha_inv < 1.0
    V = uni.V
    return BivariateDrift(
        h=lambda x, y: 0.5 * (V(x) + V(y)),
        small_set=uni.small_set,
        alpha=1.0 / alpha_inv,
    )


def stationary_moment_bound(lam: float, b: float) -> float:
    """Bound b/(1-lam) on the stationary mean of the drift function V."""
    if not 0 < lam < 1:
        raise InputError(f"lam must be in (0, 1), got {lam}")
    return b / (1.0 - lam)


def b_constant(n0: int, alpha: float, epsilon: float, sup_rh: float) -> float:
    """The constant max(1, alpha^n0 * (1-eps) * sup_rh) of the two-term bound."""
    if sup_rh < 0:
        raise InputError("sup_rh must be >= 0")
    return max(1.0, alpha**n0 * (1.0 - epsilon) * sup_rh)


def contained_by_step_radius(
    small_set: Interval, region: Interval, step_radius: float, n_steps: int
) -> bool:
    """Whether n_steps moves of at most ``step_radius`` from ``small_set``
    stay inside ``region``.

    When they do, no path can leave the region, so the escape mass is exactly
    0 by the kernel's support alone, with no integral.
    """
    reach = step_radius * n_steps
    return region.lo <= small_set.lo - reach and small_set.hi + reach <= region.hi


def sup_rh_via_containment(
    V: Callable[[float], float], region: Interval, probe_step: float = 0.05
) -> float:
    """Bound sup of the post-failure expected h by sup of h over region x region.

    h is the pair drift (V(x)+V(y))/2 of ``bivariate_from_univariate``. Float
    addition and halving are monotone, so its sup over the probe grid squared
    is 0.5*(m+m), m the largest V on the grid: the same float the pairwise
    maximum gives, from one pass over the grid. Valid when every small-set
    start lands inside ``region`` with probability one after the minorization
    lag, which the caller establishes (``contained_by_step_radius``).
    """
    m = max(V(x) for x in region.grid(probe_step))
    return 0.5 * (m + m)


def drift_minorization_log_terms(inputs: DriftMinorizationInputs, n: int, j: int) -> tuple[float, float]:
    """Log of the two terms of the drift/minorization bound at (n, j)."""
    if not 1 <= j <= n:
        raise InputError(f"need 1 <= j <= n, got j={j}, n={n}")
    log_t1 = j * math.log1p(-inputs.epsilon)
    log_t2 = (
        -n * math.log(inputs.alpha)
        + (j - 1) * math.log(inputs.big_b)
        + math.log(inputs.expected_h)
    )
    return log_t1, log_t2


def drift_minorization_bound(inputs: DriftMinorizationInputs, n: int, j: int) -> float:
    """(1-eps)^j + alpha^-n * B^(j-1) * E[h], evaluated in log space."""
    log_t1, log_t2 = drift_minorization_log_terms(inputs, n, j)
    t2 = math.inf if log_t2 > _EXP_OVERFLOW else math.exp(log_t2)
    return math.exp(log_t1) + t2


def _best_j(inputs: DriftMinorizationInputs, n: int) -> int:
    """Minimizing integer j in [1, n] at fixed n.

    The bound is strictly convex in j (a decaying plus a growing exponential),
    so it suffices to check the integer neighbors of the continuous minimizer,
    clamped to the range. When B == 1 the second term does not depend on j and
    the optimum is j = n.
    """
    a = -math.log1p(-inputs.epsilon)
    big_l = math.log(inputs.big_b)
    if big_l <= 0.0:
        return n
    # stationarity of exp(-a*j) + K*exp(big_l*j), all in log space
    log_k = (
        -n * math.log(inputs.alpha)
        + math.log(inputs.expected_h)
        - big_l
    )
    j_star = (math.log(a) - math.log(big_l) - log_k) / (a + big_l)
    cands = {1, n}
    for j in (math.floor(j_star), math.ceil(j_star)):
        cands.add(max(1, min(n, j)))
    return min(cands, key=lambda j: drift_minorization_bound(inputs, n, j))


def optimize_drift_minorization(inputs: DriftMinorizationInputs, delta: float) -> BoundReport:
    """Smallest n whose j-optimized two-term bound falls below ``delta``.

    The ``steps_to_threshold`` search over n >= 1; at each probed n the
    integer j is optimized exactly. The report holds every probed n, its
    bound and its j.
    """
    probes: dict[int, tuple[int, float]] = {}

    def probe(n: int) -> float:
        if n not in probes:
            j = _best_j(inputs, n)
            probes[n] = (j, drift_minorization_bound(inputs, n, j))
        return probes[n][1]

    crossing = steps_to_threshold(lambda n: probe(n) if n else math.inf, delta)
    ns = tuple(sorted(probes))
    return BoundReport(
        ns=ns,
        values=tuple(probes[n][1] for n in ns),
        crossing=crossing,
        js=tuple(probes[n][0] for n in ns),
    )


def point_process_overlap(c: float, d: float) -> float:
    """Published whole-space overlap constant for the particle chain.

    Raises ``InputError`` for a c or d that is not positive and finite, and
    for an overlap too small to hold in a float.
    """
    if not (c > 0 and d > 0):
        raise InputError(f"need c > 0 and d > 0, got c={c}, d={d}")
    for name, value in (("c", c), ("d", d)):
        if value == math.inf:
            raise InputError(f"{name} must be finite, got {name}={value}")
    overlap = 0.48 * math.exp(-4.25 * c - 9.88 * d)
    if overlap == 0:
        raise InputError(f"the overlap constant at c={c}, d={d} underflows to 0")
    return overlap
