"""Analytic convergence-bound calculators.

Covers the geometric minorization bound (1-eps)^floor(n/n0), the
drift-based two-term bound (1-eps)^j + alpha^-n * B^(j-1) * E[h], the
univariate-to-bivariate drift conversion, and the helpers around them
(stationary moment bound, B constant, sup-h shortcut, threshold search,
integer-j optimization), the step-radius argument that settles containment
without an integral, and ``CERTIFICATES``, one record of every numpy-free
fact about each built-in chain, which every layer reads and from which
``chain_drift_minorization_inputs`` assembles the two-term bound.
Everything here is a pure function; large powers are evaluated in log space.
The module imports no numpy, so the exact commands (``bound t2`` among them)
start without it.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import Callable, NamedTuple

from .errors import (
    ContainmentError,
    DriftConversionError,
    InputError,
    MathError,
    ThresholdNotReachedError,
    integer,
)

__all__ = [
    "BoundReport",
    "CERTIFICATES",
    "ChainCertificate",
    "ChainDrift",
    "Interval",
    "UnivariateDrift",
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
    "chain_drift",
    "chain_drift_minorization_inputs",
    "MAX_CURVE_POINTS",
    "MAX_POWER_BITS",
    "MAX_STEPS",
]

# exp() overflows just above this; larger log-terms are reported as +inf
_EXP_OVERFLOW = 700.0

# The geometric bound is evaluated on exact powers (1-eps)^k, whose numerator
# and denominator grow linearly in k. A curve holds at most MAX_CURVE_POINTS
# lattice points, and no exact power is formed whose numerator or
# denominator would exceed MAX_POWER_BITS bits (forming one such power takes
# about a second on a 2-core x86 host); both limits raise InputError.
MAX_CURVE_POINTS = 10_000
MAX_POWER_BITS = 1 << 22

# a threshold search gives up, with ThresholdNotReachedError, beyond this n
MAX_STEPS = 10**9


class _Record:
    """Base of the immutable validating records: fields are the subclass's
    ``__slots__``, stored once by ``_fill`` and read-only afterwards; equality
    (same class only), hashing and repr go by the fields in slot order.

    The package declares a record in one of two ways: a subclass of this
    base when ``__init__`` checks its fields, a ``typing.NamedTuple`` when it
    is a plain bundle of values."""

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


class ChainDrift(NamedTuple):
    """Drift certificate of a built-in chain: E[V(next)] <= lam V(x) + b 1_C(x),
    C the small set of the chain's overlap certificate.

    ``V`` takes a builtin float or a numpy array, and ``text`` is how the
    reports print it. V is largest at an end of any interval, so its values
    at a window's two ends bound it on the window. ``d`` is inf of V off C;
    the step radius keeps every n0-step path from C inside ``region``; and
    ``pi_v`` is pi(V), which is E[h] with both chains stationary (from a start
    x0 it is (V(x0) + pi(V))/2), all analytic. ``bound t2`` reports the
    two-term bound at the (n, j) of ``schedule``, for regression.
    """

    V: Callable
    text: str
    lam: float
    b: float
    d: float
    region: Interval
    pi_v: float
    schedule: tuple[int, int]


class ChainCertificate(NamedTuple):
    """A built-in chain's numpy-free facts, its overlap certificate first.

    From any two states in ``small_set`` (the whole space when None) the
    ``n0``-step laws share mass ``epsilon`` of the measure ``nu``, given here
    as the text the reports print. ``space`` holds the starts a coupling run
    accepts; every move lies within ``step_radius`` of the state, when that
    is not None; ``probes`` are the x and y ranges on which ``verify
    minorization`` checks the overlap (every built-in chain sets them); and
    ``drift`` is the chain's drift certificate, when it has one.
    ``kernels.laws.CHAINS`` holds the numpy half of each chain under the
    same key.
    """

    epsilon: float
    n0: int
    nu: str
    small_set: Interval | None = None
    space: Interval = Interval(-math.inf, math.inf)
    step_radius: float | None = None
    probes: tuple[tuple[float, float], tuple[float, float]] | None = None
    drift: ChainDrift | None = None


def _exp_half_abs(x):
    """e^{|x|/2}: per element on numpy arrays, a builtin float on a float.

    The bound calculators evaluate V on builtin floats, point by point, and
    their reports keep the bytes that ``math.exp`` gives.
    """
    if isinstance(x, float):
        return math.exp(abs(x) / 2.0)
    import numpy as np

    return np.exp(np.abs(x) / 2.0)


# the built-in chains, keyed by model; the half-line mixture dominates its
# exponential component everywhere. The half-line transition density from x
# divides by 2 (x + 1)^2, which overflows above x = 9.4e153, and a half-normal
# step moves x to |N(0, 1)| (x + 1), so from a start at most 1e100 the chain
# would need dozens of consecutive extreme draws to get there. The Metropolis
# chain's drift function is e^{+|x|/2}: the growing sign is the only one
# consistent with inf V = e off [-2, 2] and sup V = e^3 on [-6, 6].
CERTIFICATES = {
    "halfline": ChainCertificate(
        epsilon=0.5, n0=1, nu="2*exp(-2y)", space=Interval(0.0, 1e100),
        probes=((0.0, 50.0), (0.0, 50.0)),
    ),
    "rwm-laplace": ChainCertificate(
        epsilon=1.0 / (8.0 * math.e**2), n0=2, nu="half of Lebesgue on [-1,1]",
        small_set=Interval(-2.0, 2.0), step_radius=2.0, probes=((-2.0, 2.0), (-1.0, 1.0)),
        drift=ChainDrift(V=_exp_half_abs, text="exp(|x|/2)", lam=0.916, b=0.285, d=math.e,
                         region=Interval(-6.0, 6.0), pi_v=2.0, schedule=(120_000, 274)),
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
    stay exact), a float otherwise. Raises ``InputError`` when the exact
    power would exceed ``MAX_POWER_BITS``.
    """
    if not 0 < epsilon <= 1:
        raise InputError(f"epsilon must be in (0, 1], got {epsilon}")
    n0 = integer("n0", n0, 1)
    k = integer("n", n, 0) // n0
    _check_power(1 - epsilon, k, "n")
    return (1 - epsilon) ** k


def minorization_curve(epsilon, n0: int, n_max: int) -> BoundReport:
    """Evaluate the geometric bound on n = 0..n_max, as floats.

    Each value is the float nearest the exact bound: powers of a rational
    ``epsilon`` are formed exactly, one multiplication per step. Raises
    ``InputError`` for a curve of more than ``MAX_CURVE_POINTS`` points, or
    whose last exact power would exceed ``MAX_POWER_BITS``.
    """
    n0, n_max = integer("n0", n0, 1), integer("n_max", n_max, 0)
    minorization_bound(epsilon, n0, 0)  # validates epsilon
    if n_max + 1 > MAX_CURVE_POINTS:
        raise InputError(
            f"a curve of {n_max + 1} points exceeds the cap of {MAX_CURVE_POINTS}; "
            "pass a smaller n_max"
        )
    _check_power(1 - epsilon, n_max // n0, "n_max")
    ns = tuple(range(n_max + 1))
    powers = _geometric_powers(1 - epsilon, n_max // n0)
    return BoundReport(ns=ns, values=tuple(powers[n // n0] for n in ns))


def _power_bits(base, k):
    """About how many bits the larger of the numerator and denominator of
    the exact power base**k takes, from bit lengths alone; 0 for a base that
    is no exact rational (a float) and for a base of 0, whose powers cost
    nothing."""
    if not isinstance(base, numbers.Rational) or base == 0:
        return 0
    return k * max(base.numerator.bit_length(), base.denominator.bit_length())


def _check_power(base, k: int, option: str) -> None:
    """Refuse an exact power base**k beyond ``MAX_POWER_BITS``, before forming it."""
    if _power_bits(base, k) > MAX_POWER_BITS:
        raise InputError(
            f"the exact power (1 - epsilon)^(n // n0) at this {option} needs more than "
            f"MAX_POWER_BITS = {MAX_POWER_BITS} bits; pass a smaller {option} or a "
            "float epsilon"
        )


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
    n0 = integer("n0", n0, 1)
    minorization_bound(epsilon, n0, 0)  # validates epsilon
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
    bits = _power_bits(base, k_est)
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


class DriftMinorizationInputs(_Record):
    """Constants feeding the two-term drift/minorization bound."""

    __slots__ = ("epsilon", "n0", "alpha", "big_b", "expected_h")

    def __init__(
        self, epsilon: float, n0: int, alpha: float, big_b: float, expected_h: float
    ) -> None:
        if not 0 < epsilon < 1:
            raise InputError(f"epsilon must be in (0, 1), got {epsilon}")
        n0 = integer("n0", n0, 1)
        if not alpha > 1:
            raise InputError(f"alpha must be > 1, got {alpha}")
        if not big_b >= 1:
            raise InputError(f"B must be >= 1, got {big_b}")
        if not expected_h >= 1:
            raise InputError(f"expected h must be >= 1, got {expected_h}")
        self._fill(epsilon, n0, alpha, big_b, expected_h)


def bivariate_from_univariate(uni: UnivariateDrift, d: float) -> float:
    """The rate alpha of the pair drift h(x,y) = (V(x)+V(y))/2 of a one-chain
    drift: E[h(next pair)] <= h(x,y)/alpha off C x C.

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
    return 1.0 / alpha_inv


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


def sup_rh_via_containment(V: Callable[[float], float], region: Interval) -> float:
    """Bound sup of the post-failure expected h by the sup of V on ``region``:
    max(V(lo), V(hi)).

    Precondition: V is largest at an end of any interval, as every
    ``ChainDrift``'s V is. Valid when every small-set start lands inside
    ``region`` with probability one after the minorization lag, which the
    caller establishes (``contained_by_step_radius``).
    """
    return max(V(region.lo), V(region.hi))


def chain_drift(chain: ChainCertificate, lam: float | None = None,
                b: float | None = None) -> UnivariateDrift:
    """The one-chain drift of ``chain``, on its small set, with its own lam
    and b unless others are given."""
    drift = chain.drift
    return UnivariateDrift(
        V=drift.V,
        small_set=chain.small_set,
        lam=drift.lam if lam is None else lam,
        b=drift.b if b is None else b,
    )


def chain_drift_minorization_inputs(
    chain: ChainCertificate, expected_h: str = "analytic"
) -> tuple[DriftMinorizationInputs, dict]:
    """Assemble the two-term bound constants of a chain with a drift record.

    ``expected_h`` selects the analytic pi(V) of the record or the
    always-available fallback (1 + b/(1-lam))/2 + 1/2 via the stationary
    moment bound. Returns the inputs plus a provenance map for reports.
    Raises ``ContainmentError`` unless the chain's step radius keeps every
    path from the small set inside the drift's region for the certificate's
    lag.
    """
    drift = chain.drift
    small_set, region = chain.small_set, drift.region
    if not contained_by_step_radius(small_set, region, chain.step_radius, chain.n0):
        raise ContainmentError(
            f"{chain.n0} steps of at most {chain.step_radius} from [{small_set.lo}, "
            f"{small_set.hi}] can leave the containment region [{region.lo}, {region.hi}]"
        )
    alpha = bivariate_from_univariate(chain_drift(chain), d=drift.d)
    sup_rh = sup_rh_via_containment(drift.V, region)
    big_b = b_constant(chain.n0, alpha, chain.epsilon, sup_rh)
    if expected_h == "analytic":
        eh = drift.pi_v
        eh_source = "preset (analytic stationary mean)"
    elif expected_h == "fallback":
        eh = 0.5 + 0.5 * stationary_moment_bound(drift.lam, drift.b)
        eh_source = "computed (stationary moment bound)"
    else:
        raise InputError(f"expected_h must be 'analytic' or 'fallback', got {expected_h!r}")
    inputs = DriftMinorizationInputs(
        epsilon=chain.epsilon,
        n0=chain.n0,
        alpha=alpha,
        big_b=big_b,
        expected_h=eh,
    )
    provenance = {
        "lam": "preset",
        "b": "preset",
        "epsilon": "preset",
        "d": "preset (analytic infimum)",
        "alpha_inv": "computed (lam + b/(d+1))",
        "sup_rh": "computed (sup of h over the containment region)",
        "B": "computed",
        "expected_h": eh_source,
    }
    return inputs, provenance


def drift_minorization_log_terms(inputs: DriftMinorizationInputs, n: int, j: int) -> tuple[float, float]:
    """Log of the two terms of the drift/minorization bound at (n, j)."""
    n = integer("n", n, 1)
    j = integer("j", j, 1, n)
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
