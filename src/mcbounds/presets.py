"""Built-in constant presets wiring the full bound pipelines.

Each preset bundles the published drift constants for one built-in chain,
read together with the chain's overlap certificate in
``bounds.CERTIFICATES``, so that reproducing the headline numbers is a
one-flag operation in the CLI. Derived quantities (pair-drift rate, containment supremum, the B
constant) are computed here from the primitive constants, with provenance
tags for the reports.

The module imports neither numpy nor the kernels, so ``bound t2`` runs
without them: the containment of the Metropolis chain follows from its step
radius alone, and a region that argument does not settle is refused.
"""

from __future__ import annotations

import math

from .bounds import (
    CERTIFICATES,
    RWM_STEP_RADIUS,
    Interval,
    DriftMinorizationInputs,
    UnivariateDrift,
    b_constant,
    bivariate_from_univariate,
    contained_by_step_radius,
    stationary_moment_bound,
    sup_rh_via_containment,
)
from .errors import ContainmentError, InputError

__all__ = [
    "LAPLACE_B",
    "LAPLACE_D",
    "LAPLACE_EXPECTED_H",
    "LAPLACE_LAM",
    "LAPLACE_REGION",
    "laplace_drift",
    "laplace_drift_V",
    "laplace_drift_minorization_inputs",
]

# Metropolis chain with target exp(-|x|): published drift constants; its
# overlap certificate is CERTIFICATES["rwm-laplace"], whose small set the
# drift shares. The drift function is e^{+|x|/2}: the growing sign is the
# only one consistent with inf V = e off [-2, 2] and sup V = e^3 on [-6, 6].
_CERT = CERTIFICATES["rwm-laplace"]
LAPLACE_LAM = 0.916
LAPLACE_B = 0.285
LAPLACE_D = math.e  # inf of V outside the small set, analytic
LAPLACE_REGION = Interval(-6.0, 6.0)  # two steps from the small set stay inside
# E[h] with both chains stationary, analytic; from x0 = 0 it is (V(0) + pi V)/2 = 1.5
LAPLACE_EXPECTED_H = 2.0


def laplace_drift_V(x):
    """e^{|x|/2}: per element on numpy arrays, a builtin float on a float.

    The bound calculators evaluate V on builtin floats, point by point, and
    their reports keep the bytes that ``math.exp`` gives.
    """
    if isinstance(x, float):
        return math.exp(abs(x) / 2.0)
    import numpy as np

    return np.exp(np.abs(x) / 2.0)


def laplace_drift(lam: float = LAPLACE_LAM, b: float = LAPLACE_B) -> UnivariateDrift:
    return UnivariateDrift(V=laplace_drift_V, small_set=_CERT.small_set, lam=lam, b=b)


def laplace_drift_minorization_inputs(
    expected_h: str = "analytic",
) -> tuple[DriftMinorizationInputs, dict]:
    """Assemble the two-term bound constants for the Metropolis chain.

    ``expected_h`` selects the analytic ``LAPLACE_EXPECTED_H`` or the
    always-available fallback (1 + b/(1-lam))/2 + 1/2 via the stationary
    moment bound. Returns the inputs plus a provenance map for reports.
    Raises ``ContainmentError`` unless the step radius keeps every path from
    the small set inside ``LAPLACE_REGION`` for the certificate's lag.
    """
    small_set, region = _CERT.small_set, LAPLACE_REGION
    if not contained_by_step_radius(small_set, region, RWM_STEP_RADIUS, _CERT.n0):
        raise ContainmentError(
            f"{_CERT.n0} steps of at most {RWM_STEP_RADIUS} from [{small_set.lo}, "
            f"{small_set.hi}] can leave the containment region [{region.lo}, {region.hi}]"
        )
    drift = laplace_drift()
    pair = bivariate_from_univariate(drift, d=LAPLACE_D)
    sup_rh = sup_rh_via_containment(drift.V, region, probe_step=0.05)
    big_b = b_constant(_CERT.n0, pair.alpha, _CERT.epsilon, sup_rh)
    if expected_h == "analytic":
        eh = LAPLACE_EXPECTED_H
        eh_source = "preset (analytic stationary mean)"
    elif expected_h == "fallback":
        eh = 0.5 + 0.5 * stationary_moment_bound(LAPLACE_LAM, LAPLACE_B)
        eh_source = "computed (stationary moment bound)"
    else:
        raise InputError(f"expected_h must be 'analytic' or 'fallback', got {expected_h!r}")
    inputs = DriftMinorizationInputs(
        epsilon=_CERT.epsilon,
        n0=_CERT.n0,
        alpha=pair.alpha,
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
