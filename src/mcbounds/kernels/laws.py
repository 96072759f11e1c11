"""Transition laws of the built-in kernels, on numpy arrays.

Densities, atom masses, one-step samplers and exact stationary samplers of
the one-dimensional chains, each evaluated per element of its (broadcast)
array arguments, and the particle chain's target on arrays of states.
``CHAINS`` gathers each one-dimensional chain into one ``Chain`` record,
the numpy half of its record in ``bounds.CERTIFICATES``, under the same key:
the quadrature verifiers read its densities and the coupling engine its
samplers, so these are the only samplers of the half-line and Metropolis
chains. Samplers draw from the ``np.random.Generator`` they are given.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from ..bounds import CERTIFICATES

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# half-line mixture: equal mix of a rate-2 exponential and a half-normal
# with scale x + 1; fully absolutely continuous (no atom)


def hl_density(x, y):
    """Transition density at y >= 0 from state x >= 0."""
    scale = x + 1.0
    return np.exp(-2.0 * y) + np.exp(-y * y / (2.0 * scale * scale)) / (SQRT_TWO_PI * scale)


def hl_nu_density(y):
    """Rate-2 exponential density, the shared overlap component."""
    return 2.0 * np.exp(-2.0 * y)


def hl_step(rng, x: np.ndarray) -> np.ndarray:
    """One transition from each state: Exponential(2) or |N(0, (x+1)^2)|, 1:1."""
    n = x.size
    exponential = rng.random(n) < 0.5
    return np.where(
        exponential, rng.exponential(0.5, n), np.abs(rng.standard_normal(n)) * (x + 1.0)
    )


def hl_stationary(rng, m: int) -> np.ndarray:
    """m exact draws from the half-line chain's stationary law.

    The kernel splits as P(x, .) = eps nu + (1 - eps) R(x, .): eps = 1/2,
    nu = Exponential(2) and lag 1 on the whole space, the overlap recorded as
    ``bounds.CERTIFICATES["halfline"]``, and R(x, .) the half-normal with
    scale x + 1. So pi = sum_k eps (1 - eps)^k nu R^k (Nummelin's split
    chain): a nu draw, then K ~ Geometric(eps) - 1 residual steps, run in
    masked rounds up to the largest K (about log2 m rounds).
    """
    k = rng.geometric(0.5, m) - 1
    x = rng.exponential(0.5, m)
    for r in range(int(k.max(initial=0))):
        live = np.flatnonzero(k > r)
        x[live] = np.abs(rng.standard_normal(live.size)) * (x[live] + 1.0)
    return x


# ---------------------------------------------------------------------------
# random-walk Metropolis on the real line with target exp(-|x|):
# uniform proposal on [x-2, x+2], acceptance min(1, exp(|x|-|y|))


def rwm_density(x, y):
    """Absolutely continuous part of the one-step transition."""
    accept = np.exp(np.minimum(0.0, np.abs(x) - np.abs(y)))
    return np.where(np.abs(y - x) > 2.0, 0.0, 0.25 * accept)


def rwm_atom(x):
    """Rejection mass left at x; closed form by integrating the acceptance."""
    t = np.minimum(np.abs(x), 1.0)
    inside = 1.0 - 0.25 * (2.0 * t + 2.0 - np.exp(2.0 * t - 2.0) - math.exp(-2.0))
    return np.where(t >= 1.0, 0.25 * (1.0 + math.exp(-2.0)), inside)


def rwm_conv2(x, z):
    """Integral of p(x,w)p(w,z) dw, in closed form.

    With a = |x|, b = |z|, m = min(a, b) and M = max(a, b) (``big``), the
    integrand on the overlap [lo, hi] of the two proposal windows is
    exp(min(|w| - b, a - |w|, m - b)) / 16: a tent in |w| with a flat top
    between m and M. Its integral over [0, t], t >= 0, is F(t), the rise to
    m, the flat top and the fall from M; sign(w) F(|w|) is an antiderivative
    in w. Every exponent is <= 0, so nothing overflows.
    """
    x, z = np.asarray(x, float), np.asarray(z, float)
    lo = np.maximum(x, z) - 2.0
    hi = np.minimum(x, z) + 2.0
    a, b = np.abs(x), np.abs(z)
    m, big = np.minimum(a, b), np.maximum(a, b)
    top = np.exp(m - b)

    def antiderivative(w):
        t = np.abs(w)
        rise = np.exp(np.minimum(t, m) - b) - np.exp(-b)
        fall = top - np.exp(a - np.maximum(t, big))
        return np.sign(w) * (rise + top * (np.clip(t, m, big) - m) + fall)

    return np.where(lo < hi, antiderivative(hi) - antiderivative(lo), 0.0) / 16.0


def rwm_two_step_density(x, z):
    """Absolutely continuous part of the two-step transition.

    Continuous-continuous convolution plus the reject-then-move and
    move-then-reject paths; the only true atom (both steps rejected) sits at
    x itself and is excluded.
    """
    p_xz = rwm_density(x, z)
    return rwm_conv2(x, z) + rwm_atom(x) * p_xz + p_xz * rwm_atom(z)


def rwm_nu_density(y):
    """Overlap measure of the lag-2 certificate: half of Lebesgue on [-1, 1]."""
    return np.where(np.abs(y) <= 1.0, 0.5, 0.0)


def rwm_step(rng, x: np.ndarray) -> np.ndarray:
    """One Metropolis transition from each state (uniform proposal on x +- 2)."""
    u = rng.random((2, x.size))
    y = x + 4.0 * u[0] - 2.0
    gap = np.abs(x) - np.abs(y)
    return np.where((gap >= 0.0) | (u[1] < np.exp(gap)), y, x)


def rwm_stationary(rng, m: int) -> np.ndarray:
    """m exact draws from the Metropolis target exp(-|x|) / 2, Laplace(0, 1)."""
    return rng.laplace(0.0, 1.0, m)


class Chain(NamedTuple):
    """A built-in one-dimensional chain, by its densities and its samplers.

    The first four fields are the kernel the quadrature verifiers read, each
    taking numpy arrays of states: the absolutely continuous part of a step,
    the rejection mass left at the current point, the two ends of each
    state's one-step support and a row of integrand kinks per state. The
    n0-step density and the overlap density nu are those of the chain's
    certificate in ``bounds.CERTIFICATES``, split as
    P^n0(x, .) = eps nu + (1 - eps) R(x, .); the coupling engine draws from
    the last three fields, and its lattice step is n0 one-step draws.
    """

    transition_density: Callable  # (x, y)
    atom_mass: Callable  # (x)
    window: Callable  # (x): (lo, hi)
    breakpoints: Callable  # (x): shape x.shape + (kinks,)
    step_density: Callable  # (x, z): absolutely continuous part of the n0-step law
    nu_density: Callable  # (y)
    stationary: Callable  # (rng, m): m exact draws from pi
    step: Callable  # (rng, x): one kernel step from each state
    nu_draw: Callable  # (rng, m): m draws from nu


# keyed like bounds.CERTIFICATES, whose split each record's densities follow
CHAINS = {
    "halfline": Chain(
        transition_density=hl_density,
        atom_mass=lambda x: np.zeros(np.shape(x)),
        window=lambda x: (np.zeros(np.shape(x)), np.full(np.shape(x), math.inf)),
        breakpoints=lambda x: np.empty(np.shape(x) + (0,)),
        step_density=hl_density,
        nu_density=hl_nu_density,
        stationary=hl_stationary,
        step=hl_step,
        nu_draw=lambda rng, m: rng.exponential(0.5, m),
    ),
    "rwm-laplace": Chain(
        transition_density=rwm_density,
        atom_mass=rwm_atom,
        window=lambda x, r=CERTIFICATES["rwm-laplace"].step_radius: (x - r, x + r),
        breakpoints=lambda x: np.stack([np.zeros(np.shape(x)), np.abs(x), -np.abs(x)], -1),
        step_density=rwm_two_step_density,
        nu_density=rwm_nu_density,
        stationary=rwm_stationary,
        step=rwm_step,
        nu_draw=lambda rng, m: 2.0 * rng.random(m) - 1.0,
    ),
}


# ---------------------------------------------------------------------------
# three-particle repulsion process on [0,1]^2 per particle, states flattened
# to (x1, y1, x2, y2, x3, y3)


def pp_log_target(states, c: float, d: float):
    """Log unnormalized density -c * sum |x_i| - d * sum 1/|x_i - x_j|.

    ``states`` has shape (..., 6); the result has shape (...). Coincident
    particles get log density -inf. This is the target of the independence
    Metropolis chain whose overlap constant ``bounds.point_process_overlap``
    gives in closed form.
    """
    # coordinates first: one contiguous row per coordinate
    p = np.ascontiguousarray(np.moveaxis(np.asarray(states, dtype=float), -1, 0))
    x, y = p[0::2], p[1::2]
    total = -c * np.sqrt(x * x + y * y).sum(axis=0)
    with np.errstate(divide="ignore"):
        for i, j in ((0, 1), (0, 2), (1, 2)):
            dx, dy = x[i] - x[j], y[i] - y[j]
            total -= d / np.sqrt(dx * dx + dy * dy)
    return total
