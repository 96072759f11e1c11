"""Transition laws of the built-in kernels, on numpy arrays.

Densities, atom masses and one-step samplers of the one-dimensional chains,
each evaluated per element of its (broadcast) array arguments, and the
particle chain's target on arrays of states. The kernels, the quadrature
verifiers and the coupling engines all use these functions; there is no
second, scalar copy. Samplers draw from the ``np.random.Generator`` they are
given.
"""

from __future__ import annotations

import math

import numpy as np

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
    """Integral of p(x,w)p(w,z) dw, exactly, piece by piece.

    log p(x,w) + log p(w,z) is piecewise linear in w with breakpoints only at
    0, +-|x|, +-|z|, so each piece integrates in closed form. Breakpoints
    outside (lo, hi) move to hi, where they bound empty pieces.
    """
    x, z = np.broadcast_arrays(np.asarray(x, float), np.asarray(z, float))
    lo = np.maximum(x, z) - 2.0
    hi = np.minimum(x, z) + 2.0
    ax, az = np.abs(x), np.abs(z)
    inner = np.stack([np.zeros_like(ax), ax, -ax, az, -az])
    inner = np.where((lo < inner) & (inner < hi), inner, hi)
    pts = np.sort(np.concatenate([lo[None], inner, hi[None]]), axis=0)
    left, right = pts[:-1], pts[1:]
    width = right - left

    def log_integrand(w):
        return np.minimum(0.0, ax - np.abs(w)) + np.minimum(0.0, np.abs(w) - az)

    fu, fv = log_integrand(left), log_integrand(right)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = (fv - fu) / width
        piece = np.where(
            np.abs(slope) < 1e-12, np.exp(fu) * width, (np.exp(fv) - np.exp(fu)) / slope
        )
    total = np.where(width < 1e-15, 0.0, piece).sum(axis=0)
    return np.where(lo < hi, total, 0.0) / 16.0


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


def rwm_two_steps(rng, x: np.ndarray) -> np.ndarray:
    return rwm_step(rng, rwm_step(rng, x))


# ---------------------------------------------------------------------------
# three-particle repulsion process on [0,1]^2 per particle, states flattened
# to (x1, y1, x2, y2, x3, y3)


def pp_log_target(states, c: float, d: float):
    """Log unnormalized density -c * sum |x_i| - d * sum 1/|x_i - x_j|.

    ``states`` has shape (..., 6); the result has shape (...). Coincident
    particles get log density -inf, so proposals hitting them are always
    rejected.
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
