"""Scalar transition math and seeded draws for the built-in kernels.

Closed-form densities, atom masses and one-step samplers, evaluated one
point at a time: the quadrature verifiers and the kernels' trajectory
samplers call these. The coupling engines use array forms of the same
formulas (``coupling.engines``), which the tests compare with these.
Functions that consume randomness draw exclusively from ``np.random`` (the
ambient legacy stream, seeded by the caller); uniforms are mapped through
``1 - u`` before any ``log`` so that 0 never reaches it.
"""

from __future__ import annotations

import math

import numpy as np

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# half-line mixture: equal mix of a rate-2 exponential and a half-normal
# with scale x + 1; fully absolutely continuous (no atom)

def hl_density(x: float, y: float) -> float:
    """Transition density at y >= 0 from state x >= 0."""
    scale = x + 1.0
    return math.exp(-2.0 * y) + math.exp(-y * y / (2.0 * scale * scale)) / (
        SQRT_TWO_PI * scale
    )


def hl_nu_density(y: float) -> float:
    """Rate-2 exponential density, the shared overlap component."""
    return 2.0 * math.exp(-2.0 * y)


def std_normal() -> float:
    u1 = 1.0 - np.random.random()
    u2 = np.random.random()
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def exp_rate2() -> float:
    return -0.5 * math.log(1.0 - np.random.random())


def hl_draw(x: float) -> float:
    """One transition of the half-line mixture chain."""
    if np.random.random() < 0.5:
        return exp_rate2()
    return abs(std_normal()) * (x + 1.0)


# ---------------------------------------------------------------------------
# random-walk Metropolis on the real line with target exp(-|x|):
# uniform proposal on [x-2, x+2], acceptance min(1, exp(|x|-|y|))

def rwm_accept_prob(x: float, y: float) -> float:
    return min(1.0, math.exp(abs(x) - abs(y)))


def rwm_density(x: float, y: float) -> float:
    """Absolutely continuous part of the one-step transition."""
    if abs(y - x) > 2.0:
        return 0.0
    return 0.25 * rwm_accept_prob(x, y)


def rwm_atom(x: float) -> float:
    """Rejection mass left at x; closed form by integrating the acceptance."""
    t = abs(x)
    if t >= 1.0:
        return 0.25 * (1.0 + math.exp(-2.0))
    return 1.0 - 0.25 * (2.0 * t + 2.0 - math.exp(2.0 * t - 2.0) - math.exp(-2.0))


def rwm_conv2(x: float, z: float) -> float:
    """Integral of p(x,w)p(w,z) dw, exactly, piece by piece.

    log p(x,w) + log p(w,z) is piecewise linear in w with breakpoints only at
    0, +-|x|, +-|z|, so each piece integrates in closed form.
    """
    lo = max(x, z) - 2.0
    hi = min(x, z) + 2.0
    if lo >= hi:
        return 0.0
    ax = abs(x)
    az = abs(z)
    pts = np.empty(7)
    pts[0] = lo
    count = 1
    for w in (0.0, ax, -ax, az, -az):
        if lo < w < hi:
            pts[count] = w
            count += 1
    pts[count] = hi
    count += 1
    pts[:count].sort()
    total = 0.0
    for k in range(count - 1):
        u = pts[k]
        v = pts[k + 1]
        if v - u < 1e-15:
            continue
        fu = min(0.0, ax - abs(u)) + min(0.0, abs(u) - az)
        fv = min(0.0, ax - abs(v)) + min(0.0, abs(v) - az)
        slope = (fv - fu) / (v - u)
        if abs(slope) < 1e-12:
            total += math.exp(fu) * (v - u)
        else:
            total += (math.exp(fv) - math.exp(fu)) / slope
    return total / 16.0


def rwm_two_step_density(x: float, z: float) -> float:
    """Absolutely continuous part of the two-step transition.

    Continuous-continuous convolution plus the reject-then-move and
    move-then-reject paths; the only true atom (both steps rejected) sits at
    x itself and is excluded.
    """
    p_xz = rwm_density(x, z)
    return rwm_conv2(x, z) + rwm_atom(x) * p_xz + p_xz * rwm_atom(z)


def rwm_step(x: float) -> float:
    """One Metropolis transition."""
    y = x + 4.0 * np.random.random() - 2.0
    gap = abs(x) - abs(y)
    if gap >= 0.0:
        return y
    if np.random.random() < math.exp(gap):
        return y
    return x


# ---------------------------------------------------------------------------
# three-particle repulsion process on [0,1]^2 per particle, states flattened
# to length-6 arrays (x1, y1, x2, y2, x3, y3)

def pp_log_target(state: np.ndarray, c: float, d: float) -> float:
    """Log unnormalized density: -c * sum |x_i| - d * sum 1/|x_i - x_j|.

    Coincident particles get log density -inf, so proposals hitting them are
    always rejected.
    """
    total = 0.0
    for i in range(3):
        xi = state[2 * i]
        yi = state[2 * i + 1]
        total -= c * math.sqrt(xi * xi + yi * yi)
    for i in range(3):
        for j in range(i + 1, 3):
            dx = state[2 * i] - state[2 * j]
            dy = state[2 * i + 1] - state[2 * j + 1]
            r = math.sqrt(dx * dx + dy * dy)
            if r == 0.0:
                return -math.inf
            total -= d / r
    return total
