"""Scalar seeded draws and the particle target, one point at a time.

The kernels' trajectory samplers step through these. Functions that consume
randomness draw exclusively from ``np.random`` (the ambient legacy stream,
seeded by the caller); uniforms are mapped through ``1 - u`` before any
``log`` so that 0 never reaches it. Densities and the array samplers live in
``laws``.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# half-line mixture: equal mix of a rate-2 exponential and a half-normal
# with scale x + 1

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
