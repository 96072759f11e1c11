"""Scalar transition densities and the particle target, kept for tests only.

One point at a time on ``math``: the straightforward forms of the array
functions in ``mcbounds.kernels.laws``. The tests require the two to agree
per element, and use these as independent integrands for
``scipy.integrate.quad``.
"""

from __future__ import annotations

import math

import numpy as np

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def hl_density(x: float, y: float) -> float:
    """Half-line mixture transition density at y >= 0 from state x >= 0."""
    scale = x + 1.0
    return math.exp(-2.0 * y) + math.exp(-y * y / (2.0 * scale * scale)) / (
        SQRT_TWO_PI * scale
    )


def hl_nu_density(y: float) -> float:
    return 2.0 * math.exp(-2.0 * y)


def rwm_accept_prob(x: float, y: float) -> float:
    return min(1.0, math.exp(abs(x) - abs(y)))


def rwm_density(x: float, y: float) -> float:
    """Absolutely continuous part of the Metropolis one-step transition."""
    if abs(y - x) > 2.0:
        return 0.0
    return 0.25 * rwm_accept_prob(x, y)


def rwm_atom(x: float) -> float:
    t = abs(x)
    if t >= 1.0:
        return 0.25 * (1.0 + math.exp(-2.0))
    return 1.0 - 0.25 * (2.0 * t + 2.0 - math.exp(2.0 * t - 2.0) - math.exp(-2.0))


def rwm_conv2(x: float, z: float) -> float:
    """Integral of p(x,w)p(w,z) dw in closed form, piece by piece."""
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
    p_xz = rwm_density(x, z)
    return rwm_conv2(x, z) + rwm_atom(x) * p_xz + p_xz * rwm_atom(z)


def rwm_nu_density(y: float) -> float:
    return 0.5 if abs(y) <= 1.0 else 0.0


def pp_log_target(state, c: float, d: float) -> float:
    """Particle log target -c * sum |x_i| - d * sum 1/|x_i - x_j|, -inf on
    coincident particles; ``state`` is (x1, y1, x2, y2, x3, y3)."""
    total = 0.0
    for i in range(3):
        total -= c * math.sqrt(state[2 * i] ** 2 + state[2 * i + 1] ** 2)
    for i in range(3):
        for j in range(i + 1, 3):
            r = math.hypot(state[2 * i] - state[2 * j], state[2 * i + 1] - state[2 * j + 1])
            if r == 0.0:
                return -math.inf
            total -= d / r
    return total
