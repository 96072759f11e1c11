"""Built-in general-state-space chains as samplable kernels.

Each constructor returns an immutable ``Kernel`` (and, for the Metropolis
chains, the ``TargetDensity`` it preserves). Sampling is deterministic in
(state, seed): trajectory samplers reseed ``np.random`` themselves, one-step
samplers draw all their samples at once from ``np.random.default_rng(seed)``,
and the scalar ``step`` functions consume whatever stream the caller has
seeded. Densities, atom masses, windows and breakpoints take numpy arrays and
work per element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import InputError
from . import laws, scalars

__all__ = [
    "HALFLINE_OVERLAP_EPSILON",
    "Kernel",
    "RWM_OVERLAP_EPSILON",
    "RWM_SMALL_SET",
    "TargetDensity",
    "halfline_mixture_kernel",
    "metropolis_rwm_laplace",
    "metropolis_point_process",
    "point_process_overlap",
]

# published certificates of the built-in chains: the half-line mixture
# dominates its exponential component everywhere with mass 1/2; the
# Metropolis chain overlaps at lag 2 from [-2, 2] against half of Lebesgue
# on [-1, 1]
HALFLINE_OVERLAP_EPSILON = 0.5
RWM_SMALL_SET = (-2.0, 2.0)
RWM_OVERLAP_EPSILON = 1.0 / (8.0 * math.e**2)


@dataclass(frozen=True)
class TargetDensity:
    """Unnormalized target with a log evaluator; finite on the support interior."""

    log_unnormalized: Callable
    support: str


@dataclass(frozen=True)
class Kernel:
    """A Markov transition kernel with optional density evaluators.

    ``transition_density`` gives the absolutely continuous part;
    ``atom_mass`` the rejection mass left at the current point (None when the
    kernel has no density in the required form). ``window`` and
    ``breakpoints`` describe the one-step support and the integrand kinks for
    quadrature. For the one-dimensional kernels all four take numpy arrays of
    states and work per element. ``step_radius`` bounds one-step moves when
    finite.
    """

    name: str
    dim: int
    support: str
    step: Callable | None
    trajectory: Callable
    transition_density: Callable | None = None
    atom_mass: Callable | None = None
    window: Callable | None = None
    breakpoints: Callable | None = None
    step_radius: float | None = None
    one_step_samples: Callable | None = None
    direct_samples: Callable | None = None


def _hl_trajectory(x0: float, n: int, seed: int) -> np.ndarray:
    np.random.seed(seed)
    out = np.empty(n + 1)
    out[0] = x0
    x = x0
    for i in range(1, n + 1):
        x = scalars.hl_draw(x)
        out[i] = x
    return out


def _hl_one_step_samples(x: float, n: int, seed: int) -> np.ndarray:
    return laws.hl_step(np.random.default_rng(seed), np.full(n, x))


def halfline_mixture_kernel() -> Kernel:
    """Equal mixture of Exponential(2) and half-normal with scale x + 1.

    No atom; the density dominates the exponential component everywhere, which
    is the whole-space overlap used by the geometric bound.
    """

    def trajectory(x0: float, n: int, seed: int) -> np.ndarray:
        if x0 < 0:
            raise InputError(f"half-line state must be >= 0, got {x0}")
        return _hl_trajectory(float(x0), int(n), int(seed))

    def one_step_samples(x: float, n: int, seed: int) -> np.ndarray:
        if x < 0:
            raise InputError(f"half-line state must be >= 0, got {x}")
        return _hl_one_step_samples(float(x), int(n), int(seed))

    return Kernel(
        name="halfline-mixture",
        dim=1,
        support="[0, inf)",
        step=scalars.hl_draw,
        trajectory=trajectory,
        transition_density=laws.hl_density,
        atom_mass=lambda x: np.zeros(np.shape(x)),
        window=lambda x: (0.0, math.inf),
        breakpoints=lambda x: [],
        one_step_samples=one_step_samples,
    )


def _rwm_trajectory(x0: float, n: int, seed: int) -> np.ndarray:
    np.random.seed(seed)
    out = np.empty(n + 1)
    out[0] = x0
    x = x0
    for i in range(1, n + 1):
        x = scalars.rwm_step(x)
        out[i] = x
    return out


def _rwm_one_step_samples(x: float, n: int, seed: int) -> np.ndarray:
    return laws.rwm_step(np.random.default_rng(seed), np.full(n, x))


def metropolis_rwm_laplace() -> tuple[Kernel, TargetDensity]:
    """Random-walk Metropolis for the two-sided exponential target exp(-|x|).

    Proposals are uniform on [x-2, x+2]; rejection leaves an atom at x whose
    mass is known in closed form.
    """
    target = TargetDensity(log_unnormalized=lambda x: -abs(x), support="R")

    def trajectory(x0: float, n: int, seed: int) -> np.ndarray:
        return _rwm_trajectory(float(x0), int(n), int(seed))

    kernel = Kernel(
        name="rwm-laplace",
        dim=1,
        support="R",
        step=scalars.rwm_step,
        trajectory=trajectory,
        transition_density=laws.rwm_density,
        atom_mass=laws.rwm_atom,
        window=lambda x: (x - 2.0, x + 2.0),
        breakpoints=lambda x: [0.0, np.abs(x), -np.abs(x)],
        step_radius=2.0,
        one_step_samples=lambda x, n, seed: _rwm_one_step_samples(
            float(x), int(n), int(seed)
        ),
    )
    return kernel, target


def _pp_trajectory(x0: np.ndarray, n: int, seed: int, c: float, d: float):
    np.random.seed(seed)
    out = np.empty((n + 1, 6))
    out[0] = x0
    cur = x0.copy()
    log_cur = scalars.pp_log_target(cur, c, d)
    prop = np.empty(6)
    accepts = 0
    for i in range(1, n + 1):
        for k in range(6):
            prop[k] = np.random.random()
        log_prop = scalars.pp_log_target(prop, c, d)
        gap = log_prop - log_cur
        if gap >= 0.0 or math.log(1.0 - np.random.random()) < gap:
            for k in range(6):
                cur[k] = prop[k]
            log_cur = log_prop
            accepts += 1
        out[i] = cur
    return out, accepts


def _pp_direct_samples(n: int, seed: int, c: float, d: float):
    """Independent draws from the target by rejection from the uniform law.

    The log density is <= 0 on the cube, so accepting a uniform proposal with
    probability exp(log density) is exact.
    """
    np.random.seed(seed)
    out = np.empty((n, 6))
    prop = np.empty(6)
    proposals = 0
    for i in range(n):
        while True:
            proposals += 1
            for k in range(6):
                prop[k] = np.random.random()
            log_t = scalars.pp_log_target(prop, c, d)
            if math.log(1.0 - np.random.random()) < log_t:
                for k in range(6):
                    out[i, k] = prop[k]
                break
    return out, proposals


def metropolis_point_process(c: float, d: float) -> tuple[Kernel, TargetDensity]:
    """Independence Metropolis for three mutually repelling planar particles.

    State is the flattened configuration in [0,1]^6; proposals are uniform on
    the cube regardless of the current state. Coincident particles have zero
    target density: such proposals are always rejected, and a coincident
    starting configuration is rejected as invalid input.
    """
    if not (c > 0 and d > 0):
        raise InputError(f"need c > 0 and d > 0, got c={c}, d={d}")

    def log_target(state: np.ndarray) -> float:
        return float(scalars.pp_log_target(np.asarray(state, dtype=float), c, d))

    target = TargetDensity(log_unnormalized=log_target, support="[0,1]^6")

    def validate(state: np.ndarray) -> np.ndarray:
        state = np.asarray(state, dtype=float)
        if state.shape != (6,):
            raise InputError(f"state must be a flat 6-vector, got {state.shape}")
        if np.any(state < 0.0) or np.any(state > 1.0):
            raise InputError("state outside the unit cube")
        if math.isinf(log_target(state)):
            raise InputError("coincident particles are an invalid starting state")
        return state

    def trajectory(x0: np.ndarray, n: int, seed: int):
        return _pp_trajectory(validate(x0), int(n), int(seed), c, d)

    def direct_samples(n: int, seed: int):
        return _pp_direct_samples(int(n), int(seed), c, d)

    def density(x: np.ndarray, y: np.ndarray) -> float:
        # uniform proposal density is 1 on the cube
        return min(1.0, math.exp(log_target(y) - log_target(x)))

    kernel = Kernel(
        name="point-process",
        dim=6,
        support="[0,1]^6",
        step=None,
        trajectory=trajectory,
        transition_density=density,
        atom_mass=None,
        direct_samples=direct_samples,
    )
    return kernel, target


def point_process_overlap(c: float, d: float) -> float:
    """Published whole-space overlap constant for the particle chain."""
    if not (c > 0 and d > 0):
        raise InputError(f"need c > 0 and d > 0, got c={c}, d={d}")
    return 0.48 * math.exp(-4.25 * c - 9.88 * d)
