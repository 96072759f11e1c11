"""Built-in general-state-space chains as samplable kernels.

Each constructor returns an immutable ``Kernel`` (and, for the Metropolis
chains, the ``TargetDensity`` it preserves). Sampling is deterministic in
(state, seed): every sampler draws from its own
``np.random.default_rng(seed)``, takes all its variates in a few array calls
and leaves no global random state behind. Densities, atom masses, windows and
breakpoints take numpy arrays and work per element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..bounds import RWM_STEP_RADIUS
from ..errors import InputError, MathError
from . import laws

__all__ = [
    "Kernel",
    "TargetDensity",
    "halfline_mixture_kernel",
    "metropolis_rwm_laplace",
    "metropolis_point_process",
]

# rejection rounds of the particle direct sampler: at acceptance a a sample
# is still pending after r rounds with probability (1 - a)^r, so at
# c = d = 0.5 (a = 1.35 %) 120 000 samples all finish within the cap but with
# probability 2e-13; a target that needs more rounds has too little mass
# under the uniform law for this sampler
MAX_REJECTION_ROUNDS = 3000


@dataclass(frozen=True)
class TargetDensity:
    """Unnormalized target with a log evaluator; finite on the support interior."""

    log_unnormalized: Callable


@dataclass(frozen=True)
class Kernel:
    """A Markov transition kernel with optional density evaluators.

    ``transition_density`` gives the absolutely continuous part;
    ``atom_mass`` the rejection mass left at the current point (None when the
    kernel has no density in the required form). ``window`` and
    ``breakpoints`` describe the one-step support and the integrand kinks for
    quadrature. For the one-dimensional kernels all four take numpy arrays of
    states and work per element; ``atom_breakpoints`` lists the fixed states
    where ``atom_mass`` kinks. ``step_radius`` bounds one-step moves when
    finite. ``trajectory(x0, n, seed)``, ``one_step_samples(x, n, seed)`` and
    ``direct_samples(n, seed)`` each draw from ``np.random.default_rng(seed)``.
    """

    name: str
    dim: int
    trajectory: Callable
    transition_density: Callable | None = None
    atom_mass: Callable | None = None
    window: Callable | None = None
    breakpoints: Callable | None = None
    atom_breakpoints: tuple[float, ...] = ()
    step_radius: float | None = None
    one_step_samples: Callable | None = None
    direct_samples: Callable | None = None


def _hl_trajectory(x0: float, n: int, seed: int) -> np.ndarray:
    """The law of ``laws.hl_step``, with every variate drawn up front."""
    rng = np.random.default_rng(seed)
    pick = (rng.random(n) < 0.5).tolist()
    exponential = rng.exponential(0.5, n).tolist()
    half_normal = np.abs(rng.standard_normal(n)).tolist()
    out = [x0]
    x = x0
    for exp_branch, e, z in zip(pick, exponential, half_normal):
        x = e if exp_branch else z * (x + 1.0)
        out.append(x)
    return np.array(out)


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
        trajectory=trajectory,
        transition_density=laws.hl_density,
        atom_mass=lambda x: np.zeros(np.shape(x)),
        window=lambda x: (0.0, math.inf),
        breakpoints=lambda x: [],
        one_step_samples=one_step_samples,
    )


def _rwm_trajectory(x0: float, n: int, seed: int) -> np.ndarray:
    """n steps of ``laws.rwm_step``, bit for bit, from one draw of uniforms.

    Row i holds the two uniforms ``laws.rwm_step`` would take at step i, so
    the path equals n one-state calls of it on the same generator.
    """
    u = np.random.default_rng(seed).random((n, 2))
    shift = (4.0 * u[:, 0]).tolist()  # exact: a power-of-two multiple
    accept = u[:, 1].tolist()
    out = [x0]
    x = x0
    for s, a in zip(shift, accept):
        y = x + s - 2.0
        gap = abs(x) - abs(y)
        if gap >= 0.0 or a < math.exp(gap):
            x = y
        out.append(x)
    return np.array(out)


def _rwm_one_step_samples(x: float, n: int, seed: int) -> np.ndarray:
    return laws.rwm_step(np.random.default_rng(seed), np.full(n, x))


def metropolis_rwm_laplace() -> tuple[Kernel, TargetDensity]:
    """Random-walk Metropolis for the two-sided exponential target exp(-|x|).

    Proposals are uniform on [x-2, x+2]; rejection leaves an atom at x whose
    mass is known in closed form.
    """
    target = TargetDensity(log_unnormalized=lambda x: -abs(x))

    def trajectory(x0: float, n: int, seed: int) -> np.ndarray:
        return _rwm_trajectory(float(x0), int(n), int(seed))

    kernel = Kernel(
        name="rwm-laplace",
        dim=1,
        trajectory=trajectory,
        transition_density=laws.rwm_density,
        atom_mass=laws.rwm_atom,
        window=lambda x: (x - RWM_STEP_RADIUS, x + RWM_STEP_RADIUS),
        breakpoints=lambda x: [0.0, np.abs(x), -np.abs(x)],
        atom_breakpoints=(-1.0, 1.0),  # where x -+ 2 meets the kink at -+|x|
        step_radius=RWM_STEP_RADIUS,
        one_step_samples=lambda x, n, seed: _rwm_one_step_samples(
            float(x), int(n), int(seed)
        ),
    )
    return kernel, target


def _pp_trajectory(x0: np.ndarray, n: int, seed: int, c: float, d: float):
    """Independence Metropolis path and its number of accepted moves.

    Proposals do not depend on the state, so all n of them are drawn and
    scored in one pass; only the accept scan runs step by step.
    """
    rng = np.random.default_rng(seed)
    proposals = rng.random((n, 6))
    log_prop = laws.pp_log_target(proposals, c, d).tolist()
    log_u = np.log1p(-rng.random(n)).tolist()
    held = np.empty(n + 1, np.int64)  # row of [x0; proposals] held at step i
    held[0] = cur = 0
    log_cur = float(laws.pp_log_target(x0, c, d))
    accepts = 0
    for i, (lp, lu) in enumerate(zip(log_prop, log_u), start=1):
        gap = lp - log_cur
        if gap >= 0.0 or lu < gap:
            cur, log_cur = i, lp
            accepts += 1
        held[i] = cur
    return np.concatenate([x0[None, :], proposals])[held], accepts


def _pp_direct_samples(n: int, seed: int, c: float, d: float):
    """Independent draws from the target by rejection from the uniform law.

    The log density is <= 0 on the cube, so accepting a uniform proposal with
    probability exp(log density) is exact. Each round proposes once for every
    pending sample; returns the samples and the number of proposals.
    """
    rng = np.random.default_rng(seed)
    out = np.empty((n, 6))
    pending = np.arange(n)
    proposals = 0
    for _ in range(MAX_REJECTION_ROUNDS):
        if pending.size == 0:
            break
        prop = rng.random((6, pending.size)).T  # coordinate-major, as laws reads it
        accept = np.log1p(-rng.random(pending.size)) < laws.pp_log_target(prop, c, d)
        proposals += pending.size
        out[pending[accept]] = prop[accept]
        pending = pending[~accept]
    if pending.size:
        raise MathError(
            f"{pending.size} of {n} direct samples still pending after "
            f"{MAX_REJECTION_ROUNDS} rejection rounds: the target's acceptance "
            "is too small for rejection from the uniform law"
        )
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

    def log_target(states: np.ndarray):
        return laws.pp_log_target(states, c, d)

    target = TargetDensity(log_unnormalized=log_target)

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

    def density(x: np.ndarray, y: np.ndarray):
        # uniform proposal density is 1 on the cube; every move out of a
        # zero-density (coincident) state is accepted, fmin drops the NaN of
        # -inf - -inf
        with np.errstate(invalid="ignore"):
            return np.fmin(1.0, np.exp(log_target(y) - log_target(x)))

    kernel = Kernel(
        name="point-process",
        dim=6,
        trajectory=trajectory,
        transition_density=density,
        atom_mass=None,
        direct_samples=direct_samples,
    )
    return kernel, target
