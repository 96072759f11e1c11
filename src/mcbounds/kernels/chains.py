"""Built-in general-state-space chains as kernels with density evaluators.

Each constructor returns an immutable ``Kernel``. Densities, atom masses,
windows and breakpoints take numpy arrays and work per element. The chains
are sampled by ``laws`` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..bounds import RWM_STEP_RADIUS
from . import laws

__all__ = [
    "Kernel",
    "halfline_mixture_kernel",
    "metropolis_rwm_laplace",
]


@dataclass(frozen=True)
class Kernel:
    """A one-dimensional Markov transition kernel, by its density evaluators.

    ``transition_density`` gives the absolutely continuous part and
    ``atom_mass`` the rejection mass left at the current point; ``window``
    gives the two ends of each state's one-step support, ``breakpoints`` a row
    of integrand kinks per state. All four take numpy arrays of states.
    The chains are sampled only by ``laws`` (``hl_step``, ``rwm_step`` and
    their exact stationary draws).
    """

    transition_density: Callable
    atom_mass: Callable
    window: Callable
    breakpoints: Callable


def halfline_mixture_kernel() -> Kernel:
    """Equal mixture of Exponential(2) and half-normal with scale x + 1.

    No atom; the density dominates the exponential component everywhere, which
    is the whole-space overlap used by the geometric bound.
    """
    return Kernel(
        transition_density=laws.hl_density,
        atom_mass=lambda x: np.zeros(np.shape(x)),
        window=lambda x: (np.zeros(np.shape(x)), np.full(np.shape(x), math.inf)),
        breakpoints=lambda x: np.empty(np.shape(x) + (0,)),
    )


def metropolis_rwm_laplace() -> Kernel:
    """Random-walk Metropolis for the two-sided exponential target exp(-|x|).

    Proposals are uniform on [x-2, x+2]; rejection leaves an atom at x whose
    mass is known in closed form.
    """
    return Kernel(
        transition_density=laws.rwm_density,
        atom_mass=laws.rwm_atom,
        window=lambda x: (x - RWM_STEP_RADIUS, x + RWM_STEP_RADIUS),
        breakpoints=lambda x: np.stack([np.zeros(np.shape(x)), np.abs(x), -np.abs(x)], -1),
    )
