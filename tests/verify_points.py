"""One-point forms of the verifier's batched integrals, for the tests that
use them as oracles."""

import numpy as np

from mcbounds.kernels import verify


def expected_value_after_step(kernel, V, x):
    """E[V(next) | x] at one state, with its quadrature error estimate."""
    value, err = verify._expected_values(kernel, V, np.array([float(x)]))
    return float(value[0]), float(err[0])


def two_step_density(kernel, x, y):
    """The absolutely continuous two-step density at one pair (x, y), with its
    quadrature error estimate."""
    value, err = verify._two_step_densities(kernel, np.array([float(x)]), np.array([float(y)]))
    return float(value[0]), float(err[0])
