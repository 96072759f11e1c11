"""Continuous-state chains and numeric condition verification.

Import from the submodules: ``laws`` (array densities, the samplers and the
particle chain's log target), ``chains`` (the built-in one-dimensional
kernels, by their density evaluators) and ``verify`` (quadrature checks). The
package itself loads none of them, so the coupling engines, which need only
``laws``, do not load the other two.
"""
