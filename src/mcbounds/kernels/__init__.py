"""Continuous-state chains and numeric condition verification.

Import from the submodules: ``laws`` (array densities and samplers),
``chains`` (the built-in kernels) and ``verify`` (quadrature checks). The
package itself loads none of them, so the coupling engines, which need only
``laws``, do not load the other two.
"""
