"""Continuous-state chains and numeric condition verification.

Import from the submodules: ``laws`` (array densities, the samplers, the
particle chain's log target and ``CHAINS``, one record per built-in
one-dimensional chain) and ``verify`` (quadrature checks, which take a
``CHAINS`` record as their kernel). The package itself loads neither, so the
coupling engines, which need only ``laws``, do not load ``verify``.
"""
