"""Solver for the 1-D fractional Ginzburg-Landau equation.

Second-order weighted-shifted Grunwald discretization of the fractional
Laplacian in space, implicit midpoint rule in time, with built-in
verification of the operator's discrete spectral properties and the
scheme's energy balance.

This namespace is the run API. Every other name lives only in the module
that defines it: ``fgle.stepper`` (the run), ``fgle.wsgd`` (weights and
operator), ``fgle.linalg``, ``fgle.spectral``, ``fgle.experiments`` (the
studies and ``verify_suite``) and ``fgle.cli``.
"""

from .stepper import GridSpec, ModelParams, TimeGrid, run_simulation

__version__ = "0.1.0"
