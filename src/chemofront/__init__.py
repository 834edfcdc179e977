"""Numerical laboratory for degenerate diffusion with chemotactic drift.

Four coupled fields on a box with reflecting walls: a cell density moving by
compactly supported nonlinear diffusion, bounded-sensitivity drift and
logistic growth; an attractant released where an immobile matrix is degraded;
the matrix itself; and the diffusing enzyme that degrades it.  The package
bundles the finite-volume solver, closed-form comparison profiles with their
selection rules, a stochastic lattice twin, fitting diagnostics and a small
CLI.
"""

__version__ = "0.1.0"
