"""Riesz fractional calculus on periodic grids.

Weighted Lebesgue norms, Muckenhoupt weight diagnostics, fractional
gradient/divergence and potential operators as Fourier multipliers, the
inequalities tying them together, and solvers for the degenerate fractional
p-Laplace problem.
"""

__version__ = "0.1.0"

from .grid import (  # noqa: F401
    Grid,
    GridSpec,
    ScalarField,
    SpectralField,
    VectorField,
    bump,
    forward_transform,
    inverse_transform,
    lp_norm,
    make_grid,
    read_field,
    remove_mean,
    sample,
    write_field,
)
from . import fracops, inequalities, solver, suite, weights  # noqa: F401
