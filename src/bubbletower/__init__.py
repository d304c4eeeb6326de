"""Numerical construction and verification of sign-changing bubble-tower
solutions of the slightly subcritical problem

    -Δu = |u|^{2*-2} u / ln(e+|u|)^eps   in a ball,   u = 0 on the boundary.

The package computes the limit finite-dimensional system pinning the tower
parameters, assembles the tower ansatz from its roots, solves the radial
discretised problem by Newton on the dilations of the Lyapunov-Schmidt
reduction with eps-continuation, and verifies the asymptotic scaling laws
of the construction.
"""

__version__ = "0.1.0"

from .domain import BallDomain, GreenProvider, find_robin_min
from .profiles import BubbleParam, Dimension, f_eps, f_eps_prime
from .quadrature import QuadSpec, const_a, const_a_closed, g_sigma, \
    g_sigma_closed, integrate_rn
from .reduced import ReducedConstants, ReducedState, eval_G, solve_reduced
from .tower import TowerConfig, assemble_tower, fit_asymptotic_order, \
    mu_schedule, residual_norm
from .radial import (RadialGrid, RadialSolution, apply_radial_laplacian,
                     extract_scales, geometric_grid, ls_correction,
                     newton_solve, solve_from_tower, sweep_epsilon)

__all__ = [
    "BallDomain", "GreenProvider", "find_robin_min",
    "BubbleParam", "Dimension", "f_eps", "f_eps_prime",
    "QuadSpec", "const_a", "const_a_closed", "g_sigma", "g_sigma_closed",
    "integrate_rn",
    "ReducedConstants", "ReducedState", "eval_G", "solve_reduced",
    "TowerConfig", "assemble_tower", "fit_asymptotic_order", "mu_schedule",
    "residual_norm",
    "RadialGrid", "RadialSolution", "apply_radial_laplacian",
    "extract_scales", "geometric_grid", "ls_correction", "newton_solve",
    "solve_from_tower", "sweep_epsilon",
    "__version__",
]
