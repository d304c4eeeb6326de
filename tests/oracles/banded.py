"""The banded solves of ``RadialOperator`` through scipy's wrappers.

``solve_banded`` with a (1, 1) band ends in LAPACK ``dgtsv``, which the
operator calls directly, so its results must equal :func:`jacobian_solve`
bit for bit.  :func:`stiffness_solve` (``solveh_banded`` with a two-row
upper band, ending in ``dptsv``) is a second route to S^-1 that the
package no longer has, for the oracles' Poisson solve and the projection
formula of the multipliers.
"""

import numpy as np
from scipy.linalg import solve_banded, solveh_banded


def jacobian_solve(op, fprime, rhs_free):
    """Solve (S - W diag(fprime)) delta = rhs on the free nodes of ``op``."""
    N = len(op.w) - 1
    ab = np.zeros((3, N))
    ab[0, 1:] = -op.kcell[: N - 1]
    ab[1, :] = op._sdiag - op.w[:-1] * fprime[:-1]
    ab[2, :-1] = -op.kcell[: N - 1]
    return solve_banded((1, 1), ab, rhs_free)


def stiffness_solve(op, load_free):
    """Solve S u = load on the free nodes of ``op``."""
    N = len(op.w) - 1
    hb = np.zeros((2, N))
    hb[0, 1:] = -op.kcell[: N - 1]
    hb[1, :] = op._sdiag
    return solveh_banded(hb, load_free, lower=False)
