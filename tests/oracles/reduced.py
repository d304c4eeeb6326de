"""The finite-difference Jacobian of the reduced system.

``jacobian_fd`` is the package's former Jacobian, kept unchanged as the
reference that the closed-form :func:`bubbletower.reduced.jacobian` is
checked against: central differences in every unknown, and one-sided
second-order differences on the state's own side of the |ln s| kink at 1.
"""

import numpy as np

from bubbletower.errors import ParameterError
from bubbletower.reduced import ReducedConstants, ReducedState, eval_G


def jacobian_fd(state: ReducedState, consts: ReducedConstants,
                rel_step: float = 1e-6) -> np.ndarray:
    """Finite-difference Jacobian of eval_G in (s_1..s_k, xi_1..xi_n).

    Central differences, except where a step in s_i would straddle the
    |ln s_i| kink at 1 (|s_i - 1| < 2h): there the column is the one-sided
    second-order difference on the root's own side, backward for s_i <= 1
    and forward for s_i > 1.
    """
    dim = state.dim
    k, n = state.k, dim.n
    cols = k + n
    out = np.empty((1 + n, cols))

    def G_at(j, sj):
        s = state.s.copy()
        s[j] = sj
        return eval_G(ReducedState(dim, k, s, state.xi), consts)

    for j in range(k):
        sj = state.s[j]
        h = rel_step * sj
        if abs(sj - 1.0) >= 2.0 * h:
            out[:, j] = (G_at(j, sj + h) - G_at(j, sj - h)) / (2.0 * h)
        else:
            d = -h if sj <= 1.0 else h
            out[:, j] = (4.0 * G_at(j, sj + d) - G_at(j, sj + 2.0 * d)
                         - 3.0 * G_at(j, sj)) / (2.0 * d)
    for j in range(n):
        h = rel_step * max(1.0, abs(state.xi[j]))
        if h == 0.0:
            raise ParameterError("finite-difference step underflow")
        xp, xm = state.xi.copy(), state.xi.copy()
        xp[j] += h
        xm[j] -= h
        Gp = eval_G(ReducedState(dim, k, state.s, xp), consts)
        Gm = eval_G(ReducedState(dim, k, state.s, xm), consts)
        out[:, k + j] = (Gp - Gm) / (2.0 * h)
    return out
