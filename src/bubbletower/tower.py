"""Tower ansatz on a radial grid, residual measurement, and log-log order
fitting.

The tower stacks k projected bubbles at the ball centre with alternating
signs and geometrically separated scales

    mu_i = (eps/|ln eps|^2)^{(2i-1)/(n-2)} d_i .
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .domain import BallDomain
from .errors import ParameterError
from .profiles import Dimension, f_eps
from .projection import project_tower_radial

__all__ = [
    "TowerConfig",
    "mu_schedule",
    "dilation_factors",
    "tower_radial_values",
    "residual_norm",
    "fit_asymptotic_order",
]


def scale_variable(eps: float) -> float:
    """The small parameter eps/|ln eps|^2 driving every scale schedule."""
    return eps / np.log(eps) ** 2


def mu_schedule(dim: Dimension, k: int, eps: float, dbar) -> np.ndarray:
    """Concentration scales mu_i = (eps/|ln eps|^2)^{(2i-1)/(n-2)} d_i.

    Requires eps in (0, 1) (so that the schedule decreases; the intended
    regime is eps < 1/e where |ln eps| > 1) and finite positive dilation
    factors.
    """
    if not (0.0 < eps < 1.0):
        raise ParameterError(f"eps must lie in (0, 1), got {eps}")
    dbar = np.asarray(dbar, dtype=float)
    if dbar.shape != (k,):
        raise ParameterError(f"need {k} dilation factors, got {dbar.shape}")
    if not all(0.0 < d < math.inf for d in dbar.tolist()):
        raise ParameterError(
            f"dilation factors must be finite and positive, got {dbar}")
    mus = scale_variable(eps) ** _schedule_exponents(dim.n, k) * dbar
    # as np.diff(mus) >= 0: an inf - inf difference is NaN and passes
    m = mus.tolist()
    if any(b - a >= 0.0 for a, b in zip(m, m[1:])):
        raise ParameterError(
            "scale schedule is not strictly decreasing; eps too large "
            "for these dilation factors")
    return mus


@functools.cache
def _schedule_exponents(n: int, k: int) -> np.ndarray:
    """The exponents (2i - 1)/(n - 2), i = 1 .. k, of :func:`mu_schedule`
    (read-only)."""
    i = np.arange(1, k + 1)
    out = (2.0 * i - 1.0) / (n - 2.0)
    out.flags.writeable = False
    return out


def dilation_factors(dim: Dimension, eps: float, mus) -> list:
    """The inverse of :func:`mu_schedule`: the d_i of the scales ``mus``
    (outermost first) at eps.

    One scalar power per layer, so that each d_i is the same double whatever
    the number of layers.
    """
    t = scale_variable(eps)
    return [mu / t ** ((2.0 * i - 1.0) / (dim.n - 2.0))
            for i, mu in enumerate(mus, 1)]


@dataclass
class TowerConfig:
    """A k-layer tower at eps, centred at the ball centre with no drifts:
    its scales, outermost layer first."""

    eps: float
    mus: np.ndarray

    @classmethod
    def centered(cls, dom: BallDomain, k: int, eps: float,
                 dbar) -> "TowerConfig":
        """Tower of the scale schedule at ``dbar``."""
        return cls(eps, mu_schedule(dom.dim, k, eps, dbar))

    @property
    def signs(self) -> tuple:
        """-1.0, +1.0, -1.0, ... from the outermost layer inward."""
        return tuple((-1.0) ** (i + 1) for i in range(len(self.mus)))


def tower_radial_values(dom: BallDomain, r, cfg: TowerConfig) -> np.ndarray:
    """Tower values sum_i sign_i PU_i at the radii ``r``."""
    return project_tower_radial(dom, r, cfg.mus, cfg.signs)


# ---------------------------------------------------------------------------
# residual and order fitting
# ---------------------------------------------------------------------------

def residual_norm(dom: BallDomain, cfg: TowerConfig, grid, *,
                  values: np.ndarray | None = None) -> float:
    """Energy-dual norm of the strong residual of the tower (or of ``values``).

    The strong residual Δ_h V + f_eps(V) is evaluated on the interior rows
    (the boundary value enters only through the stencil) and measured in the
    discrete dual norm sqrt(r W S^{-1} W r), i.e. the energy norm of the
    Poisson pre-image of the residual.
    """
    grid.require_resolves([cfg.mus[-1]], 10)
    op = grid.operator(dom.dim)
    V = tower_radial_values(dom, grid.nodes, cfg) if values is None \
        else np.asarray(values, dtype=float)
    strong_lap = op.stiffness_apply(V)[:-1] / op.w[:-1]
    resid = f_eps(dom.dim, V, cfg.eps)[:-1] - strong_lap
    return op.dual_norm(resid)


def fit_asymptotic_order(samples):
    """Least-squares exponent of y ~ C t^a: the slope
    Σ(x - x̄)(z - z̄) / Σ(x - x̄)² of z = ln y against x = ln t.

    ``samples`` is an iterable of (t, y) pairs with positive entries; the
    intended regime is at least five samples spanning two decades or more in
    ``t``.  Returns the exponent.
    """
    arr = np.asarray(list(samples), dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ParameterError("samples must be (t, value) pairs")
    t, y = arr[:, 0], arr[:, 1]
    if np.any(t <= 0) or np.any(y <= 0):
        raise ParameterError("order fitting needs positive samples")
    x, z = np.log(t), np.log(y)
    dx = x - x.mean()
    return float(np.dot(dx, z - z.mean()) / np.dot(dx, dx))
