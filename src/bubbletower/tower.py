"""Tower ansatz assembly, residual measurement, and log-log order fitting.

The tower stacks k projected bubbles at a common point with alternating
signs and geometrically separated scales

    mu_i = (eps/|ln eps|^2)^{(2i-1)/(n-2)} d_i .
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import BallDomain
from .errors import ParameterError, UnsupportedError
from .profiles import BubbleParam, Dimension, f_eps
from .projection import _is_centered, project_bubble, project_tower_radial

__all__ = [
    "TowerConfig",
    "mu_schedule",
    "assemble_tower",
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
    if not np.all(np.isfinite(dbar) & (dbar > 0)):
        raise ParameterError(
            f"dilation factors must be finite and positive, got {dbar}")
    t = scale_variable(eps)
    i = np.arange(1, k + 1)
    mus = t ** ((2.0 * i - 1.0) / (dim.n - 2.0)) * dbar
    if np.any(np.diff(mus) >= 0):
        raise ParameterError(
            "scale schedule is not strictly decreasing; eps too large "
            "for these dilation factors")
    return mus


@dataclass
class TowerConfig:
    """A k-layer tower: scales, signs, centre and matching radius."""

    dim: Dimension
    k: int
    eps: float
    xi: np.ndarray
    rho: float
    params: list          # list[BubbleParam], outermost layer first
    dbar: np.ndarray

    @classmethod
    def centered(cls, dom: BallDomain, k: int, eps: float, dbar,
                 rho: float | None = None, sigmas=None,
                 eta: float = 0.1) -> "TowerConfig":
        """Tower at the ball centre with drifts sigma_i (innermost drift 0)."""
        dim = dom.dim
        dbar = np.asarray(dbar, dtype=float)
        mus = mu_schedule(dim, k, eps, dbar)
        xi = dom.center.copy()
        if dom.inradius_from(xi) <= eta:
            raise ParameterError(
                f"tower centre must keep distance > {eta} from the boundary")
        if rho is None:
            rho = 0.5 * dom.inradius_from(xi)
        params = []
        for i in range(k):
            sig = (np.zeros(dim.n) if sigmas is None or i == k - 1
                   else np.asarray(sigmas[i], dtype=float))
            params.append(BubbleParam(
                mu=float(mus[i]), xi=xi + mus[i] * sig,
                sign=(-1) ** (i + 1), d=float(dbar[i]), sigma=sig))
        return cls(dim, k, eps, xi, float(rho), params, dbar)

    @property
    def mus(self) -> np.ndarray:
        return np.array([b.mu for b in self.params])

    def is_centered(self, dom: BallDomain) -> bool:
        return all(_is_centered(dom, b.xi) for b in self.params)


def assemble_tower(dom: BallDomain, cfg: TowerConfig, x) -> np.ndarray:
    """Tower field V(x) = sum_i sign_i * (projected bubble i)(x).

    Centred towers use the exact projection, general ones the small-scale
    expansion of the projection.
    """
    method = "exact_centered" if cfg.is_centered(dom) else "asymptotic"
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1])
    for b in cfg.params:
        out = out + b.sign * project_bubble(dom, b, x, method=method)
    return out


def tower_radial_values(dom: BallDomain, r, cfg: TowerConfig) -> np.ndarray:
    """Fast radial assembly for centred towers."""
    if not cfg.is_centered(dom):
        raise UnsupportedError("radial assembly requires a centred tower")
    return project_tower_radial(dom, r, cfg.params)


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
    from .radial import RadialOperator

    grid.require_resolves([cfg.mus[-1]], 10)
    op = RadialOperator(dom.dim, grid)
    V = tower_radial_values(dom, grid.nodes, cfg) if values is None \
        else np.asarray(values, dtype=float)
    strong_lap = op.stiffness_apply(V)[:-1] / op.w[:-1]
    resid = f_eps(dom.dim, V, cfg.eps)[:-1] - strong_lap
    return op.dual_norm(resid)


def fit_asymptotic_order(samples):
    """Least-squares exponent of y ~ C t^a.

    ``samples`` is an iterable of (t, y) pairs with positive entries; the
    intended regime is at least five samples spanning two decades or more in
    ``t``.  Returns (exponent, halfwidth) where the halfwidth is twice the
    standard error of the fitted slope.
    """
    arr = np.asarray(list(samples), dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ParameterError("samples must be (t, value) pairs")
    t, y = arr[:, 0], arr[:, 1]
    if np.any(t <= 0) or np.any(y <= 0):
        raise ParameterError("order fitting needs positive samples")
    lt, ly = np.log(t), np.log(y)
    m = len(lt)
    A = np.stack([lt, np.ones(m)], axis=-1)
    coef, res_, *_ = np.linalg.lstsq(A, ly, rcond=None)
    slope = float(coef[0])
    if m > 2:
        fitted = A @ coef
        s2 = float(np.sum((ly - fitted) ** 2)) / (m - 2)
        denom = float(np.sum((lt - lt.mean()) ** 2))
        half = 2.0 * np.sqrt(s2 / denom) if denom > 0 else np.inf
    else:
        half = np.inf
    return slope, half
