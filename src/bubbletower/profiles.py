"""Closed-form profiles: the standard bubble, its kernel modes, and the
logarithmically perturbed critical nonlinearity.

Everything here is an exact pointwise formula; no tables, no interpolation.
The functions accept scalars or numpy arrays and broadcast in the usual way.
Points in R^n are arrays whose last axis has length ``n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

__all__ = [
    "Dimension",
    "BubbleParam",
    "standard_bubble",
    "bubble_at",
    "bubble_radial",
    "psi_at",
    "psi_radial",
    "f_eps",
    "f_eps_prime",
]


@dataclass(frozen=True)
class Dimension:
    """Space dimension with the derived constants cached.

    Attributes
    ----------
    n : int
        Dimension, at least 3.
    two_star : float
        Critical exponent 2n/(n-2).
    p : float
        two_star - 1, the power of the unperturbed nonlinearity.
    alpha : float
        Normalisation (n(n-2))**((n-2)/4) making the bubble solve
        -Δu = u**p on R^n.
    sphere_area : float
        Surface measure of the unit sphere, 2 π^{n/2} / Γ(n/2).
    """

    n: int
    two_star: float = field(init=False)
    p: float = field(init=False)
    alpha: float = field(init=False)
    sphere_area: float = field(init=False)

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 3:
            raise ParameterError(f"dimension must be an integer >= 3, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        n = self.n
        object.__setattr__(self, "two_star", 2.0 * n / (n - 2.0))
        object.__setattr__(self, "p", (n + 2.0) / (n - 2.0))
        object.__setattr__(self, "alpha", (n * (n - 2.0)) ** ((n - 2.0) / 4.0))
        object.__setattr__(self, "sphere_area",
                           2.0 * np.pi ** (n / 2.0) / math.gamma(n / 2.0))


@dataclass
class BubbleParam:
    """Parameters of one bubble in a tower.

    ``mu`` is the concentration scale, ``xi`` the centre, ``sign`` the
    alternating sign carried by this layer, ``d`` the dilation factor in
    front of the scale schedule and ``sigma`` the (scaled) drift of the
    centre.  The innermost layer of a tower has ``sigma = 0``.
    """

    mu: float
    xi: np.ndarray
    sign: int = 1
    d: float = 1.0
    sigma: np.ndarray | None = None

    def __post_init__(self):
        if self.mu <= 0:
            raise ParameterError(f"bubble scale must be positive, got {self.mu}")
        self.xi = np.atleast_1d(np.asarray(self.xi, dtype=float))
        if self.sign not in (-1, 1):
            raise ParameterError(f"sign must be +1 or -1, got {self.sign}")
        if self.sigma is None:
            self.sigma = np.zeros_like(self.xi)
        else:
            self.sigma = np.atleast_1d(np.asarray(self.sigma, dtype=float))


def _sqnorm(y):
    y = np.asarray(y, dtype=float)
    return np.sum(y * y, axis=-1)


def standard_bubble(dim: Dimension, y) -> np.ndarray:
    """Evaluate alpha_n (1+|y|^2)**(-(n-2)/2) at points ``y`` of shape (..., n)."""
    rho2 = _sqnorm(y)
    return dim.alpha * (1.0 + rho2) ** (-(dim.n - 2.0) / 2.0)


def bubble_radial(dim: Dimension, r, mu: float) -> np.ndarray:
    """Radial profile alpha_n mu^{(n-2)/2} (mu^2 + r^2)^{-(n-2)/2}."""
    if mu <= 0:
        raise ParameterError(f"bubble scale must be positive, got {mu}")
    r = np.asarray(r, dtype=float)
    e = (dim.n - 2.0) / 2.0
    return dim.alpha * mu**e * (mu * mu + r * r) ** (-e)


def bubble_at(dim: Dimension, b: BubbleParam, x) -> np.ndarray:
    """Scaled/translated bubble at points ``x`` of shape (..., n)."""
    x = np.asarray(x, dtype=float)
    r2 = _sqnorm(x - b.xi)
    e = (dim.n - 2.0) / 2.0
    return dim.alpha * b.mu**e * (b.mu * b.mu + r2) ** (-e)


def psi_radial(dim: Dimension, r, mu: float) -> np.ndarray:
    """Radial dilation mode ((n-2)/2) alpha mu^{(n-2)/2} (r^2-mu^2)/(mu^2+r^2)^{n/2}.

    This is the h=0 kernel mode of the linearised bubble equation; it equals
    mu times the derivative of the bubble with respect to its scale.
    """
    if mu <= 0:
        raise ParameterError(f"bubble scale must be positive, got {mu}")
    r = np.asarray(r, dtype=float)
    n = dim.n
    return (0.5 * (n - 2.0) * dim.alpha * mu ** ((n - 2.0) / 2.0)
            * (r * r - mu * mu) / (mu * mu + r * r) ** (n / 2.0))


def psi_at(dim: Dimension, h: int, mu: float, xi, x) -> np.ndarray:
    """Kernel mode h of the linearised bubble equation at points ``x``.

    h = 0 is the dilation mode, h = 1..n are the translation modes; they
    satisfy psi^0 = mu ∂U/∂mu and psi^h = mu ∂U/∂xi_h.
    """
    if mu <= 0:
        raise ParameterError(f"bubble scale must be positive, got {mu}")
    if not (0 <= h <= dim.n):
        raise ParameterError(f"kernel index must be in 0..{dim.n}, got {h}")
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    z = x - xi
    r2 = _sqnorm(z)
    n = dim.n
    if h == 0:
        return (0.5 * (n - 2.0) * dim.alpha * mu ** ((n - 2.0) / 2.0)
                * (r2 - mu * mu) / (mu * mu + r2) ** (n / 2.0))
    return ((n - 2.0) * dim.alpha * mu ** (n / 2.0)
            * z[..., h - 1] / (mu * mu + r2) ** (n / 2.0))


def _log_shifted(u_abs):
    # ln(e + |u|) = 1 + log1p(|u|/e); the log1p form stays exact for tiny |u|
    return 1.0 + np.log1p(u_abs / np.e)


def f_eps(dim: Dimension, u, eps: float) -> np.ndarray:
    """Perturbed critical nonlinearity |u|^{2*-2} u / ln(e+|u|)^eps.

    Odd in ``u``; at eps = 0 it reduces to the pure critical power.
    """
    if eps < 0:
        raise ParameterError(f"eps must be nonnegative, got {eps}")
    u = np.asarray(u, dtype=float)
    au = np.abs(u)
    out = au ** (dim.two_star - 2.0) * u
    if eps != 0.0:
        out = out * _log_shifted(au) ** (-eps)
    return out


def f_eps_prime(dim: Dimension, u, eps: float) -> np.ndarray:
    """Derivative of :func:`f_eps` with respect to ``u``.

    Equals |u|^{p-1} L^{-eps} (p - eps |u| / ((e+|u|) L)) with L = ln(e+|u|).
    Even in ``u`` and zero at the origin.
    """
    if eps < 0:
        raise ParameterError(f"eps must be nonnegative, got {eps}")
    u = np.asarray(u, dtype=float)
    au = np.abs(u)
    L = _log_shifted(au)
    out = au ** (dim.p - 1.0)
    if eps != 0.0:
        out = out * L ** (-eps) * (dim.p - eps * au / ((np.e + au) * L))
    else:
        out = out * dim.p
    return out
