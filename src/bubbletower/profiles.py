"""Closed-form profiles: the radial bubble, its dilation mode, and the
logarithmically perturbed critical nonlinearity.

Everything here is an exact pointwise formula; no tables, no interpolation.
The functions accept scalars or numpy arrays of radii or values and
broadcast in the usual way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

__all__ = [
    "Dimension",
    "bubble_radial",
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


def bubble_radial(dim: Dimension, r, mu: float) -> np.ndarray:
    """Radial profile alpha_n mu^{(n-2)/2} (mu^2 + r^2)^{-(n-2)/2}."""
    if mu <= 0:
        raise ParameterError(f"bubble scale must be positive, got {mu}")
    r = np.asarray(r, dtype=float)
    e = (dim.n - 2.0) / 2.0
    return dim.alpha * mu**e * (mu * mu + r * r) ** (-e)


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
    out = au ** (dim.p - 1.0)
    if eps != 0.0:
        L = _log_shifted(au)
        out = out * L ** (-eps) * (dim.p - eps * au / ((np.e + au) * L))
    else:
        out = out * dim.p
    return out


def _f_and_prime(dim: Dimension, u: np.ndarray, eps: float):
    """(:func:`f_eps`, :func:`f_eps_prime`) at a float array ``u``.

    One |u|, one ln(e+|u|) and one L^{-eps} serve both, and every product
    keeps the order of the two public functions, so both results equal
    theirs bit for bit.  So does the power: |u|^{2*-2} serves as |u|^{p-1}
    where 2*-2 and p-1 are the same double, and for the n where they round
    differently (7, 8, 9 and 11) the second power is taken on its own.  No
    check of ``eps``; callers pass a validated schedule's eps.
    """
    au = np.abs(u)
    power = dim.two_star - 2.0
    fp = au ** power
    f = fp * u
    if dim.p - 1.0 != power:
        fp = au ** (dim.p - 1.0)
    if eps != 0.0:
        L = _log_shifted(au)
        Le = L ** (-eps)
        f *= Le
        fp *= Le
        den = np.e + au
        den *= L
        q = eps * au
        q /= den
        np.subtract(dim.p, q, out=q)
        fp *= q
    else:
        fp *= dim.p
    return f, fp
