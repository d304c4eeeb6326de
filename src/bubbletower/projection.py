"""Dirichlet projections of bubbles and kernel modes on a ball, and the
Gram matrix of the projected kernel modes.

For a bubble centred at the ball centre the boundary trace is constant, so
its harmonic extension is that constant and the projection is exact:

    PU = U - alpha mu^{(n-2)/2} (mu^2 + R^2)^{-(n-2)/2}.

The same trick gives exact centred projections of the kernel modes (the
translation-mode trace is linear, and linear functions are harmonic).  For
general centres the small-scale expansions are used, with the correction
written through the regular part H of the Green's function; the coefficient
is the total bubble mass a2 = (n-2) alpha omega, which is exactly the factor
that converts H into the harmonic extension of the bubble's boundary trace.

The Gram matrix of a centred tower separates: the nonlinearity weight, the
dilation mode and its projection are radial, and a translation mode and its
projection are a radial amplitude times y_h = (x-c)_h/|x-c|.  The sphere
moments are closed-form (the area omega for 1, delta_lh omega/n for y_l y_h,
zero for y_h), so the matrix costs two k x k products of radial quadrature
vectors.  A tower with an off-centre layer has no such split and is
integrated on the n-dimensional product rule (radial nodes x sphere rule)
with the small-scale projections.
"""

from __future__ import annotations

import numpy as np

from .domain import BallDomain
from .errors import ParameterError, UnsupportedError
from .profiles import (BubbleParam, Dimension, bubble_at, bubble_radial,
                       psi_at, psi_radial)
from .quadrature import _leggauss, sphere_rule

__all__ = [
    "project_bubble",
    "project_psi",
    "project_bubble_radial",
    "project_psi0_radial",
    "project_psi0_radial_dlog",
    "project_tower_radial",
    "bubble_boundary_trace",
    "psi0_boundary_trace",
    "gram_matrix",
]


def _mass_coefficient(dim: Dimension) -> float:
    # total nonlinear mass of the bubble, (n-2) alpha omega
    return (dim.n - 2.0) * dim.alpha * dim.sphere_area


def bubble_boundary_trace(dim: Dimension, mu: float, radius: float) -> float:
    """Constant boundary value of a centred bubble on the sphere of ``radius``."""
    e = (dim.n - 2.0) / 2.0
    return dim.alpha * mu**e * (mu * mu + radius * radius) ** (-e)


def psi0_boundary_trace(dim: Dimension, mu: float, radius: float) -> float:
    """Constant boundary value of the centred dilation mode."""
    n = dim.n
    return (0.5 * (n - 2.0) * dim.alpha * mu ** ((n - 2.0) / 2.0)
            * (radius * radius - mu * mu)
            / (mu * mu + radius * radius) ** (n / 2.0))


def _psih_boundary_slope(dim: Dimension, mu: float, radius: float) -> float:
    """Slope c of the centred translation-mode trace c (x-c)_h on the sphere."""
    n = dim.n
    return ((n - 2.0) * dim.alpha * mu ** (n / 2.0)
            / (mu * mu + radius**2) ** (n / 2.0))


def _is_centered(dom: BallDomain, xi) -> bool:
    return bool(np.allclose(np.asarray(xi, dtype=float), dom.center,
                            rtol=0.0, atol=1e-14))


def project_bubble(dom: BallDomain, b: BubbleParam, x,
                   method: str = "asymptotic") -> np.ndarray:
    """Dirichlet projection of a bubble, evaluated at points ``x``.

    ``method="exact_centered"`` subtracts the harmonic extension of the
    exact boundary trace and requires the bubble centre to coincide with the
    ball centre.  ``method="asymptotic"`` subtracts the small-scale harmonic
    correction a2 mu^{(n-2)/2} H(x, xi).
    """
    dim = dom.dim
    if method == "exact_centered":
        if not _is_centered(dom, b.xi):
            raise UnsupportedError(
                "exact_centered projection requires the bubble at the ball centre")
        return bubble_at(dim, b, x) - bubble_boundary_trace(dim, b.mu, dom.radius)
    if method == "asymptotic":
        x = np.asarray(x, dtype=float)
        coef = _mass_coefficient(dim) * b.mu ** ((dim.n - 2.0) / 2.0)
        H = _regular_part_at(dom, x, b.xi)
        return bubble_at(dim, b, x) - coef * H
    raise ParameterError(f"unknown projection method {method!r}")


def _regular_part_at(dom: BallDomain, x, xi):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return dom.regular_part(x, xi)
    flat = x.reshape(-1, x.shape[-1])
    return dom.regular_part_many(flat, xi).reshape(x.shape[:-1])


def project_psi(dom: BallDomain, h: int, mu: float, xi, x,
                method: str = "asymptotic") -> np.ndarray:
    """Dirichlet projection of kernel mode ``h`` evaluated at ``x``.

    Exact centred version: the h=0 trace is constant and the h>=1 trace is
    proportional to the coordinate (x-c)_h, which is harmonic, so both
    corrections are available in closed form.
    """
    dim = dom.dim
    n = dim.n
    if not (0 <= h <= n):
        raise ParameterError(f"kernel index must be in 0..{n}, got {h}")
    if method == "exact_centered":
        if not _is_centered(dom, xi):
            raise UnsupportedError(
                "exact_centered projection requires the mode at the ball centre")
        x = np.asarray(x, dtype=float)
        if h == 0:
            return (psi_at(dim, 0, mu, xi, x)
                    - psi0_boundary_trace(dim, mu, dom.radius))
        loc = x - dom.center
        return (psi_at(dim, h, mu, xi, x)
                - _psih_boundary_slope(dim, mu, dom.radius) * loc[..., h - 1])
    if method == "asymptotic":
        x = np.asarray(x, dtype=float)
        a2 = _mass_coefficient(dim)
        if h == 0:
            corr = (0.5 * (n - 2.0) * a2 * mu ** ((n - 2.0) / 2.0)
                    * _regular_part_at(dom, x, xi))
        else:
            if x.ndim == 1:
                grad = dom.regular_part_grad2(x, xi)[h - 1]
            else:
                flat = x.reshape(-1, x.shape[-1])
                grad = dom.regular_part_grad2_many(
                    flat, xi)[:, h - 1].reshape(x.shape[:-1])
            corr = a2 * mu ** (n / 2.0) * grad
        return psi_at(dim, h, mu, xi, x) - corr
    raise ParameterError(f"unknown projection method {method!r}")


def project_bubble_radial(dom: BallDomain, r, mu: float) -> np.ndarray:
    """Exact centred bubble projection on a radial grid (fast path)."""
    return bubble_radial(dom.dim, r, mu) - bubble_boundary_trace(
        dom.dim, mu, dom.radius)


def project_psi0_radial(dom: BallDomain, r, mu: float) -> np.ndarray:
    """Exact centred dilation-mode projection on a radial grid (fast path)."""
    return psi_radial(dom.dim, r, mu) - psi0_boundary_trace(
        dom.dim, mu, dom.radius)


def project_psi0_radial_dlog(dom: BallDomain, r, mu: float) -> np.ndarray:
    """mu d/dmu of :func:`project_psi0_radial`, in closed form.

    With q = r^2, s = mu^2 and e = (n-2)/2, mu d/dmu of the dilation mode is
    e alpha mu^e (e (q^2 + s^2) - (n+2) s q) / (s + q)^{n/2+1}; the
    projection subtracts its value at r = R.
    """
    n = dom.dim.n
    e = 0.5 * (n - 2.0)
    s = mu * mu

    def mode(rr):
        q = np.asarray(rr, dtype=float) ** 2
        return (e * dom.dim.alpha * mu**e * (e * (q * q + s * s) - (n + 2.0) * s * q)
                / (s + q) ** (0.5 * n + 1.0))

    return mode(r) - mode(dom.radius)


def project_tower_radial(dom: BallDomain, r, params) -> np.ndarray:
    """Centred tower sum_i sign_i (projected bubble i) on a radial grid.

    ``params`` are the layers' :class:`BubbleParam`; only their signs and
    scales are read, so the caller vouches that the layers are centred.
    """
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    for b in params:
        out += b.sign * project_bubble_radial(dom, r, b.mu)
    return out


# ---------------------------------------------------------------------------
# Gram matrix of the projected kernel modes
# ---------------------------------------------------------------------------

def _radial_rule(dom: BallDomain, scales):
    """Composite 16-point Gauss-Legendre nodes/weights on [0, R].

    Panels are geometric from min(scales)/100 to R, eight per decade, plus
    one panel [0, rmin]; the weights carry no r^{n-1} factor.
    """
    R = dom.radius
    rmin = max(min(scales) / 100.0, 1e-14)
    decades = np.log10(R / rmin)
    edges = np.concatenate([[0.0], np.geomspace(
        rmin, R, max(4, int(np.ceil(decades * 8))) + 1)])
    gx, gw = _leggauss(16)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halfs = 0.5 * (edges[1:] - edges[:-1])
    rnodes = (mids[:, None] + halfs[:, None] * gx[None, :]).ravel()
    rweights = (halfs[:, None] * gw[None, :]).ravel()
    return rnodes, rweights


def _ball_quadrature(dom: BallDomain, scales, *, sphere_order=8):
    """Product rule over the ball: :func:`_radial_rule` times a sphere rule."""
    rnodes, rweights = _radial_rule(dom, scales)
    spts, sw = sphere_rule(dom.dim.n, sphere_order)
    pts = rnodes[:, None, None] * spts[None, :, :] + dom.center
    wts = (rweights * rnodes ** (dom.dim.n - 1))[:, None] * sw[None, :]
    return pts.reshape(-1, dom.dim.n), wts.ravel()


def gram_matrix(dom: BallDomain, tower) -> np.ndarray:
    """Pairings of the projected kernel modes of a tower.

    ``tower`` is anything carrying a ``params`` list of :class:`BubbleParam`
    (such as a tower configuration).  Entry ((i,l),(j,h)) is the H1_0 pairing
    of the projected modes, computed as the integral of the linearised
    nonlinearity at bubble i against mode (i,l) and projected mode (j,h).
    Block order: layer-major, mode-minor, size k*(n+1).

    A centred tower takes the separable route: every integrand is a radial
    factor times 1 (dilation pairs) or y_l y_h (translation pairs), whose
    sphere moments are omega and delta_lh omega/n, so only radial integrals
    are computed and every mixed entry is exactly zero.  Towers with an
    off-centre layer are not separable and are integrated on the full ball
    with the small-scale projections.
    """
    params = list(tower.params) if hasattr(tower, "params") else list(tower)
    if not all(_is_centered(dom, b.xi) for b in params):
        return _gram_matrix_quadrature(dom, params)
    dim = dom.dim
    n = dim.n
    k = len(params)
    r, w = _radial_rule(dom, [b.mu for b in params])
    w = w * r ** (n - 1)
    # radial factors: nonlinearity weight, dilation mode and its projection,
    # translation-mode amplitude a(r) (psi^h = a y_h) and its projection
    # a - c r, with c the exact centred coefficient of project_psi
    fw = np.empty((k, len(r)))
    psi0 = np.empty_like(fw)
    ppsi0 = np.empty_like(fw)
    amp = np.empty_like(fw)
    pamp = np.empty_like(fw)
    for i, b in enumerate(params):
        mu = b.mu
        fw[i] = dim.p * bubble_radial(dim, r, mu) ** (dim.p - 1.0)
        psi0[i] = psi_radial(dim, r, mu)
        ppsi0[i] = psi0[i] - psi0_boundary_trace(dim, mu, dom.radius)
        amp[i] = ((n - 2.0) * dim.alpha * mu ** (n / 2.0)
                  * r / (mu * mu + r * r) ** (n / 2.0))
        pamp[i] = amp[i] - _psih_boundary_slope(dim, mu, dom.radius) * r
    g0 = dim.sphere_area * ((fw * psi0 * w) @ ppsi0.T)
    gh = dim.sphere_area / n * ((fw * amp * w) @ pamp.T)
    out = np.zeros((k * (n + 1), k * (n + 1)))
    out[0::n + 1, 0::n + 1] = g0
    for h in range(1, n + 1):
        out[h::n + 1, h::n + 1] = gh
    return out


def _gram_matrix_quadrature(dom: BallDomain, params) -> np.ndarray:
    """:func:`gram_matrix` integrated on the full ball.

    A centred tower uses the exact projections (the reference for the
    separable route), any other tower the small-scale expansion.
    """
    dim = dom.dim
    n = dim.n
    k = len(params)
    centered = all(_is_centered(dom, b.xi) for b in params)
    method = "exact_centered" if centered else "asymptotic"
    # off-centre peaks subtend an angle ~ mu/offset at the quadrature origin,
    # so the spherical order grows with the largest offset-to-scale ratio
    ratio = max((np.linalg.norm(b.xi - dom.center) / b.mu for b in params),
                default=0.0)
    order = int(min(48, 8 + 8 * np.ceil(ratio)))
    pts, wts = _ball_quadrature(dom, [b.mu for b in params],
                                sphere_order=order)

    # nonlinearity weights per layer
    fw = []
    for b in params:
        u = bubble_at(dim, b, pts)
        fw.append(dim.p * u ** (dim.p - 1.0))
    psi = np.empty((k, n + 1, len(pts)))
    ppsi = np.empty_like(psi)
    for i, b in enumerate(params):
        for h in range(n + 1):
            psi[i, h] = psi_at(dim, h, b.mu, b.xi, pts)
            ppsi[i, h] = project_psi(dom, h, b.mu, b.xi, pts, method=method)

    m = k * (n + 1)
    out = np.empty((m, m))
    for i in range(k):
        for el in range(n + 1):
            row = fw[i] * psi[i, el] * wts
            for j in range(k):
                for h in range(n + 1):
                    out[i * (n + 1) + el, j * (n + 1) + h] = row @ ppsi[j, h]
    return out
