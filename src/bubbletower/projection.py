"""Dirichlet projections of centred bubbles and kernel modes on a ball, and
the Gram matrix of the projected kernel modes.

For a bubble centred at the ball centre the boundary trace is constant, so
its harmonic extension is that constant and the projection is exact:

    PU = U - alpha mu^{(n-2)/2} (mu^2 + R^2)^{-(n-2)/2}.

The same trick gives exact centred projections of the kernel modes (the
translation-mode trace is linear, and linear functions are harmonic).

The Gram matrix of a centred tower separates: the nonlinearity weight, the
dilation mode and its projection are radial, and a translation mode and its
projection are a radial amplitude times y_h = (x-c)_h/|x-c|.  The sphere
moments are closed-form (the area omega for 1, delta_lh omega/n for y_l y_h,
zero for y_h), so the matrix costs two k x k products of radial quadrature
vectors.
"""

from __future__ import annotations

import numpy as np

from .domain import BallDomain
from .errors import ParameterError
from .profiles import Dimension, bubble_radial, psi_radial
from .quadrature import _ball_panel_edges, _leggauss

__all__ = [
    "project_bubble_radial",
    "project_psi0_radial",
    "project_psi0_radial_dlog",
    "project_tower_layers",
    "project_tower_radial",
    "bubble_boundary_trace",
    "psi0_boundary_trace",
    "gram_matrix",
]


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


def project_tower_layers(dom: BallDomain, r, mus, signs):
    """Centred tower sum_i sign_i PU_i on a radial grid, and the list of
    its projected layers PU_i, for the layers' scales ``mus`` and signs.

    The scales enter the scalar formulas as Python floats, which are
    several times faster there than numpy scalars (the verify quadrature
    evaluates a tower at every panel); a power that overflows then raises
    ``OverflowError``.
    """
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    layers = []
    for mu, sign in zip(map(float, mus), signs):
        pu = project_bubble_radial(dom, r, mu)
        out += sign * pu
        layers.append(pu)
    return out, layers


def project_tower_radial(dom: BallDomain, r, mus, signs) -> np.ndarray:
    """The tower of :func:`project_tower_layers` without its layers."""
    return project_tower_layers(dom, r, mus, signs)[0]


def _tower_and_modes(dom: BallDomain, r: np.ndarray, mus, signs):
    """(V, P, D) at the float array ``r``: the tower of
    :func:`project_tower_radial`, and one column per layer of
    :func:`project_psi0_radial` (P) and :func:`project_psi0_radial_dlog`
    (D), as C-ordered len(r) x k arrays.

    One pass per layer, from one r^2 and one mu^2 + r^2; every entry takes
    the operations of the public functions in their order, so all three
    equal theirs bit for bit.
    """
    dim = dom.dim
    n, alpha = dim.n, dim.alpha
    e = (n - 2.0) / 2.0
    R2 = dom.radius * dom.radius
    r2 = r * r
    r4 = r2 * r2
    V = np.zeros_like(r)
    P = np.empty((len(r), len(mus)))
    D = np.empty_like(P)
    for j, (mu, sign) in enumerate(zip(map(float, mus), signs)):
        if mu <= 0:
            raise ParameterError(f"bubble scale must be positive, got {mu}")
        s = mu * mu
        me = mu**e
        m2 = s + r2
        # bubble_radial minus bubble_boundary_trace
        cu = alpha * me
        pu = m2 ** (-e)
        pu *= cu
        pu -= cu * (s + R2) ** (-e)
        V += sign * pu
        # psi_radial minus psi0_boundary_trace
        c = 0.5 * (n - 2.0) * alpha * me
        x = r2 - s
        x *= c
        x /= m2 ** (n / 2.0)
        np.subtract(x, c * (R2 - s) / (s + R2) ** (n / 2.0), out=P[:, j])
        # the mode of project_psi0_radial_dlog at r and at the radius
        x = r4 + s * s
        x *= e
        x -= (n + 2.0) * s * r2
        x *= c
        x /= m2 ** (0.5 * n + 1.0)
        np.subtract(x, c * (e * (R2 * R2 + s * s) - (n + 2.0) * s * R2)
                    / (s + R2) ** (0.5 * n + 1.0), out=D[:, j])
    return V, P, D


# ---------------------------------------------------------------------------
# Gram matrix of the projected kernel modes
# ---------------------------------------------------------------------------

def _radial_rule(dom: BallDomain, scales):
    """Composite 16-point Gauss-Legendre nodes/weights on the panels of
    :func:`~bubbletower.quadrature._ball_panel_edges`; the weights carry
    no r^{n-1} factor.
    """
    edges = _ball_panel_edges(dom.radius, scales)
    gx, gw = _leggauss(16)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halfs = 0.5 * (edges[1:] - edges[:-1])
    rnodes = (mids[:, None] + halfs[:, None] * gx[None, :]).ravel()
    rweights = (halfs[:, None] * gw[None, :]).ravel()
    return rnodes, rweights


def gram_matrix(dom: BallDomain, mus) -> np.ndarray:
    """Pairings of the projected kernel modes of the centred tower with
    scales ``mus``.

    Entry ((i,l),(j,h)) is the H1_0 pairing of the projected modes,
    computed as the integral of the linearised nonlinearity at bubble i
    against mode (i,l) and projected mode (j,h).  Block order:
    layer-major, mode-minor, size k*(n+1).

    Every integrand is a radial factor times 1 (dilation pairs) or y_l y_h
    (translation pairs), whose sphere moments are omega and delta_lh
    omega/n, so only radial integrals are computed and every mixed entry
    is exactly zero.
    """
    n = dom.dim.n
    k = len(mus)
    rule = _gram_rule(dom, mus)
    out = np.zeros((k * (n + 1), k * (n + 1)))
    out[0::n + 1, 0::n + 1] = _dilation_block(dom, mus, rule)
    gh = _translation_block(dom, mus, rule)
    for h in range(1, n + 1):
        out[h::n + 1, h::n + 1] = gh
    return out


def _gram_rule(dom: BallDomain, mus):
    """The nodes r of :func:`_radial_rule`, its weights times r^{n-1}, and
    each layer's nonlinearity weight p U_i^{p-1} at r, one row per scale:
    what the blocks of :func:`gram_matrix` share."""
    dim = dom.dim
    r, w = _radial_rule(dom, mus)
    fw = np.empty((len(mus), len(r)))
    for i, mu in enumerate(mus):
        fw[i] = dim.p * bubble_radial(dim, r, mu) ** (dim.p - 1.0)
    return r, w * r ** (dim.n - 1), fw


def _dilation_block(dom: BallDomain, mus, rule):
    """The k x k block of :func:`gram_matrix` that pairs the dilation modes,
    from the dilation mode and its projection on the ``rule`` of
    :func:`_gram_rule`."""
    dim = dom.dim
    r, w, fw = rule
    psi0 = np.empty_like(fw)
    ppsi0 = np.empty_like(fw)
    for i, mu in enumerate(mus):
        psi0[i] = psi_radial(dim, r, mu)
        ppsi0[i] = psi0[i] - psi0_boundary_trace(dim, mu, dom.radius)
    return dim.sphere_area * ((fw * psi0 * w) @ ppsi0.T)


def _translation_block(dom: BallDomain, mus, rule):
    """The k x k block of :func:`gram_matrix` that pairs the translation
    modes of one direction h, the same for every h, on the ``rule`` of
    :func:`_gram_rule`: from the mode's amplitude a(r) (psi^h = a y_h) and
    its projection a - c r, with c the slope of the mode's trace."""
    dim = dom.dim
    n = dim.n
    r, w, fw = rule
    amp = np.empty_like(fw)
    pamp = np.empty_like(fw)
    for i, mu in enumerate(mus):
        amp[i] = ((n - 2.0) * dim.alpha * mu ** (n / 2.0)
                  * r / (mu * mu + r * r) ** (n / 2.0))
        pamp[i] = amp[i] - _psih_boundary_slope(dim, mu, dom.radius) * r
    return dim.sphere_area / n * ((fw * amp * w) @ pamp.T)
