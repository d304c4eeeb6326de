"""Green's function data, point evaluators and n-dimensional quadrature on a
ball, for checking the package's centred radial formulas.

The package works on radial grids with the tower at the ball centre.  The
functions here evaluate the same objects at points of R^n: the image-charge
Green's function and its regular part, bubbles and kernel modes at any
centre, their Dirichlet projections (exact for a centred bubble, the
small-scale expansion through the regular part otherwise), the
mu-derivative of the projected centred dilation mode, a product rule
over the ball (radial panels times a sphere rule) and the Gram matrix of a
centred tower integrated on it.  Normalisation: -ΔG = δ with Dirichlet
data, Φ(z) = c_n |z|^{2-n}, H = Φ - G.

A bubble here is a :class:`Layer` with its own centre, so the evaluators
reach off-centre bubbles the package has no type for; the exact
projections check that the centre is the ball's and raise
:class:`OffCentreError` otherwise.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from bubbletower.errors import DomainError, ParameterError
from bubbletower.profiles import bubble_radial, psi_radial
from bubbletower.projection import _psih_boundary_slope
from bubbletower.quadrature import _ball_rule, gauss_jacobi_sym

from . import banded


class OffCentreError(ValueError):
    """An exact projection was asked for a bubble off the ball centre."""


class SingularityError(ValueError):
    """Evaluation requested exactly at a singular point."""


@dataclass
class Layer:
    """One bubble of R^n: scale ``mu`` and centre ``xi``."""

    mu: float
    xi: np.ndarray

    def __post_init__(self):
        if self.mu <= 0:
            raise ParameterError(f"bubble scale must be positive, got {self.mu}")
        self.xi = np.atleast_1d(np.asarray(self.xi, dtype=float))


def is_centred(dom, xi):
    """Whether ``xi`` is the ball centre, to an absolute 1e-14."""
    return bool(np.allclose(np.asarray(xi, dtype=float), dom.center,
                            rtol=0.0, atol=1e-14))


# ---------------------------------------------------------------------------
# Green's function of the ball
# ---------------------------------------------------------------------------

def green_ball(dom, x, y):
    """Dirichlet Green's function of the ball by the image charge.

    G(x,y) = c_n [ |x-y|^{2-n} - (|y-c| |x-y*| / R)^{2-n} ] with y* the
    inversion of y in the sphere.  Symmetric, nonnegative, zero for y on
    the boundary.
    """
    n = dom.dim.n
    R = dom.radius
    xl, yl = dom._local(x), dom._local(y)
    rx, ry = float(np.linalg.norm(xl)), float(np.linalg.norm(yl))
    if rx > R or ry > R:
        raise DomainError("green_ball requires both points inside the closed ball")
    d2 = float(np.dot(xl - yl, xl - yl))
    if d2 == 0.0:
        raise SingularityError("green_ball is singular on the diagonal x = y")
    # |y-c|^2 |x-y*|^2 expands to |x|^2|y|^2 - 2 R^2 x.y + R^4 (local coords)
    img2 = rx * rx * ry * ry - 2.0 * R * R * float(np.dot(xl, yl)) + R ** 4
    e = (2.0 - n) / 2.0
    return dom.c_n * (d2 ** e - (img2 / (R * R)) ** e)


def regular_part_ball(dom, x, y):
    """Regular part H(x,y) = Φ(x-y) - G(x,y); smooth on the diagonal."""
    n = dom.dim.n
    R = dom.radius
    xl, yl = dom._local(x), dom._local(y)
    img2 = (float(np.dot(xl, xl)) * float(np.dot(yl, yl))
            - 2.0 * R * R * float(np.dot(xl, yl)) + R ** 4)
    return dom.c_n * (img2 / (R * R)) ** ((2.0 - n) / 2.0)


def regular_part_many(dom, x, y):
    """Regular part H(x, y) evaluated for an (m, n) array of first arguments."""
    n = dom.dim.n
    R = dom.radius
    xl = np.asarray(x, dtype=float) - dom.center
    yl = dom._local(y)
    D = (np.sum(xl * xl, axis=-1) * float(np.dot(yl, yl))
         - 2.0 * R * R * (xl @ yl) + R ** 4)
    return dom.c_n * (D / (R * R)) ** ((2.0 - n) / 2.0)


# ---------------------------------------------------------------------------
# bubbles and kernel modes at points of R^n
# ---------------------------------------------------------------------------

def _sqnorm(y):
    y = np.asarray(y, dtype=float)
    return np.sum(y * y, axis=-1)


def bubble_at(dim, b, x):
    """Scaled/translated bubble at points ``x`` of shape (..., n)."""
    x = np.asarray(x, dtype=float)
    r2 = _sqnorm(x - b.xi)
    e = (dim.n - 2.0) / 2.0
    return dim.alpha * b.mu**e * (b.mu * b.mu + r2) ** (-e)


def psi_at(dim, h, mu, xi, x):
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


# ---------------------------------------------------------------------------
# Dirichlet projections at points
# ---------------------------------------------------------------------------

def _mass_coefficient(dim):
    # total nonlinear mass of the bubble, (n-2) alpha omega
    return (dim.n - 2.0) * dim.alpha * dim.sphere_area


def _regular_part_at(dom, x, xi):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return regular_part_ball(dom, x, xi)
    flat = x.reshape(-1, x.shape[-1])
    return regular_part_many(dom, flat, xi).reshape(x.shape[:-1])


def project_bubble(dom, b, x, method):
    """Dirichlet projection of a bubble, evaluated at points ``x``.

    ``method="exact_centered"`` subtracts the harmonic extension of the
    exact boundary trace and requires the bubble centre to coincide with the
    ball centre.  ``method="asymptotic"`` subtracts the small-scale harmonic
    correction a2 mu^{(n-2)/2} H(x, xi), with a2 = (n-2) alpha omega the
    total bubble mass.
    """
    dim = dom.dim
    if method == "exact_centered":
        if not is_centred(dom, b.xi):
            raise OffCentreError(
                "exact_centered projection requires the bubble at the ball centre")
        return bubble_at(dim, b, x) - bubble_radial(dim, dom.radius, b.mu)
    if method == "asymptotic":
        coef = _mass_coefficient(dim) * b.mu ** ((dim.n - 2.0) / 2.0)
        return bubble_at(dim, b, x) - coef * _regular_part_at(dom, x, b.xi)
    raise ParameterError(f"unknown projection method {method!r}")


def project_psi0_radial_dlog(dom, r, mu):
    """mu d/dmu of ``projection.project_psi0_radial``, in closed form.

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


def project_psi(dom, h, mu, xi, x):
    """Exact Dirichlet projection of the centred kernel mode ``h`` at ``x``.

    The h=0 trace is constant and the h>=1 trace is proportional to the
    coordinate (x-c)_h, which is harmonic, so both corrections are closed
    form.
    """
    dim = dom.dim
    if not (0 <= h <= dim.n):
        raise ParameterError(f"kernel index must be in 0..{dim.n}, got {h}")
    if not is_centred(dom, xi):
        raise OffCentreError(
            "exact_centered projection requires the mode at the ball centre")
    x = np.asarray(x, dtype=float)
    if h == 0:
        return psi_at(dim, 0, mu, xi, x) - psi_radial(dim, dom.radius, mu)
    loc = x - dom.center
    return (psi_at(dim, h, mu, xi, x)
            - _psih_boundary_slope(dim, mu, dom.radius) * loc[..., h - 1])


# ---------------------------------------------------------------------------
# quadrature over the ball
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def sphere_rule(n, order):
    """Quadrature nodes/weights on the unit sphere S^{n-1}.

    Built recursively: the Gauss rule of ``gauss_jacobi_sym`` in the polar
    cosine against the weight (1-t^2)^{(n-3)/2}, crossed with a rule on the
    equatorial sphere; the azimuthal level is a midpoint rule, exact for
    trigonometric polynomials.  All levels are antipodally symmetric, so odd
    integrands cancel exactly.  Weights sum to the sphere area.
    """
    if n < 1:
        raise ParameterError("sphere dimension must be >= 1")
    if n == 1:
        return np.array([[-1.0], [1.0]]), np.array([1.0, 1.0])
    if n == 2:
        m = max(4, 2 * order)
        th = (np.arange(m) + 0.5) * (2.0 * np.pi / m)
        pts = np.stack([np.cos(th), np.sin(th)], axis=-1)
        return pts, np.full(m, 2.0 * np.pi / m)
    t, wt = gauss_jacobi_sym(order, (n - 3) / 2.0)
    zpts, zw = sphere_rule(n - 1, order)
    s = np.sqrt(np.maximum(1.0 - t * t, 0.0))
    pts = np.concatenate(
        [t[:, None, None] * np.ones((1, len(zw), 1)),
         s[:, None, None] * zpts[None, :, :]], axis=-1)
    w = wt[:, None] * zw[None, :]
    return pts.reshape(-1, n), w.ravel()


def _ball_quadrature(dom, scales, sphere_order=8):
    """Product rule over the ball: the package's radial panels times a
    sphere rule."""
    rnodes, rweights = _ball_rule(dom.radius, scales)
    spts, sw = sphere_rule(dom.dim.n, sphere_order)
    pts = rnodes[:, None, None] * spts[None, :, :] + dom.center
    wts = (rweights * rnodes ** (dom.dim.n - 1))[:, None] * sw[None, :]
    return pts.reshape(-1, dom.dim.n), wts.ravel()


def gram_matrix_quadrature(dom, mus):
    """The Gram matrix of ``projection.gram_matrix`` for the centred tower
    with scales ``mus``, integrated on the full ball with the exact
    projections."""
    dim = dom.dim
    n = dim.n
    k = len(mus)
    params = [Layer(mu, dom.center) for mu in mus]
    pts, wts = _ball_quadrature(dom, mus)

    # nonlinearity weights per layer
    fw = [dim.p * bubble_at(dim, b, pts) ** (dim.p - 1.0) for b in params]
    psi = np.empty((k, n + 1, len(pts)))
    ppsi = np.empty_like(psi)
    for i, b in enumerate(params):
        for h in range(n + 1):
            psi[i, h] = psi_at(dim, h, b.mu, b.xi, pts)
            ppsi[i, h] = project_psi(dom, h, b.mu, b.xi, pts)

    m = k * (n + 1)
    out = np.empty((m, m))
    for i in range(k):
        for el in range(n + 1):
            row = fw[i] * psi[i, el] * wts
            for j in range(k):
                for h in range(n + 1):
                    out[i * (n + 1) + el, j * (n + 1) + h] = row @ ppsi[j, h]
    return out


# ---------------------------------------------------------------------------
# radial Dirichlet solve
# ---------------------------------------------------------------------------

def poisson_solve(op, rhs_interior):
    """Solve S u = W rhs with zero Dirichlet data on the grid of the
    ``RadialOperator`` ``op``; returns all nodes."""
    free = banded.stiffness_solve(op, op.w[:-1] * rhs_interior)
    return np.concatenate([free, [0.0]])
