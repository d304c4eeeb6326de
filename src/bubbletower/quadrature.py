"""Adaptive Gauss-Legendre quadrature on an interval and on the half line,
and the coefficients of the reduced finite-dimensional system.

The four coefficients have the following roles:

* ``a1`` weights the Robin-function term of the scale equation (it is the
  pairing of the linearised bubble nonlinearity with the dilation mode);
* ``a2`` is the total nonlinear mass of the bubble, which by the divergence
  theorem equals (n-2) alpha_n omega_{n-1};
* ``a3`` weights the layer-interaction term, ((n-2)/2) alpha_n^{2*};
* ``a4`` weights the logarithmic self-energy of a layer.  Its quadrature
  route is the log-weighted radial moment
  ((n-2)^2 alpha^{2*} omega / 4) * ∫ r^{n-1}(r^2-1) ln(1+r^2) (1+r^2)^{-(n+1)} dr,
  whose Beta-function evaluation gives the closed form
  Γ(n/2) π^{n/2} / (4 Γ(n+1)) * n^{n/2} (n-2)^{(n+4)/2}.

``g_sigma`` is the drift-interaction kernel: the Newtonian-potential average
of |y|^{2-n} against the bubble-power density centred at sigma.  It depends
on |sigma| only.

Γ comes from ``math.gamma`` and the Gauss rule for the weight (1-t^2)^a from
:func:`gauss_jacobi_sym` (Golub-Welsch with a Newton polish), so importing
this module loads no scipy.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import AccuracyError, ParameterError
from .profiles import Dimension

__all__ = [
    "beta",
    "gauss_jacobi_sym",
    "integrate_radial",
    "const_a",
    "const_a_closed",
    "g_sigma",
    "g_sigma_closed",
    "gram_limit_constant",
    "tabulate_g",
]


# relative target of the half-line integrals behind the reduced constants
_RADIAL_TOL = 1e-10


def beta(p: float, q: float) -> float:
    """Euler's Beta function Γ(p)Γ(q)/Γ(p+q), for p + q below Γ's overflow (171)."""
    return math.gamma(p) * math.gamma(q) / math.gamma(p + q)


# ---------------------------------------------------------------------------
# Gauss rule for the weight (1-t^2)^a
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def gauss_jacobi_sym(m: int, a: float):
    """m-point Gauss rule for ∫_{-1}^{1} f(t) (1-t^2)^a dt, with a > -1/2.

    Golub-Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of the
    symmetric tridiagonal Jacobi matrix of the orthonormal polynomials for
    this weight (zero diagonal, off-diagonal b_j = sqrt(j(j+2a)/((2j+2a)^2-1))),
    each polished by one Newton step on p_m evaluated by the three-term
    recurrence; the weights are the Christoffel numbers 1/Σ_{j<m} p_j(t)^2 at
    the polished nodes.  Nodes and weights are then symmetrised antipodally,
    so odd integrands cancel exactly.  Exact for polynomials of degree 2m-1.
    The returned arrays are cached and read-only.
    """
    if m < 1 or not a > -0.5:
        raise ParameterError(f"need m >= 1 and a > -1/2, got m={m}, a={a}")
    j = np.arange(1.0, m + 1.0)
    b = np.sqrt(j * (j + 2.0 * a) / ((2.0 * j + 2.0 * a) ** 2 - 1.0))
    p0 = 1.0 / math.sqrt(beta(0.5, a + 1.0))

    def recurrence(t):
        """p_m, p_m' and Σ_{j<m} p_j^2 at the points t."""
        p_prev, p = np.zeros_like(t), np.full_like(t, p0)
        dp_prev, dp = np.zeros_like(t), np.zeros_like(t)
        sumsq = p * p
        for i in range(m):
            b_prev = b[i - 1] if i else 0.0
            p_prev, p = p, (t * p - b_prev * p_prev) / b[i]
            dp_prev, dp = dp, (p_prev + t * dp - b_prev * dp_prev) / b[i]
            if i < m - 1:
                sumsq += p * p
        return p, dp, sumsq

    t = np.linalg.eigvalsh(np.diag(b[:-1], 1), UPLO="U")
    pm, dpm, _ = recurrence(t)
    t = t - pm / dpm
    _, _, sumsq = recurrence(t)
    w = 1.0 / sumsq
    t = 0.5 * (t - t[::-1])
    w = 0.5 * (w + w[::-1])
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


# ---------------------------------------------------------------------------
# adaptive Gauss-Legendre panels
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _leggauss(m: int):
    x, w = np.polynomial.legendre.leggauss(m)
    return x, w


@lru_cache(maxsize=1)
def _panel_rule():
    """The 8- and 16-point Gauss-Legendre nodes side by side, and the two
    weight vectors."""
    x8, w8 = _leggauss(8)
    x16, w16 = _leggauss(16)
    return np.concatenate([x8, x16]), w8, w16


def _panels(f, lo, hi) -> list:
    """``(|fine - coarse|, lo, hi, fine, |fine|)`` of each panel [lo_i, hi_i].

    ``f`` is called once, on the 24 nodes of every panel (8 coarse, then
    16 fine), panel after panel.  Each value is ``half`` times the dot
    product of the weights with the panel's own slice, taken as a stacked
    matmul of (1, m) by (m, 1): numpy evaluates each of those with the
    BLAS ``ddot`` that ``np.dot`` of the two vectors calls, so the sums
    are the panel-at-a-time ones bit for bit.  A row-wise matrix-vector
    product (``y[:, :8] @ w8``) goes to ``dgemv`` and rounds differently
    in the last bit on most rows.
    """
    x, w8, w16 = _panel_rule()
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    y = np.asarray(f((mid[:, None] + half[:, None] * x).ravel()))
    y = y.reshape(len(lo), 1, len(x))
    coarse = half * np.matmul(y[:, :, :8], w8[:, None])[:, 0, 0]
    fine = half * np.matmul(y[:, :, 8:], w16[:, None])[:, 0, 0]
    fine_abs = half * np.matmul(np.abs(y[:, :, 8:]), w16[:, None])[:, 0, 0]
    return list(zip(np.abs(fine - coarse).tolist(), lo.tolist(), hi.tolist(),
                    fine.tolist(), fine_abs.tolist()))


def _adaptive_gl(f, a: float, b: float, rel_tol: float, *,
                 seeds=None, max_panels: int = 4000):
    """Adaptive Gauss-Legendre integration of a vectorised ``f`` on [a, b].

    Returns (value, error_estimate, abs_integral).  Panels are split at their
    midpoint while the summed 8- vs 16-point panel discrepancy exceeds the
    relative target, taken against the larger of |integral| and the
    integral of |f|; the panel with the largest discrepancy is split first.

    ``f`` is evaluated on the nodes of several panels at once: one call for
    all seed panels, then one call per split for both halves.  It must
    therefore be pointwise, its value at a node independent of the other
    nodes of the call.
    """
    if seeds is None:
        seeds = [a, b]
    seeds = sorted(set(float(s) for s in seeds if a <= s <= b) | {a, b})
    panels = _panels(f, seeds[:-1], seeds[1:]) if len(seeds) > 1 else []
    for _ in range(max_panels):
        total = sum(p[3] for p in panels)
        total_abs = sum(p[4] for p in panels)
        err = sum(p[0] for p in panels)
        scale = max(abs(total), total_abs, 1e-300)
        if err <= rel_tol * scale:
            return total, err, total_abs
        panels.sort(key=lambda p: p[0])
        _, lo, hi, _, _ = panels.pop()
        mid = 0.5 * (lo + hi)
        panels.extend(_panels(f, [lo, mid], [mid, hi]))
    err = sum(p[0] for p in panels)
    raise AccuracyError(
        f"adaptive quadrature exhausted its panel budget (err ~ {err:.3e})",
        estimate=err)


def integrate_radial(g, rel_tol: float = 1e-10, *, seeds=()):
    """Integral of a vectorised ``g(r)`` over the half line r >= 0.

    Maps r = u/(1-u) onto [0, 1); suitable whenever ``g`` decays at an
    integrable rate.  Returns the value only.
    """
    def mapped(u):
        u = np.asarray(u)
        r = u / (1.0 - u)
        return g(r) / (1.0 - u) ** 2

    mapped_seeds = [s / (1.0 + s) for s in seeds]
    val, _, _ = _adaptive_gl(mapped, 0.0, 1.0, rel_tol,
                             seeds=[0.0, 0.5, *mapped_seeds, 1.0 - 1e-12])
    return val


# ---------------------------------------------------------------------------
# reduced-system coefficients
# ---------------------------------------------------------------------------

def const_a(dim: Dimension, idx: int) -> float:
    """Coefficient ``idx`` (1..4) of the reduced system, by radial quadrature.

    The integrands are radial, so the spherical factor is the exact sphere
    area and the radial integral is evaluated adaptively on the half line
    to the fixed relative target 1e-10.  ``a3`` is a finite product of
    constants and is returned directly.
    """
    n, al, om = dim.n, dim.alpha, dim.sphere_area
    if idx == 1:
        def g(r):
            upm1 = al ** (dim.p - 1.0) * (1.0 + r * r) ** (-2.0)
            psi0 = 0.5 * (n - 2.0) * al * (r * r - 1.0) / (1.0 + r * r) ** (n / 2.0)
            return dim.p * upm1 * psi0 * r ** (n - 1.0)
        return om * integrate_radial(g, _RADIAL_TOL, seeds=(1.0, 4.0))
    if idx == 2:
        def g(r):
            return (al * (1.0 + r * r) ** (-(n - 2.0) / 2.0)) ** dim.p * r ** (n - 1.0)
        return om * integrate_radial(g, _RADIAL_TOL, seeds=(1.0, 4.0))
    if idx == 3:
        return 0.5 * (n - 2.0) * al ** dim.two_star
    if idx == 4:
        pref = 0.25 * (n - 2.0) ** 2 * al ** dim.two_star * om
        def g(r):
            # (r/(1+r^2))^{n-1} underflows to 0 far out, where r^{n-1} and
            # (1+r^2)^{n+1} separately would overflow
            return ((r / (1.0 + r * r)) ** (n - 1.0) * (r * r - 1.0)
                    * np.log1p(r * r) / (1.0 + r * r) ** 2)
        return pref * integrate_radial(g, _RADIAL_TOL, seeds=(1.0, 4.0))
    raise ParameterError(f"constant index must be 1..4, got {idx}")


def const_a_closed(dim: Dimension, idx: int) -> float:
    """Closed forms of the reduced-system coefficients.

    a2 follows from the divergence theorem applied to the bubble equation,
    a1 from differentiating the scale family of bubble masses, a4 from a
    Beta-function reduction of the log-weighted radial moment.
    """
    n, al, om = dim.n, dim.alpha, dim.sphere_area
    if idx == 1:
        return 0.5 * (n - 2.0) * const_a_closed(dim, 2)
    if idx == 2:
        return (n - 2.0) * al * om
    if idx == 3:
        return 0.5 * (n - 2.0) * al ** dim.two_star
    if idx == 4:
        return (math.gamma(n / 2.0) * np.pi ** (n / 2.0)
                / (4.0 * math.gamma(n + 1.0)) * n ** (n / 2.0) * (n - 2.0) ** ((n + 4.0) / 2.0))
    raise ParameterError(f"constant index must be 1..4, got {idx}")


def g_sigma(dim: Dimension, sigma) -> float:
    """Drift-interaction kernel ∫ |y|^{2-n} (1+|y-sigma|^2)^{-(n+2)/2} dy.

    Rotation-invariant, so it is reduced to a polar integral: the zonal
    angle is handled by the Gauss rule of :func:`gauss_jacobi_sym` against
    (1-t^2)^{(n-3)/2} and the radial factor r^{n-1} |y|^{2-n} = r leaves no
    singularity at the origin.  The radial integrand is still split at r = 1,
    where the original integrand has its integrable kink.  The radial
    integral runs to the fixed relative target 1e-10.
    """
    s = float(np.linalg.norm(np.atleast_1d(np.asarray(sigma, dtype=float))))
    if not np.isfinite(s):
        raise ParameterError("sigma must be finite")
    n = dim.n
    # the polar integrand sharpens as r ~ |sigma| grows (its complex
    # singularity approaches the integration segment), so scale the order
    order = min(512, max(48, int(40 * (1.0 + s))))
    t, wt = gauss_jacobi_sym(order, (n - 3) / 2.0)
    om2 = 2.0 * np.pi ** ((n - 1) / 2.0) / math.gamma((n - 1) / 2.0)

    def g(r):
        r = np.asarray(r)
        q = (1.0 + r[:, None] ** 2 - 2.0 * r[:, None] * s * t[None, :] + s * s)
        return om2 * r * (q ** (-(n + 2.0) / 2.0) * wt).sum(axis=1)

    return integrate_radial(g, _RADIAL_TOL,
                            seeds=(1.0, max(1.0, s), max(2.0, 2.0 * s)))


def g_sigma_closed(dim: Dimension, s: float) -> float:
    """Shell-theorem evaluation of :func:`g_sigma`.

    Decomposing the density into spherical shells and using that the
    potential kernel |y|^{2-n} averages to min(|y|, s)^{2-n} on shells gives
    (omega_{n-1}/n) (1+s^2)^{-(n-2)/2}; both elementary pieces reduce to
    incomplete Beta integrals of order one.
    """
    return dim.sphere_area / dim.n * (1.0 + float(s) ** 2) ** (-(dim.n - 2.0) / 2.0)


def gram_limit_constant(dim: Dimension, h: int) -> float:
    """Limit of the diagonal kernel-mode pairings, p ∫ U^{p-1} (psi^h)^2.

    For h >= 1 the angular average of the squared coordinate contributes a
    factor r^2/n; the value is the same for every h >= 1 by symmetry.  The
    radial integral runs to the fixed relative target 1e-10.
    """
    n, al = dim.n, dim.alpha
    if not (0 <= h <= n):
        raise ParameterError(f"kernel index must be in 0..{n}, got {h}")
    if h == 0:
        def g(r):
            upm1 = al ** (dim.p - 1.0) * (1.0 + r * r) ** (-2.0)
            psi0 = 0.5 * (n - 2.0) * al * (r * r - 1.0) / (1.0 + r * r) ** (n / 2.0)
            return dim.p * upm1 * psi0 ** 2 * r ** (n - 1.0)
    else:
        def g(r):
            upm1 = al ** (dim.p - 1.0) * (1.0 + r * r) ** (-2.0)
            rad = (n - 2.0) * al / (1.0 + r * r) ** (n / 2.0)
            return dim.p * upm1 * rad ** 2 * (r * r / n) * r ** (n - 1.0)
    return dim.sphere_area * integrate_radial(g, _RADIAL_TOL,
                                              seeds=(1.0, 4.0))


def tabulate_g(dim: Dimension, s_values=None):
    """Tabulate g over |sigma| and classify the extremum at the origin.

    Returns ``(table, kind)`` where ``table`` is an array of rows
    (|sigma|, g) and ``kind`` is "maximum", "minimum" or "neither" as
    observed from the tabulated profile.
    """
    if s_values is None:
        s_values = np.linspace(0.0, 3.0, 13)
    rows = np.array([[s, g_sigma(dim, [s] + [0.0] * (dim.n - 1))]
                     for s in s_values])
    g0 = rows[0, 1]
    rest = rows[1:, 1]
    if np.all(g0 > rest):
        kind = "maximum"
    elif np.all(g0 < rest):
        kind = "minimum"
    else:
        kind = "neither"
    return rows, kind


def bubble_power_integral(dim: Dimension) -> float:
    """∫ U^{2*} dy via its Beta-function reduction (independent 1-D oracle)."""
    n = dim.n
    return (dim.alpha ** dim.two_star * dim.sphere_area
            * 0.5 * beta(n / 2.0, n / 2.0))
