"""Adaptive quadrature over R^n (radial panels x spherical rule) and the
coefficients of the reduced finite-dimensional system.

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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AccuracyError, ParameterError
from .profiles import Dimension

__all__ = [
    "QuadSpec",
    "beta",
    "gauss_jacobi_sym",
    "sphere_rule",
    "integrate_rn",
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


@dataclass(frozen=True)
class QuadSpec:
    """Controls of :func:`integrate_rn`, the product rule over R^n.

    ``truncation_radius=None`` lets :func:`integrate_rn` pick the radius from
    a decay probe of the integrand with a 10x safety factor on the tail bound.
    The reduced constants integrate over the half line instead and take no
    spec.
    """

    radial_panels: int = 24
    spherical_order: int = 12
    truncation_radius: float | None = None
    rel_tol: float = 1e-9

    def __post_init__(self):
        if not (0.0 < self.rel_tol <= 1e-3):
            raise ParameterError(
                f"target relative tolerance must be in (0, 1e-3], got {self.rel_tol}")
        if self.radial_panels < 2 or self.spherical_order < 2:
            raise ParameterError("radial_panels and spherical_order must be >= 2")


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
# spherical product rule
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def sphere_rule(n: int, order: int):
    """Quadrature nodes/weights on the unit sphere S^{n-1}.

    Built recursively: the Gauss rule of :func:`gauss_jacobi_sym` in the
    polar cosine against the weight (1-t^2)^{(n-3)/2}, crossed with a rule on
    the equatorial sphere; the azimuthal level is a midpoint rule, exact for
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
    a = (n - 3) / 2.0
    t, wt = gauss_jacobi_sym(order, a)
    zpts, zw = sphere_rule(n - 1, order)
    s = np.sqrt(np.maximum(1.0 - t * t, 0.0))
    pts = np.concatenate(
        [t[:, None, None] * np.ones((1, len(zw), 1)),
         s[:, None, None] * zpts[None, :, :]], axis=-1)
    w = wt[:, None] * zw[None, :]
    return pts.reshape(-1, n), w.ravel()


# ---------------------------------------------------------------------------
# adaptive Gauss-Legendre panels
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _leggauss(m: int):
    x, w = np.polynomial.legendre.leggauss(m)
    return x, w


def _panel_values(f, a, b, m):
    x, w = _leggauss(m)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    y = f(mid + half * x)
    return half * float(np.dot(w, y)), half * float(np.dot(w, np.abs(y)))


def _adaptive_gl(f, a: float, b: float, rel_tol: float, *,
                 seeds=None, max_panels: int = 4000, abs_floor: float = 0.0):
    """Adaptive Gauss-Legendre integration of a vectorised ``f`` on [a, b].

    Returns (value, error_estimate, abs_integral).  Panels are split at their
    midpoint while the 8- vs 16-point panel discrepancy exceeds both the
    relative target and ``abs_floor`` (the caller's roundoff level, which
    keeps sign-cancelled integrands from being subdivided forever).
    """
    if seeds is None:
        seeds = [a, b]
    seeds = sorted(set(float(s) for s in seeds if a <= s <= b) | {a, b})
    panels = []
    for lo, hi in zip(seeds[:-1], seeds[1:]):
        if hi > lo:
            coarse, _ = _panel_values(f, lo, hi, 8)
            fine, fabs = _panel_values(f, lo, hi, 16)
            panels.append((abs(fine - coarse), lo, hi, fine, fabs))
    for _ in range(max_panels):
        total = sum(p[3] for p in panels)
        total_abs = sum(p[4] for p in panels)
        err = sum(p[0] for p in panels)
        scale = max(abs(total), total_abs, 1e-300)
        if err <= max(rel_tol * scale, abs_floor):
            return total, err, total_abs
        panels.sort(key=lambda p: p[0])
        _, lo, hi, _, _ = panels.pop()
        mid = 0.5 * (lo + hi)
        for l2, h2 in ((lo, mid), (mid, hi)):
            coarse, _ = _panel_values(f, l2, h2, 8)
            fine, fabs = _panel_values(f, l2, h2, 16)
            panels.append((abs(fine - coarse), l2, h2, fine, fabs))
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
# integrate over R^n
# ---------------------------------------------------------------------------

def integrate_rn(dim: Dimension, integrand, spec: QuadSpec | None = None):
    """Integrate ``integrand`` over R^n by radial panels x spherical rule.

    ``integrand`` maps an (M, n) array of points to (M,) values and must
    decay at least like |y|^{-(n+delta)}.  Returns ``(value, error_estimate)``
    where the estimate combines panel discrepancies with the analytic tail
    bound of the truncated far field.

    Raises :class:`AccuracyError` when the budget is exhausted before the
    target relative tolerance is met.
    """
    spec = spec or QuadSpec()
    n = dim.n
    pts, w = sphere_rule(n, spec.spherical_order)

    def shell(r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        xy = r[:, None, None] * pts[None, :, :]
        vals = integrand(xy.reshape(-1, n)).reshape(len(r), -1)
        return (vals @ w) * r ** (n - 1)

    def shell_abs(r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        xy = r[:, None, None] * pts[None, :, :]
        vals = np.abs(integrand(xy.reshape(-1, n))).reshape(len(r), -1)
        return (vals @ w) * r ** (n - 1)

    def tail_bound(R):
        """10x-safety far-field bound beyond R from a two-point decay probe.

        When the spherical rule cancels the shell average exactly (odd
        integrands under symmetric truncation), the signed tail sits at
        roundoff level even if the absolute integrand decays slowly; such
        radii are flagged as parity-cancelled.
        """
        sa1 = float(shell_abs(np.array([0.5 * R]))[0])
        sa2 = float(shell_abs(np.array([R]))[0])
        sg2 = abs(float(shell(np.array([R]))[0]))
        if sa2 == 0.0:
            return 0.0, True
        if sg2 <= 1e-12 * sa2:
            return sg2 * R, True
        rate = np.log(sa2 / sa1) / np.log(2.0)  # shell_abs ~ r^rate
        if rate >= -1.05:
            return np.inf, False
        return 10.0 * sa2 * R / (-rate - 1.0), False

    if spec.truncation_radius is not None:
        R = float(spec.truncation_radius)
        tail, parity = tail_bound(R)
        if not np.isfinite(tail):
            tail = float(shell_abs(np.array([R]))[0]) * R
    else:
        R = 8.0
        tail, parity = tail_bound(R)
        while not np.isfinite(tail) and R < 1e9:
            R *= 2.0
            tail, parity = tail_bound(R)
        if not np.isfinite(tail):
            raise AccuracyError(
                "could not find a truncation radius with a controlled tail",
                estimate=tail)

    value = err = absint = None
    for _ in range(40):
        seeds = list(np.geomspace(max(R * 1e-6, 1e-12), R,
                                  max(spec.radial_panels, 4)))
        # roundoff floor from the absolute shell mass over the seed panels
        mass = 0.0
        for lo, hi in zip([0.0, *seeds][:-1], seeds):
            _, fabs = _panel_values(shell_abs, lo, hi, 16)
            mass += fabs
        floor = 1e-14 * mass
        value, err, absint = _adaptive_gl(shell, 0.0, R, spec.rel_tol,
                                          seeds=[0.0, *seeds],
                                          abs_floor=floor)
        scale = max(abs(value), absint, 1e-300)
        if (parity or tail <= 2.0 * spec.rel_tol * scale
                or spec.truncation_radius is not None):
            break
        R *= 2.0
        tail, parity = tail_bound(R)
    total_err = err + tail
    scale = max(abs(value), absint, 1e-300)
    if total_err > 10.0 * max(spec.rel_tol * scale, floor):
        raise AccuracyError(
            f"quadrature reached {total_err:.3e}, above the requested "
            f"{spec.rel_tol:.1e} relative tolerance", estimate=total_err)
    return value, total_err


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
        return om2 * r * (q ** (-(n + 2.0) / 2.0) @ wt)

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
