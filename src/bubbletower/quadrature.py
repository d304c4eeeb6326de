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
from .profiles import Dimension, bubble_radial, psi_radial

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

@lru_cache(maxsize=1)
def _panel_rule():
    """The 8- and 16-point Gauss-Legendre nodes side by side, and the two
    weight vectors."""
    x8, w8 = np.polynomial.legendre.leggauss(8)
    x16, w16 = np.polynomial.legendre.leggauss(16)
    return np.concatenate([x8, x16]), w8, w16


def _panel_nodes(lo, hi):
    """The 24 nodes of each panel [lo_i, hi_i] (8 coarse, then 16 fine),
    panel after panel, and the panels' half-widths."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return (mid[:, None] + half[:, None] * _panel_rule()[0]).ravel(), half


def _row_panels(y, lo, hi, half) -> list:
    """The panels [lo_i, hi_i] of each row of the values ``y``, of shape
    (rows, 24 x panels), on their nodes: per row, five columns of Python
    floats, (|fine - coarse|, lo, hi, fine, |fine|), one entry per panel in
    the order given.  ``lo`` and ``hi`` are sequences of floats, and
    ``half`` their half-widths.

    Each value is ``half`` times the dot product of the weights with the
    panel's own slice of its row, taken as a stacked matmul of (1, m) by
    (m, 1) over all rows' panels at once: numpy evaluates each of those
    with the BLAS ``ddot`` that ``np.dot`` of the two vectors calls, so the
    sums are the panel-at-a-time ones bit for bit, and each row's sums are
    those of the row alone.  A row-wise matrix-vector product
    (``y[:, :8] @ w8``) goes to ``dgemv`` and rounds differently in the
    last bit on most rows.
    """
    _, w8, w16 = _panel_rule()
    rows = len(y)
    y = y.reshape(rows * len(half), 1, 24)
    h = np.tile(half, rows)
    coarse = h * np.matmul(y[:, :, :8], w8[:, None])[:, 0, 0]
    fine = h * np.matmul(y[:, :, 8:], w16[:, None])[:, 0, 0]
    fine_abs = h * np.matmul(np.abs(y[:, :, 8:]), w16[:, None])[:, 0, 0]
    err = np.abs(fine - coarse).reshape(rows, -1)
    fine, fine_abs = fine.reshape(rows, -1), fine_abs.reshape(rows, -1)
    return [(e.tolist(), list(lo), list(hi), v.tolist(), a.tolist())
            for e, v, a in zip(err, fine, fine_abs)]


@lru_cache(maxsize=64)
def _seed_panels(a: float, b: float, seeds: tuple):
    """The edges a, b and the distinct ``seeds`` in [a, b] in increasing
    order, and the nodes and half-widths of the panels between them;
    memoised, so the edges are a tuple and the arrays read-only."""
    edges = sorted({s for s in seeds if a <= s <= b} | {a, b})
    nodes, half = _panel_nodes(edges[:-1], edges[1:])
    nodes.flags.writeable = False
    half.flags.writeable = False
    return tuple(edges), nodes, half


def _adaptive_gl(f, a: float, b: float, rel_tol: float, *,
                 seeds=None, max_panels: int = 4000):
    """Adaptive Gauss-Legendre integration of a vectorised ``f`` on [a, b].

    Returns (value, error_estimate, abs_integral).  Panels are split at their
    midpoint while the summed 8- vs 16-point panel discrepancy exceeds the
    relative target, taken against the larger of |integral| and the
    integral of |f|; the panel with the largest discrepancy is split first.
    After ``max_panels`` splits, ``AccuracyError`` reports the discrepancy
    of the last panels.

    ``f(x)`` may also have shape (rows, len(x)), one integrand per row; the
    result is then a list of triples, one per row.  After one call of ``f``
    on all seed panels, each round, every row that fails its error test
    splits its own worst panel, and one call on all those halves serves
    them all.  ``f`` must therefore be pointwise, its value at a node
    independent of the other nodes of the call.  Each row keeps its own
    panels and budget, so its triple (or ``AccuracyError``, the first
    row's if several run out) is the one it has when integrated alone.

    A row's panels are kept as the five columns of :func:`_row_panels`, and
    each sum runs over a column in panel order.  Only a split reorders
    them: the columns are permuted together by a stable sort on the
    discrepancy, the last panel is dropped and its two halves are
    appended.  An integral accepted on its seed panels therefore sorts
    nothing, and the seed panels' nodes are memoised on (a, b, seeds).
    """
    seeds = () if seeds is None else tuple(np.asarray(seeds, float).tolist())
    edges, nodes, half = _seed_panels(float(a), float(b), seeds)
    y = np.asarray(f(nodes))
    rows = _row_panels(np.atleast_2d(y), edges[:-1], edges[1:], half)
    out, live = [None] * len(rows), range(len(rows))
    for _ in range(max_panels):
        for j in live:
            errs, _, _, fines, abss = rows[j]
            total, total_abs, err = sum(fines), sum(abss), sum(errs)
            if err <= rel_tol * max(abs(total), total_abs, 1e-300):
                out[j] = total, err, total_abs
        live = [j for j in live if out[j] is None]
        if not live:
            return out if y.ndim > 1 else out[0]
        # each live row drops its worst panel; its two halves follow, live
        # row after live row, in one call
        lo, hi = [], []
        for j in live:
            errs, los, his = rows[j][:3]
            order = sorted(range(len(errs)), key=errs.__getitem__)
            worst = order.pop()
            mid = 0.5 * (los[worst] + his[worst])
            lo += [los[worst], mid]
            hi += [mid, his[worst]]
            rows[j] = [[col[i] for i in order] for col in rows[j]]
        nodes, half = _panel_nodes(lo, hi)
        halves = np.atleast_2d(f(nodes)).reshape(len(rows), len(live), 48)
        for p, j in enumerate(live):
            two = slice(2 * p, 2 * p + 2)
            cut = _row_panels(halves[j, p][None], lo[two], hi[two], half[two])
            for col, new in zip(rows[j], cut[0]):
                col += new
    err = sum(rows[live[0]][0])
    raise AccuracyError(
        f"adaptive quadrature exhausted its panel budget (err ~ {err:.3e})",
        estimate=err)


def _ball_panel_edges(radius: float, scales) -> np.ndarray:
    """Panel edges on [0, R] for integrands that peak at the ``scales``:
    [0, rmin], then geometric panels from rmin = min(scales)/100 to R,
    eight per decade and at least four.  The Gram rule's nodes and the
    seed panels of the scaling-law integrals.  The layout is memoised on
    (R, rmin), so the array is shared and read-only.
    """
    return _geometric_edges(float(radius), float(min(scales)) / 100.0)


@lru_cache(maxsize=64)
def _geometric_edges(radius: float, rmin: float) -> np.ndarray:
    count = max(4, int(np.ceil(np.log10(radius / rmin) * 8)))
    edges = np.concatenate([[0.0], np.geomspace(rmin, radius, count + 1)])
    edges.flags.writeable = False
    return edges


def _ball_rule(radius: float, scales):
    """The 16-point Gauss-Legendre nodes and weights of the seed panels of
    the ball integrals that peak at ``scales`` (the panels of
    :func:`_ball_panel_edges`, as :func:`_seed_panels` builds them); the
    weights carry no r^{n-1} factor.
    """
    edges = tuple(_ball_panel_edges(radius, scales).tolist())
    _, nodes, half = _seed_panels(0.0, float(radius), edges)
    rnodes = nodes.reshape(len(half), 24)[:, 8:].ravel()
    rweights = (half[:, None] * _panel_rule()[2]).ravel()
    return rnodes, rweights


def integrate_radial(g, *, seeds=()):
    """Integral of a vectorised ``g(r)`` over the half line r >= 0, to the
    relative target ``_RADIAL_TOL``.

    Maps r = u/(1-u) onto [0, 1); suitable whenever ``g`` decays at an
    integrable rate.  Returns the value only.
    """
    def mapped(u):
        u = np.asarray(u)
        r = u / (1.0 - u)
        return g(r) / (1.0 - u) ** 2

    mapped_seeds = [s / (1.0 + s) for s in seeds]
    val, _, _ = _adaptive_gl(mapped, 0.0, 1.0, _RADIAL_TOL,
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
    constants: its closed form.
    """
    n, al, om = dim.n, dim.alpha, dim.sphere_area
    if idx == 1:
        def g(r):
            upm1 = al ** (dim.p - 1.0) * (1.0 + r * r) ** (-2.0)
            return dim.p * upm1 * psi_radial(dim, r, 1.0) * r ** (n - 1.0)
        return om * integrate_radial(g, seeds=(1.0, 4.0))
    if idx == 2:
        def g(r):
            return bubble_radial(dim, r, 1.0) ** dim.p * r ** (n - 1.0)
        return om * integrate_radial(g, seeds=(1.0, 4.0))
    if idx == 3:
        return const_a_closed(dim, 3)
    if idx == 4:
        pref = 0.25 * (n - 2.0) ** 2 * al ** dim.two_star * om
        def g(r):
            # (r/(1+r^2))^{n-1} underflows to 0 far out, where r^{n-1} and
            # (1+r^2)^{n+1} separately would overflow
            return ((r / (1.0 + r * r)) ** (n - 1.0) * (r * r - 1.0)
                    * np.log1p(r * r) / (1.0 + r * r) ** 2)
        return pref * integrate_radial(g, seeds=(1.0, 4.0))
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

    return integrate_radial(g, seeds=(1.0, max(1.0, s), max(2.0, 2.0 * s)))


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
            return dim.p * upm1 * psi_radial(dim, r, 1.0) ** 2 * r ** (n - 1.0)
    else:
        def g(r):
            upm1 = al ** (dim.p - 1.0) * (1.0 + r * r) ** (-2.0)
            rad = (n - 2.0) * al / (1.0 + r * r) ** (n / 2.0)
            return dim.p * upm1 * rad ** 2 * (r * r / n) * r ** (n - 1.0)
    return dim.sphere_area * integrate_radial(g, seeds=(1.0, 4.0))


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
