"""Systematic verification of the small-parameter scaling laws: integral
norms of the profiles, nonlinear interaction norms over a tower, projection
errors, and the Gram-matrix structure.

Each check sweeps eps over a geometric grid, measures the quantity by
quadrature, fits the order against the driving variable on log-log axes
(dividing out a known logarithmic factor first where one is predicted) and
grades the fit:

    pass      |fitted - predicted| <= tol
    marginal  |fitted - predicted| <= 2 tol
    fail      otherwise

with tol = 0.2 when a log factor was divided out and 0.1 otherwise.  The
raw sweep data always travels with the verdict so failures are auditable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import BallDomain
from .errors import ParameterError
from .profiles import Dimension, f_eps, f_eps_prime
from .projection import (gram_matrix, project_bubble_radial,
                         project_tower_radial, psi0_boundary_trace)
from .quadrature import _adaptive_gl, beta
from .profiles import bubble_radial, psi_radial
from .tower import TowerConfig, fit_asymptotic_order, scale_variable

__all__ = [
    "VerdictRow",
    "default_eps_grid",
    "verify_norm_scaling",
    "verify_nonlinear_interactions",
    "verify_projection_and_gram",
]

_INTERACTION_CASES = ("sumbu2", "fepli1", "fepli2")


@dataclass
class VerdictRow:
    """One verified scaling law: sweep data, fit, and three-valued verdict."""

    name: str
    sweep_var: str
    data: list                      # (x, measured) pairs
    predicted: float
    fitted: float
    half_width: float
    tol: float
    verdict: str
    one_sided: bool = False
    note: str = ""


def default_eps_grid() -> np.ndarray:
    """Geometric eps sweep 2^-3 .. 2^-10 (two decades, affordable quadrature)."""
    return 2.0 ** -np.arange(3, 11, dtype=float)


def _grade(predicted, fitted, tol, one_sided=False):
    if np.isnan(fitted):
        return "fail"
    gap = predicted - fitted if one_sided else abs(fitted - predicted)
    gap = max(gap, 0.0)
    if gap <= tol:
        return "pass"
    if gap <= 2.0 * tol:
        return "marginal"
    return "fail"


def _make_row(name, var, data, predicted, logfactor, one_sided=False):
    tol = 0.2 if logfactor else 0.1
    vals = np.asarray(data, dtype=float)
    if np.all(vals[:, 1] > 0):
        fitted, half = fit_asymptotic_order(vals)
    else:
        fitted, half = float("nan"), float("nan")
    verdict = _grade(predicted, fitted, tol, one_sided)
    return VerdictRow(name, var, [tuple(v) for v in vals], predicted,
                      fitted, half, tol, verdict, one_sided)


def _ball_lq_integral(dim: Dimension, profile, q: float, mu: float,
                      radius: float = 1.0, angular: float | None = None,
                      rel_tol: float = 1e-9) -> float:
    """∫_ball |profile(r)|^q r^{n-1} dr times the angular factor."""
    if angular is None:
        angular = dim.sphere_area

    def g(r):
        return np.abs(profile(r)) ** q * r ** (dim.n - 1.0)

    seeds = sorted({0.0, mu / 8.0, mu, 8.0 * mu, np.sqrt(mu), radius / 2.0,
                    radius})
    seeds = [s for s in seeds if 0.0 <= s <= radius]
    val, _, _ = _adaptive_gl(g, 0.0, radius, rel_tol, seeds=seeds)
    return angular * val


def _coordinate_moment(dim: Dimension, q: float) -> float:
    """∫_{S^{n-1}} |y_1|^q dS for the translation-mode norms."""
    n = dim.n
    return dim.sphere_area * beta((q + 1.0) / 2.0, (n - 1.0) / 2.0) \
        / beta(0.5, (n - 1.0) / 2.0)


def verify_norm_scaling(dim: Dimension, which: str, q: float, *,
                        eps_grid=None, radius: float = 1.0) -> VerdictRow:
    """Fit the order of ∫_ball |profile_mu|^q against the sweep variable.

    ``which`` selects the bubble ("U"), the dilation mode ("psi0") or a
    translation mode ("psih").  The three regimes of each scaling law give
    the predicted exponent in t = eps/|ln eps|^2 with mu = t^{1/(n-2)}; the
    critical exponents carry one |ln t| factor which is divided out.
    """
    n = dim.n
    if not (0.0 < q <= dim.two_star):
        raise ParameterError(f"q must lie in (0, {dim.two_star}], got {q}")
    if eps_grid is None:
        eps_grid = default_eps_grid()
    crit = {"U": n / (n - 2.0), "psi0": n / (n - 2.0),
            "psih": n / (n - 1.0)}.get(which)
    if crit is None:
        raise ParameterError(f"unknown profile selector {which!r}")
    if which == "psih":
        low_exp = n * q / (2.0 * (n - 2.0))
        crit_exp = n**2 / (2.0 * (n - 1.0) * (n - 2.0))
    else:
        low_exp = q / 2.0
        crit_exp = n / (2.0 * (n - 2.0))
    if np.isclose(q, crit):
        predicted, logfactor = crit_exp, True
    elif q < crit:
        predicted, logfactor = low_exp, False
    else:
        predicted, logfactor = n / (n - 2.0) - q / 2.0, False

    angular = _coordinate_moment(dim, q) if which == "psih" else None
    rows = []
    for eps in eps_grid:
        t = scale_variable(eps)
        mu = t ** (1.0 / (n - 2.0))
        if which == "U":
            profile = lambda r: bubble_radial(dim, r, mu)
        elif which == "psi0":
            profile = lambda r: psi_radial(dim, r, mu)
        else:
            # radial factor of the translation mode; |y_1|^q handled by the
            # angular moment
            profile = lambda r: ((n - 2.0) * dim.alpha * mu ** (n / 2.0)
                                 * r / (mu * mu + r * r) ** (n / 2.0))
        val = _ball_lq_integral(dim, profile, q, mu, radius, angular)
        rows.append((t, val / abs(np.log(t)) if logfactor else val))
    row = _make_row(f"norm[{which}, q={q:g}]", "eps/|ln eps|^2", rows,
                    predicted, logfactor)
    if logfactor:
        row.note = "one |ln t| factor divided out before fitting"
    return row


def _tower_profiles(dom: BallDomain, cfg: TowerConfig):
    """Radial callables for the tower and its projected layers."""
    layers = [(b.sign, b.mu) for b in cfg.params]
    return lambda r: project_tower_radial(dom, r, cfg.params), layers


def verify_nonlinear_interactions(dim: Dimension, k: int, case: str, *,
                                  eps_grid=None, dbar=None,
                                  dom: BallDomain | None = None) -> VerdictRow:
    """Fit the order of the nonlinearity-difference norms over a tower.

    Cases (all measured over the unit ball on towers with dilations from
    the reduced system unless ``dbar`` is given):

    * ``fepli2``:  |f'_eps(V) - f'_0(V)|_{n/2}, predicted order 1 in eps
      after dividing the ln|ln t| factor;
    * ``sumbu2``:  |f'_0(V) - sum_i f'_0(PU_i)|_{n/2}, predicted order 1 in
      t for 3 <= n <= 5 (vanishes identically when k = 1);
    * ``fepli1``:  |f_eps(V) - sum_i (-1)^i f_0(PU_i)|_{2n/(n+2)}, predicted
      order 1 in eps after dividing ln|ln t|.
    """
    if case not in _INTERACTION_CASES:
        raise ParameterError(
            f"case must be one of {_INTERACTION_CASES}, got {case!r}")
    dom = dom or BallDomain(dim)
    if eps_grid is None:
        eps_grid = default_eps_grid()
    if dbar is None:
        from .reduced import ReducedConstants, solve_reduced
        consts = ReducedConstants.for_ball(dom)
        state = solve_reduced(dim, k, consts, dom)
        dbar = np.cumprod(state.s)
    n = dim.n
    q = {"sumbu2": n / 2.0, "fepli2": n / 2.0,
         "fepli1": 2.0 * n / (n + 2.0)}[case]
    rows = []
    scale_probe = 0.0
    for eps in eps_grid:
        t = scale_variable(eps)
        cfg = TowerConfig.centered(dom, k, eps, dbar)
        V, layers = _tower_profiles(dom, cfg)
        if case == "fepli2":
            def diff(r):
                v = V(r)
                return f_eps_prime(dim, v, eps) - f_eps_prime(dim, v, 0.0)
        elif case == "sumbu2":
            def diff(r):
                out = f_eps_prime(dim, V(r), 0.0)
                for sign, mu in layers:
                    out = out - f_eps_prime(
                        dim, project_bubble_radial(dom, r, mu), 0.0)
                return out
        else:
            def diff(r):
                out = f_eps(dim, V(r), eps)
                for sign, mu in layers:
                    out = out - sign * f_eps(
                        dim, project_bubble_radial(dom, r, mu), 0.0)
                return out
        mus = cfg.mus
        integral = _ball_lq_integral(dim, diff, q, float(mus[-1]),
                                     dom.radius, rel_tol=1e-8)
        norm = integral ** (1.0 / q)
        scale_probe = max(scale_probe, _ball_lq_integral(
            dim, lambda r: f_eps_prime(dim, V(r), 0.0), q, float(mus[-1]),
            dom.radius, rel_tol=1e-6) ** (1.0 / q))
        if case in ("fepli2", "fepli1"):
            rows.append((eps, norm / np.log(abs(np.log(t)))))
        else:
            rows.append((t, norm))

    measured = np.array([v for _, v in rows])
    if np.all(measured <= 1e-12 * max(scale_probe, 1.0)):
        return VerdictRow(f"interaction[{case}, k={k}]",
                          "eps" if case != "sumbu2" else "eps/|ln eps|^2",
                          rows, 1.0, float("nan"), float("nan"), 0.2, "pass",
                          note="vanishes identically for this tower")
    logfactor = case in ("fepli2", "fepli1")
    var = "eps" if logfactor else "eps/|ln eps|^2"
    row = _make_row(f"interaction[{case}, k={k}]", var, rows, 1.0, logfactor)
    if logfactor:
        row.note = "ln|ln t| factor divided out before fitting"
    return row


def verify_projection_and_gram(dim: Dimension, k: int, *,
                               eps_grid=None,
                               dom: BallDomain | None = None) -> list:
    """Bundle: projection-error order, cross-layer Gram decay, diagonal
    stabilisation.  Returns a list of :class:`VerdictRow`.
    """
    dom = dom or BallDomain(dim)
    n = dim.n
    if eps_grid is None:
        eps_grid = default_eps_grid()
    out = []

    # projection error of the dilation mode in the critical norm: the exact
    # centred correction is the constant boundary trace, so the norm is
    # |trace| |ball|^{(n-2)/(2n)} ~ t^{1/2}
    q = dim.two_star
    vol = dim.sphere_area / n * dom.radius**n
    rows = []
    for eps in eps_grid:
        t = scale_variable(eps)
        mu = t ** (1.0 / (n - 2.0))
        c = abs(psi0_boundary_trace(dim, mu, dom.radius))
        rows.append((t, c * vol ** (1.0 / q)))
    out.append(_make_row("projection[psi0 critical-norm error]",
                         "eps/|ln eps|^2", rows, 0.5, False))

    # cross-layer Gram decay on a two-layer tower, translation-mode pair
    rows = []
    sub = list(eps_grid)[: max(4, min(6, len(eps_grid)))]
    for eps in sub:
        t = scale_variable(eps)
        cfg = TowerConfig.centered(dom, max(k, 2), eps,
                                   np.ones(max(k, 2)))
        g = gram_matrix(dom, cfg)
        rows.append((t, abs(g[1, (n + 1) + 1])))
    row = _make_row("gram[cross-layer translation pair]", "eps/|ln eps|^2",
                    rows, n / (n - 2.0), False, one_sided=True)
    row.tol = 0.2
    row.verdict = _grade(row.predicted, row.fitted, row.tol, True)
    row.note = "one-sided bound: decay at least this fast"
    out.append(row)

    # diagonal stabilisation across the two smallest scales
    from .profiles import BubbleParam
    diag_vals = []
    for mu in (1e-3, 1e-4):
        b = BubbleParam(mu=mu, xi=dom.center.copy())
        diag_vals.append(np.diag(gram_matrix(dom, [b])))
    rel = float(np.max(np.abs(diag_vals[0] - diag_vals[1])
                       / np.abs(diag_vals[1])))
    out.append(VerdictRow(
        "gram[diagonal stabilisation]", "mu",
        [(1e-3, float(v)) for v in diag_vals[0]]
        + [(1e-4, float(v)) for v in diag_vals[1]],
        0.0, rel, float("nan"), 0.02,
        "pass" if rel < 0.02 else ("marginal" if rel < 0.04 else "fail"),
        note="fitted column holds the relative change of the diagonal"))
    return out
