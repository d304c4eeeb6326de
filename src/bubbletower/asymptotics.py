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

with tol = 0.2 when a log factor was divided out or the bound is one-sided
and 0.1 otherwise.  The raw sweep data always travels with the verdict so
failures are auditable.

Every check runs on the ball it is given, and every ball integral starts
on the Gram rule's geometric panels: a starting panel as wide as
[8 mu, sqrt(mu)] can pass its 8- vs 16-point test while 3 % of the
integral lies unseen inside it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import BallDomain
from .errors import ParameterError
from .profiles import (Dimension, _f_and_prime, bubble_radial, psi_radial,
                       psih_radial)
from .projection import (_gram_rule, _translation_block, gram_matrix,
                         project_tower_layers)
from .quadrature import (_adaptive_gl, _ball_panel_edges, beta,
                         bubble_power_integral)
from .tower import TowerConfig, fit_asymptotic_order, scale_variable

__all__ = [
    "EPS_GRID",
    "VerdictRow",
    "verify_norm_scaling",
    "verify_nonlinear_interactions",
    "verify_projection_and_gram",
]

# geometric eps sweep 2^-3 .. 2^-10 (two decades, affordable quadrature)
EPS_GRID = 2.0 ** -np.arange(3, 11, dtype=float)


@dataclass
class VerdictRow:
    """One verified scaling law: sweep data, fit, and three-valued verdict."""

    name: str
    sweep_var: str
    data: list                      # (x, measured) pairs
    predicted: float
    fitted: float
    tol: float
    verdict: str
    one_sided: bool = False
    note: str = ""


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
    tol = 0.2 if logfactor or one_sided else 0.1
    vals = np.asarray(data, dtype=float)
    fitted = (fit_asymptotic_order(vals) if np.all(vals[:, 1] > 0)
              else float("nan"))
    verdict = _grade(predicted, fitted, tol, one_sided)
    return VerdictRow(name, var, [tuple(v) for v in vals], predicted,
                      fitted, tol, verdict, one_sided)


def _ball_lq_integrals(dim: Dimension, rows, qs, scales, radius: float,
                       rel_tol: float = 1e-9) -> list:
    """∫_0^R |row_j(r)|^{q_j} r^{n-1} dr for each row j of profiles that
    peak at the ``scales``, all rows in one pass of :func:`_adaptive_gl`
    started on the Gram rule's panels.

    ``rows(r)`` returns every row at the radii r.  Each value is that of its
    row integrated alone, without the angular factor.
    """
    def g(r):
        rn = r ** (dim.n - 1.0)
        return np.stack([np.abs(y) ** q * rn for y, q in zip(rows(r), qs)])

    return [val for val, _, _ in _adaptive_gl(
        g, 0.0, radius, rel_tol, seeds=_ball_panel_edges(radius, scales))]


def _coordinate_moment(dim: Dimension, q: float) -> float:
    """∫_{S^{n-1}} |y_1|^q dS for the translation-mode norms."""
    n = dim.n
    return dim.sphere_area * beta((q + 1.0) / 2.0, (n - 1.0) / 2.0) \
        / beta(0.5, (n - 1.0) / 2.0)


def _norm_law(dim: Dimension, which: str, q: float) -> tuple:
    """(predicted exponent, log factor divided out, angular factor) of the
    norm law of profile ``which`` in L^q (see :func:`verify_norm_scaling`)."""
    n = dim.n
    if not (0.0 < q <= dim.two_star):
        raise ParameterError(f"q must lie in (0, {dim.two_star}], got {q}")
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
    angular = (_coordinate_moment(dim, q) if which == "psih"
               else dim.sphere_area)
    return predicted, logfactor, angular


def _norm_profile(dim: Dimension, which: str, r, mu: float):
    """Radial profile ``which`` of scale ``mu`` at the radii ``r``; for
    "psih" the radial factor of the translation mode, whose |y_1|^q the
    angular moment carries."""
    if which == "U":
        return bubble_radial(dim, r, mu)
    if which == "psi0":
        return psi_radial(dim, r, mu)
    return psih_radial(dim, r, mu)


def verify_norm_scaling(dom: BallDomain, cases) -> list:
    """Fit the order of ∫_ball |profile_mu|^q against the sweep variable,
    for each (which, q) of ``cases``; one :class:`VerdictRow` per case, in
    order.  At each eps the cases share one integrand evaluation on their
    common seed panels (:func:`_ball_lq_integrals`).

    ``which`` selects the bubble ("U"), the dilation mode ("psi0") or a
    translation mode ("psih").  The three regimes of each scaling law give
    the predicted exponent in t = eps/|ln eps|^2 with mu = t^{1/(n-2)}; the
    critical exponents carry one |ln t| factor which is divided out.
    """
    dim = dom.dim
    n = dim.n
    cases = list(cases)
    laws = [_norm_law(dim, which, q) for which, q in cases]
    qs = [q for _, q in cases]
    data = [[] for _ in cases]
    for eps in EPS_GRID:
        t = scale_variable(eps)
        mu = t ** (1.0 / (n - 2.0))

        def rows(r):
            return [_norm_profile(dim, which, r, mu) for which, _ in cases]

        vals = _ball_lq_integrals(dim, rows, qs, [mu], dom.radius)
        for (_, logfactor, angular), val, series in zip(laws, vals, data):
            val = angular * val
            series.append((t, val / abs(np.log(t)) if logfactor else val))
    out = []
    for (which, q), (predicted, logfactor, _), series in zip(cases, laws,
                                                              data):
        row = _make_row(f"norm[{which}, q={q:g}]", "eps/|ln eps|^2", series,
                        predicted, logfactor)
        if logfactor:
            row.note = "one |ln t| factor divided out before fitting"
        out.append(row)
    return out


def _probe_bound(dom: BallDomain, k: int, q: float) -> float:
    """Upper bound of |f'_0(V)|_{L^q(ball)} over every k-layer centred tower.

    f'_0(V) = p |V|^{p-1} and (p-1) n/2 = 2*, so its L^{n/2} norm is
    p |V|_{2*}^{p-1}.  Each projected layer satisfies 0 <= PU_i <= U_i on
    the ball, so Minkowski gives |V|_{2*} <= k |U|_{2*}, whatever the
    scales.  For q <= n/2, Hölder on the ball adds the factor
    |ball|^{1/q - 2/n}.
    """
    dim = dom.dim
    n = dim.n
    u_norm = bubble_power_integral(dim) ** (1.0 / dim.two_star)
    vol = dim.sphere_area / n * dom.radius**n
    return (dim.p * (k * u_norm) ** (dim.p - 1.0)
            * vol ** (1.0 / q - 2.0 / n))


def verify_nonlinear_interactions(dom: BallDomain, k: int, *, dbar) -> list:
    """Fit the orders of the nonlinearity-difference norms over a tower.

    Returns one :class:`VerdictRow` per case, in this order (all measured
    over the ball on the towers with dilation factors ``dbar``, one tower
    per eps shared by the three):

    * ``sumbu2``:  |f'_0(V) - sum_i f'_0(PU_i)|_{n/2}, predicted order
      min(1, 2/(n-2)) in t (vanishes identically when k = 1).  By Bahri's
      two-bubble power counting the norm comes from r ~ sqrt(mu_1 mu_2),
      where U_2 ~ U_1, and is of order mu_2/mu_1 = t^{2/(n-2)} for n >= 5;
      for n = 3 the core r ~ mu_2 dominates and gives
      (mu_2/mu_1)^{1/2} = t; n = 4 is the borderline, with a log factor;
    * ``fepli1``:  |f_eps(V) - sum_i (-1)^i f_0(PU_i)|_{2n/(n+2)}, predicted
      order 1 in eps after dividing ln|ln t|;
    * ``fepli2``:  |f'_eps(V) - f'_0(V)|_{n/2}, predicted order 1 in eps
      after dividing the ln|ln t| factor.

    A case vanishes identically when every measured value is at most
    1e-12 max(bound, 1), with bound the closed-form :func:`_probe_bound`
    on |f'_0(V)|_q.
    """
    dim = dom.dim
    n = dim.n
    qs = {"sumbu2": n / 2.0, "fepli1": 2.0 * n / (n + 2.0), "fepli2": n / 2.0}
    data = {case: [] for case in qs}
    for eps in EPS_GRID:
        t = scale_variable(eps)
        cfg = TowerConfig.centered(dom, k, eps, dbar)
        rows = _interaction_integrands(dom, cfg.mus, cfg.signs, eps)
        vals = _ball_lq_integrals(dim, rows, list(qs.values()), cfg.mus,
                                  dom.radius, rel_tol=1e-8)
        for (case, q), val in zip(qs.items(), vals):
            norm = (dim.sphere_area * val) ** (1.0 / q)
            data[case].append((t, norm) if case == "sumbu2" else
                              (eps, norm / np.log(abs(np.log(t)))))
    return [_interaction_row(dom, k, case, qs[case], data[case])
            for case in qs]


def _interaction_integrands(dom: BallDomain, mus, signs, eps: float):
    """The differences of :func:`verify_nonlinear_interactions` on the tower
    with scales ``mus`` and ``signs``, as rows for :func:`_ball_lq_integrals`:
    f'_0(V) - sum_i f'_0(PU_i), f_eps(V) - sum_i (-1)^i f_0(PU_i) and
    f'_eps(V) - f'_0(V).

    Each pair (f, f') of the tower V and of its layers, at eps or at 0, is
    taken once for all three rows from
    :func:`~bubbletower.profiles._f_and_prime`, the formula behind the
    public :func:`~bubbletower.profiles.f_eps` and
    :func:`~bubbletower.profiles.f_eps_prime`.
    """
    dim = dom.dim

    def rows(r):
        v, pus = project_tower_layers(dom, r, mus, signs)
        pairs = {}

        def f(i, e, prime=False):
            # f_e (or f'_e) of layer i, or of V if i is None
            if (i, e) not in pairs:
                pairs[i, e] = _f_and_prime(dim, v if i is None else pus[i], e)
            return pairs[i, e][prime]

        sumbu2 = f(None, 0.0, prime=True)
        for i in range(len(pus)):
            sumbu2 = sumbu2 - f(i, 0.0, prime=True)
        fepli1 = f(None, eps)
        for i, sign in enumerate(signs):
            fepli1 = fepli1 - sign * f(i, 0.0)
        fepli2 = f(None, eps, prime=True) - f(None, 0.0, prime=True)
        return [sumbu2, fepli1, fepli2]

    return rows


def _interaction_row(dom: BallDomain, k: int, case: str, q: float,
                     rows: list) -> VerdictRow:
    """The verdict of one case of :func:`verify_nonlinear_interactions`."""
    name = f"interaction[{case}, k={k}]"
    logfactor = case != "sumbu2"
    var = "eps" if logfactor else "eps/|ln eps|^2"
    predicted = 1.0 if logfactor else min(1.0, 2.0 / (dom.dim.n - 2.0))
    measured = np.array([v for _, v in rows])
    if np.all(measured <= 1e-12 * max(_probe_bound(dom, k, q), 1.0)):
        return VerdictRow(name, var, rows, predicted, float("nan"), 0.2,
                          "pass", note="vanishes identically for this tower")
    row = _make_row(name, var, rows, predicted, logfactor)
    if logfactor:
        row.note = "ln|ln t| factor divided out before fitting"
    return row


def verify_projection_and_gram(dom: BallDomain, k: int) -> list:
    """Bundle: projection-error order, cross-layer Gram decay, diagonal
    stabilisation.  Returns a list of :class:`VerdictRow`.
    """
    dim = dom.dim
    n = dim.n
    out = []

    # projection error of the dilation mode in the critical norm: the exact
    # centred correction is the constant boundary trace, so the norm is
    # |trace| |ball|^{(n-2)/(2n)} ~ t^{1/2}
    q = dim.two_star
    vol = dim.sphere_area / n * dom.radius**n
    rows = []
    for eps in EPS_GRID:
        t = scale_variable(eps)
        mu = t ** (1.0 / (n - 2.0))
        c = abs(psi_radial(dim, dom.radius, mu))
        rows.append((t, c * vol ** (1.0 / q)))
    out.append(_make_row("projection[psi0 critical-norm error]",
                         "eps/|ln eps|^2", rows, 0.5, False))

    # cross-layer Gram decay on a two-layer tower, translation-mode pair
    rows = []
    for eps in EPS_GRID[:6]:
        t = scale_variable(eps)
        cfg = TowerConfig.centered(dom, max(k, 2), eps,
                                   np.ones(max(k, 2)))
        gh = _translation_block(dom, cfg.mus, _gram_rule(dom, cfg.mus))
        rows.append((t, abs(gh[0, 1])))
    row = _make_row("gram[cross-layer translation pair]", "eps/|ln eps|^2",
                    rows, n / (n - 2.0), False, one_sided=True)
    row.note = "one-sided bound: decay at least this fast"
    out.append(row)

    # diagonal stabilisation across the two smallest scales
    diag_vals = []
    for mu in (1e-3, 1e-4):
        diag_vals.append(np.diag(gram_matrix(dom, [mu])))
    rel = float(np.max(np.abs(diag_vals[0] - diag_vals[1])
                       / np.abs(diag_vals[1])))
    out.append(VerdictRow(
        "gram[diagonal stabilisation]", "mu",
        [(1e-3, float(v)) for v in diag_vals[0]]
        + [(1e-4, float(v)) for v in diag_vals[1]],
        0.0, rel, 0.02, _grade(0.0, rel, 0.02),
        note="fitted column holds the relative change of the diagonal"))
    return out
