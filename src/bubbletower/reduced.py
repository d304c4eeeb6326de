"""The limit finite-dimensional system pinning the tower parameters.

In the variables s_1 = d_1, s_i = d_i/d_{i-1} the system reads

    G_0(s, xi) = alpha a1 s_1^{n-2} phi(xi)
                 + a3 g(0) sum_{i=2..k} s_i^{(n-2)/2}
                 - a4 sum_{i=1..k} (2/(2i-1)) |ln s_i|  = 0,
    G_h(s_1, xi) = (alpha/2) a2  d phi/d xi_h (xi) s_1^{n-2} = 0,

with phi the Robin function and g(0) = omega/n the drift-interaction
kernel at zero drift (Newton's shell theorem).  Everything is in closed
form.  On a ball phi increases with the distance from the centre, so xi
is the centre and the gradient rows vanish exactly there; the drifts sit
at 0, the strict maximum of g(sigma) = (omega/n)(1+|sigma|^2)^{-(n-2)/2}.
G_0 is a sum of per-layer balances that do not couple in these
variables; each is bracketed on a log grid and bisected down to adjacent
floats.  The bisected root is the result, since no neighbouring float
brings the balance closer to zero.  Each balance is strictly increasing on (0, 1), so the first
bracketed root is a simple zero with positive slope.  At the centre the
Jacobian is block-diagonal: the balance slopes b_i'(s_i) in row 0 and
(alpha/2) a2 s_1^{n-2} Hess phi(c), Hess phi(c) = 2(n-2) c_n R^{-n} I.
These are the reduction's two non-degeneracy conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain import BallDomain
from .errors import ParameterError, SolvabilityError, SolverError
from .profiles import Dimension
from .quadrature import const_a_closed, g_sigma_closed

__all__ = [
    "ReducedConstants",
    "ReducedState",
    "eval_G",
    "layer_balances",
    "bracket_roots",
    "solve_reduced",
    "jacobian",
]


@dataclass
class ReducedConstants:
    """Coefficients and domain evaluators entering the reduced system."""

    dim: Dimension
    a1: float
    a2: float
    a3: float
    a4: float
    g0: float                 # drift kernel g at sigma = 0
    robin: object             # callable xi -> float
    robin_grad: object        # callable xi -> vector
    robin_hess: object        # callable xi -> matrix

    def __post_init__(self):
        if min(self.a1, self.a2, self.a3, self.a4) <= 0:
            raise ParameterError("all reduced-system coefficients must be positive")

    @classmethod
    def for_ball(cls, dom: BallDomain) -> "ReducedConstants":
        """Closed-form constants and the ball's Robin function."""
        dim = dom.dim
        return cls(dim, *(const_a_closed(dim, i) for i in (1, 2, 3, 4)),
                   g_sigma_closed(dim, 0.0),
                   dom.robin, dom.robin_grad, dom.robin_hess)


@dataclass
class ReducedState:
    """Unknowns of the reduced system together with its evaluation data."""

    dim: Dimension
    k: int
    s: np.ndarray                     # k positive scale ratios
    xi: np.ndarray
    Gvalue: np.ndarray = field(default=None)
    jac: np.ndarray = field(default=None)
    # diagnostics
    all_roots: list = field(default_factory=list)   # bracketed roots per layer
    jac_svals: np.ndarray = field(default=None)     # singular values of jac

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=float)
        if self.s.shape != (self.k,) or np.any(self.s <= 0):
            raise ParameterError("state needs k positive scale ratios")
        self.xi = np.asarray(self.xi, dtype=float)

    @property
    def dbar(self) -> np.ndarray:
        return np.cumprod(self.s)

    @property
    def jac_smin(self) -> float:
        """The smallest of ``jac_svals`` (NaN until they are set)."""
        if self.jac_svals is None:
            return float("nan")
        return float(self.jac_svals[-1])


def layer_balances(state: ReducedState, consts: ReducedConstants) -> np.ndarray:
    """Per-layer balances whose sum is the scalar equation G_0 (see _layer)."""
    return np.array([_balance_fn(i, state, consts)(state.s[i - 1])
                     for i in range(1, state.k + 1)])


def eval_G(state: ReducedState, consts: ReducedConstants) -> np.ndarray:
    """The (1+n)-vector [G_0, G_1..G_n] of the limit system."""
    if np.any(state.s <= 0):
        raise ParameterError("scale ratios must be positive")
    dim = state.dim
    G0 = float(np.sum(layer_balances(state, consts)))
    grad = np.asarray(consts.robin_grad(state.xi), dtype=float)
    Gh = (0.5 * dim.alpha * consts.a2 * grad
          * state.s[0] ** (dim.n - 2.0))
    return np.concatenate([[G0], Gh])


def _layer(i: int, state, consts):
    """(coefficient, exponent e, log coefficient c) of layer i, whose
    balance is (coefficient) s^e - c |ln s|:

    Layer 1:   alpha a1 phi(xi) s_1^{n-2} - 2 a4 |ln s_1|
    Layer i>1: a3 g(0) s_i^{(n-2)/2} - (2/(2i-1)) a4 |ln s_i|
    """
    n = state.dim.n
    if i == 1:
        return (state.dim.alpha * consts.a1 * consts.robin(state.xi),
                n - 2.0, 2.0 * consts.a4)
    return (consts.a3 * consts.g0, (n - 2.0) / 2.0,
            2.0 / (2.0 * i - 1.0) * consts.a4)


def _balance_fn(i: int, state, consts):
    """Balance of layer i as a function of s_i (see _layer), for a float
    s_i or an array of them."""
    coef, e, c = _layer(i, state, consts)
    return lambda s: coef * s ** e - c * abs(np.log(s))


def _roundoff_scale(state, consts) -> float:
    """Sum over layers of |power| + |log| + e |power| + c at the roots.

    The first two bound the rounding of a balance's evaluation, the last
    two bound s |balance'(s)|, its change over one relative float step."""
    scale = 0.0
    for i, s in enumerate(state.s, start=1):
        coef, e, c = _layer(i, state, consts)
        scale += (1.0 + e) * abs(coef * s ** e) + c * abs(np.log(s)) + c
    return scale


def bracket_roots(fn, lo: float = 1e-6, hi: float = 1e6) -> list:
    """All sign changes of ``fn`` on a 97-point log grid of [lo, hi], each
    bisected.

    ``fn`` must take arrays as well as floats: the grid is scanned in one
    call on all 97 points.  An array value can differ from the float call
    at the same point in the last bit, so each bracket's ends are evaluated
    again one float at a time, and the bisection sees float calls only.
    Each bracket is halved until its ends are adjacent floats; of those two
    ends the one with the smaller |fn| is the root.
    """
    grid = np.geomspace(lo, hi, 97)
    vals = fn(grid)
    roots = []
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            roots.append(float(a))
        elif fa * fb < 0:
            roots.append(_bisect(fn, float(a), float(b), fn(a), fn(b)))
    if vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    return roots


def _bisect(fn, a: float, b: float, fa: float, fb: float) -> float:
    """Bisect a sign change of ``fn`` on [a, b] down to adjacent floats."""
    while True:
        m = 0.5 * (a + b)
        if not a < m < b:
            return a if abs(fa) <= abs(fb) else b
        fm = fn(m)
        if fm == 0.0:
            return m
        if (fm < 0) == (fa < 0):
            a, fa = m, fm
        else:
            b, fb = m, fm


# multiple of machine epsilon x _roundoff_scale that bounds the residual at
# the bisected roots (see solve_reduced)
_G_ROUNDOFF = 64


def solve_reduced(dim: Dimension, k: int, consts: ReducedConstants,
                  domain: BallDomain) -> ReducedState:
    """Solve the limit system: Robin minimiser, drift extremiser, scale roots.

    The concentration point is the ball's centre and the drifts sit at
    sigma = 0 (module docstring).  Each scale ratio is the bisected sign
    change of its layer balance (:func:`bracket_roots`); of several, the
    smallest, the unique simple zero in (0, 1), is returned, and all are
    kept in ``all_roots``.  ``jac`` is :func:`jacobian`, block-diagonal
    here, and ``jac_svals`` its singular values in decreasing order, so
    ``jac_smin`` is the smaller of |b'| and the xi-block's eigenvalue.

    Raises :class:`SolverError` if the residual at the roots exceeds
    ``_G_ROUNDOFF`` machine epsilons times the sum over layers of
    |power term| + |log term| + s |balance'(s)| (see _roundoff_scale): the
    terms grow with n (a4 = 1.1e8 at n = 10), and the slope term is the
    change over one float step, which dominates when s_1 is near 1 (k = 1
    on a large ball).  The bisected floats stay below 0.35 of these
    epsilons for n = 3..12, k <= 3 and radii 1e-2..1e4, while a root off
    by 1e-9 relative gives 3.1e5 or more.
    """
    if k < 1:
        raise ParameterError("tower depth k must be >= 1")
    # phi = c_n R^{n-2} (R^2 - |x-c|^2)^{2-n} increases with |x-c|
    xi = domain.center.copy()

    proto = ReducedState(dim, k, np.ones(k), xi)
    s = np.empty(k)
    all_roots = []
    for i in range(1, k + 1):
        fn = _balance_fn(i, proto, consts)
        roots = bracket_roots(fn)
        if not roots:
            raise SolvabilityError(
                f"no sign change of the layer-{i} balance in [1e-6, 1e6]")
        all_roots.append(roots)
        s[i - 1] = roots[0]

    state = ReducedState(dim, k, s, xi)
    state.Gvalue = eval_G(state, consts)
    bound = (_G_ROUNDOFF * np.finfo(float).eps
             * _roundoff_scale(state, consts))
    if float(np.max(np.abs(state.Gvalue))) > bound:
        raise SolverError(
            f"reduced residual {np.max(np.abs(state.Gvalue)):.3e} above "
            f"{bound:.3e} ({_G_ROUNDOFF} eps x the balance scale)",
            trace=list(state.Gvalue))
    state.all_roots = all_roots
    state.jac = jacobian(state, consts)
    state.jac_svals = np.linalg.svd(state.jac, compute_uv=False)
    return state


def jacobian(state: ReducedState, consts: ReducedConstants) -> np.ndarray:
    """Jacobian of eval_G in (s_1..s_k, xi_1..xi_n), in closed form.

    Row 0: the balance slopes e coef s^{e-1} - c d|ln s|/ds, taking
    d|ln s|/ds = -1/s for s <= 1 and +1/s for s > 1, then
    alpha a1 s_1^{n-2} grad phi(xi).  Rows 1..n: ((n-2)/s_1) G_h in the
    s_1 column and (alpha/2) a2 s_1^{n-2} Hess phi(xi).
    """
    dim, k, n = state.dim, state.k, state.dim.n
    out = np.zeros((1 + n, k + n))
    for i, s in enumerate(state.s, start=1):
        coef, e, c = _layer(i, state, consts)
        dlog = 1.0 / s if s > 1.0 else -1.0 / s         # d|ln s|/ds
        out[0, i - 1] = e * coef * s ** (e - 1.0) - c * dlog
    w = state.s[0] ** (n - 2.0)
    out[0, k:] = dim.alpha * consts.a1 * w * consts.robin_grad(state.xi)
    out[1:, 0] = (n - 2.0) / state.s[0] * eval_G(state, consts)[1:]
    out[1:, k:] = 0.5 * dim.alpha * consts.a2 * w * consts.robin_hess(state.xi)
    return out
