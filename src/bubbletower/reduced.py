"""The limit finite-dimensional system pinning the tower parameters.

In the variables s_1 = d_1, s_i = d_i/d_{i-1} the system reads

    G_0(s, sigma, xi) = alpha a1 s_1^{n-2} phi(xi)
                        + a3 sum_{i=2..k} s_i^{(n-2)/2} g(sigma_i)
                        - a4 sum_{i=1..k} (2/(2i-1)) |ln s_i|  = 0,
    G_h(s_1, xi)      = (alpha/2) a2  d phi/d xi_h (xi) s_1^{n-2} = 0,

with phi the Robin function.  On a ball phi increases with the distance
from the centre, so xi is the centre in closed form and the gradient rows
vanish exactly there.  G_0 is a sum of per-layer balances that do not
couple in these variables: the solver brackets the sign change of each
balance on a log grid (the outermost layer balances the Robin term against
its log, the inner layers balance the interaction term against theirs) and
bisects each bracket down to adjacent floats.  The bisected root is the
result, since no neighbouring float brings the balance closer to zero.
Each balance is strictly increasing on (0, 1), so the first bracketed root
is a simple zero with positive slope (local degree +1); all bracketed
roots are reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain import BallDomain
from .errors import ParameterError, SolvabilityError, SolverError
from .profiles import Dimension
from .quadrature import const_a, g_sigma, tabulate_g

__all__ = [
    "ReducedConstants",
    "ReducedState",
    "eval_G",
    "layer_balances",
    "bracket_roots",
    "solve_reduced",
    "jacobian_fd",
]


@dataclass
class ReducedConstants:
    """Coefficients and domain evaluators entering the reduced system."""

    dim: Dimension
    a1: float
    a2: float
    a3: float
    a4: float
    g: object                 # callable sigma -> float
    robin: object             # callable xi -> float
    robin_grad: object        # callable xi -> vector

    def __post_init__(self):
        if min(self.a1, self.a2, self.a3, self.a4) <= 0:
            raise ParameterError("all reduced-system coefficients must be positive")

    @classmethod
    def for_ball(cls, dom: BallDomain) -> "ReducedConstants":
        """Quadrature-backed constants with the drift kernel cached per |sigma|."""
        dim = dom.dim
        cache: dict = {}

        def g(sigma):
            s = float(np.linalg.norm(np.atleast_1d(sigma)))
            key = round(s, 14)
            if key not in cache:
                cache[key] = g_sigma(dim, np.atleast_1d(sigma))
            return cache[key]

        return cls(dim,
                   const_a(dim, 1), const_a(dim, 2),
                   const_a(dim, 3), const_a(dim, 4),
                   g, dom.robin, dom.robin_grad)


@dataclass
class ReducedState:
    """Unknowns of the reduced system together with its evaluation data."""

    dim: Dimension
    k: int
    s: np.ndarray                     # k positive scale ratios
    sigma: list                       # k-1 drift vectors (innermost drift fixed 0)
    xi: np.ndarray
    Gvalue: np.ndarray = field(default=None)
    jac: np.ndarray = field(default=None)
    # diagnostics
    all_roots: list = field(default_factory=list)   # bracketed roots per layer
    g_extremum: str = ""                            # observed extremum type of g
    jac_smin: float = float("nan")

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=float)
        if self.s.shape != (self.k,) or np.any(self.s <= 0):
            raise ParameterError("state needs k positive scale ratios")
        self.xi = np.asarray(self.xi, dtype=float)

    def sigma_full(self):
        """All k drifts with the innermost fixed to zero."""
        return list(self.sigma) + [np.zeros(self.dim.n)]

    @property
    def dbar(self) -> np.ndarray:
        return np.cumprod(self.s)


def layer_balances(state: ReducedState, consts: ReducedConstants) -> np.ndarray:
    """Per-layer balances whose sum is the scalar equation G_0.

    Layer 1:   alpha a1 s_1^{n-2} phi(xi) - 2 a4 |ln s_1|
    Layer i>1: a3 s_i^{(n-2)/2} g(sigma_i) - (2/(2i-1)) a4 |ln s_i|
    """
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


def _layer_law(i: int, n: int, a4: float):
    """(power exponent e, log coefficient c) of layer i, whose balance is
    (coefficient) s^e - c |ln s| (see layer_balances)."""
    if i == 1:
        return n - 2.0, 2.0 * a4
    return (n - 2.0) / 2.0, (2.0 / (2.0 * i - 1.0)) * a4


def _balance_terms(i: int, state, consts):
    """(power term, log term) of layer i as a function of s_i; the balance
    is their difference (see layer_balances)."""
    dim = state.dim
    e, c = _layer_law(i, dim.n, consts.a4)
    if i == 1:
        phi = consts.robin(state.xi)
        return lambda s: (dim.alpha * consts.a1 * s ** e * phi,
                          c * abs(np.log(s)))
    gval = consts.g(state.sigma_full()[i - 1])
    return lambda s: (consts.a3 * s ** e * gval, c * abs(np.log(s)))


def _roundoff_scale(state, consts) -> float:
    """Sum over layers of |power| + |log| + e |power| + c at the roots.

    The first two bound the rounding of a balance's evaluation, the last
    two bound s |balance'(s)|, its change over one relative float step."""
    scale = 0.0
    for i in range(1, state.k + 1):
        power, log = _balance_terms(i, state, consts)(state.s[i - 1])
        e, c = _layer_law(i, state.dim.n, consts.a4)
        scale += (1.0 + e) * abs(power) + abs(log) + c
    return scale


def _balance_fn(i: int, state, consts):
    """Scalar balance of layer i as a function of s_i (see layer_balances)."""
    terms = _balance_terms(i, state, consts)

    def balance(s):
        power, log = terms(s)
        return power - log
    return balance


def bracket_roots(fn, lo: float = 1e-6, hi: float = 1e6,
                  points: int = 97) -> list:
    """All sign changes of ``fn`` on a log grid of [lo, hi], each bisected.

    Each bracket is halved until its ends are adjacent floats; of those two
    ends the one with the smaller |fn| is the root.
    """
    grid = np.geomspace(lo, hi, points)
    vals = np.array([fn(s) for s in grid])
    roots = []
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            roots.append(float(a))
        elif fa * fb < 0:
            roots.append(_bisect(fn, float(a), float(b), fa, fb))
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

    Pipeline: the concentration point is the ball's centre, the Robin
    minimiser in closed form, where the gradient rows vanish exactly; the
    drifts sit at the critical point sigma = 0 of the rotation-invariant
    kernel g (whose observed extremum type is recorded), and each scale
    ratio is bracketed by the sign change of its layer balance on a log
    grid and bisected to adjacent floats, the end with the smaller |balance|
    being the root; the balances do not couple, so no joint iteration
    follows.  Of several bracketed roots the smallest is returned (the (0,1)
    root is unique and has positive slope, hence nonzero local degree); all
    roots are kept in ``all_roots``.

    Raises :class:`SolverError` if the limit system's residual at the roots
    exceeds ``_G_ROUNDOFF`` machine epsilons times the sum over layers of
    |power term| + |log term| + s |balance'(s)| (see _roundoff_scale).  The
    first two are the scale a balance rounds at; they grow with n
    (a4 = 1.1e8 at n = 10), so an absolute bound would reject correct roots.
    The slope term is the change over one float step, which dominates when
    s_1 is near 1, as for k = 1 on a large ball (phi ~ R^{2-n}).  The
    residual at the bisected floats stays below 0.35 of these epsilons for
    n = 3..12, k <= 3 and radii 1e-2..1e4, while a root off by 1e-9
    relative gives 3.1e5 or more.
    """
    if k < 1:
        raise ParameterError("tower depth k must be >= 1")
    # phi = c_n R^{n-2} (R^2 - |x-c|^2)^{2-n} increases with |x-c|
    xi = domain.center.copy()

    _, g_kind = tabulate_g(dim, np.linspace(0.0, 3.0, 7))
    sigma = [np.zeros(dim.n) for _ in range(k - 1)]

    proto = ReducedState(dim, k, np.ones(k), sigma, xi)
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

    state = ReducedState(dim, k, s, sigma, xi)
    state.Gvalue = eval_G(state, consts)
    bound = (_G_ROUNDOFF * np.finfo(float).eps
             * _roundoff_scale(state, consts))
    if float(np.max(np.abs(state.Gvalue))) > bound:
        raise SolverError(
            f"reduced residual {np.max(np.abs(state.Gvalue)):.3e} above "
            f"{bound:.3e} ({_G_ROUNDOFF} eps x the balance scale)",
            trace=list(state.Gvalue))
    state.all_roots = all_roots
    state.g_extremum = g_kind
    state.jac = jacobian_fd(state, consts)
    state.jac_smin = float(np.linalg.svd(state.jac, compute_uv=False)[-1])
    return state


def jacobian_fd(state: ReducedState, consts: ReducedConstants,
                rel_step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of eval_G in (s_1..s_k, xi_1..xi_n).

    Steps in s_i stay on one side of the |ln s_i| kink; a state too close to
    s_i = 1 for the requested step is rejected.
    """
    dim = state.dim
    k, n = state.k, dim.n
    cols = k + n
    out = np.empty((1 + n, cols))
    for j in range(k):
        h = rel_step * state.s[j]
        if abs(state.s[j] - 1.0) < 2.0 * h:
            raise ParameterError(
                f"s_{j + 1} = {state.s[j]} sits on the |ln s| kink; "
                "finite differences would straddle it")
        sp, sm = state.s.copy(), state.s.copy()
        sp[j] += h
        sm[j] -= h
        Gp = eval_G(ReducedState(dim, k, sp, state.sigma, state.xi), consts)
        Gm = eval_G(ReducedState(dim, k, sm, state.sigma, state.xi), consts)
        out[:, j] = (Gp - Gm) / (2.0 * h)
    for j in range(n):
        h = rel_step * max(1.0, abs(state.xi[j]))
        if h == 0.0:
            raise ParameterError("finite-difference step underflow")
        xp, xm = state.xi.copy(), state.xi.copy()
        xp[j] += h
        xm[j] -= h
        Gp = eval_G(ReducedState(dim, k, state.s, state.sigma, xp), consts)
        Gm = eval_G(ReducedState(dim, k, state.s, state.sigma, xm), consts)
        out[:, k + j] = (Gp - Gm) / (2.0 * h)
    return out
