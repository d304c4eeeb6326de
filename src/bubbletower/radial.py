"""Radial discretisation of the Dirichlet problem on a ball, the discrete
orthogonal correction, the dilation solve, a residual certificate, scale
extraction, and parameter sweeps.

Discretisation.  Piecewise-linear elements on a geometrically graded radial
grid with the weight r^{n-1}; the stiffness matrix is assembled from exact
cell integrals of r^{n-1} and the load uses lumped weights.  The lumped
weight of the centre node is chosen so that the strong form of the centre
row is consistent with -n u''(0) (the plain element lump is not), while the
stiffness matrix itself stays the exact symmetric element matrix.  With
this pairing, Galerkin solutions satisfy the discrete integration-by-parts
identity u.S u = sum_i w_i u_i f_i exactly.

Orthogonal correction.  The correction and its k multipliers solve one
bordered system: the tridiagonal Jacobian S - W diag(f'_eps) with k border
rows and columns from the projected dilation modes, by Newton with block
elimination (Keller's bordering algorithm) at O(N k) per step.

Dilation solve.  The tower ansatz starts far from the discrete solution
along the nearly-neutral dilation directions, so a solve first zeroes the
multipliers c(log d) by Newton with the exact Jacobian of the bordered
system, on a grid rebuilt from the root until it stops changing.  At that
root V + phi solves the discrete equation, and one evaluation of its strong
residual certifies it (:func:`newton_solve`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .domain import BallDomain
from .errors import (ParameterError, ResolutionError, SolverError,
                     StructureError)
from .profiles import Dimension, _f_and_prime, f_eps
from .projection import (project_psi0_radial, project_psi0_radial_dlog,
                         project_tower_radial)
from .tower import TowerConfig, scale_variable

__all__ = [
    "RadialGrid",
    "RadialSolution",
    "RadialOperator",
    "geometric_grid",
    "newton_solve",
    "LSResult",
    "ls_correction",
    "extract_scales",
    "solve_from_tower",
    "sweep_epsilon",
]


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialGrid:
    """Increasing nodes from r=0 to the ball radius.

    ``nodes[0]`` must be exactly 0 (symmetry row) and the last node is the
    Dirichlet boundary.
    """

    nodes: np.ndarray
    per_decade: float = float("nan")
    _operators: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes[0] != 0.0 or np.any(np.diff(nodes) <= 0):
            raise ParameterError("grid must start at 0 and increase strictly")
        object.__setattr__(self, "nodes", nodes)

    def __len__(self):
        return len(self.nodes)

    def operator(self, dim: Dimension) -> "RadialOperator":
        """The :class:`RadialOperator` of this grid in ``dim``, built once.

        The cache lives on the grid object, so a new grid with the same
        nodes builds its own.  The operator keeps no reference back to the
        grid: the cycle would keep both alive until the cyclic collector
        ran, and raised peak memory by about 1 MB on a sweep.
        """
        op = self._operators.get(dim)
        if op is None:
            op = self._operators[dim] = RadialOperator(dim, self)
        return op

    def nodes_below(self, scale: float) -> int:
        return int(np.sum(self.nodes[1:] < scale))

    def require_resolves(self, scales, min_nodes: int = 10) -> None:
        for mu in np.atleast_1d(scales):
            if self.nodes_below(mu) < min_nodes:
                raise ResolutionError(
                    f"grid has {self.nodes_below(mu)} nodes below scale "
                    f"{mu:.3e}; at least {min_nodes} required")


def geometric_grid(radius: float, rmin: float, per_decade: int = 40) -> RadialGrid:
    """Geometrically graded grid with a uniform core.

    The geometric nodes lie on a fixed lattice, radius * 10^(-j/per_decade)
    for j = m .. 0, with m = ceil(per_decade log10(radius/rmin)) (at least
    4): the first of them rounds ``rmin`` down by less than one cell, so
    every ``rmin`` in one cell gives the same grid, node for node, and the
    geometric nodes of a level are among those of any multiple of it.  The
    core below the first geometric node is filled with uniform cells
    matching the first geometric spacing, so the cell-size ratio stays
    smooth everywhere (an abrupt jump would cost the stencil its
    second-order consistency there).
    """
    if not (0 < rmin < radius):
        raise ParameterError("need 0 < rmin < radius")
    decades = np.log10(radius / rmin)
    m = max(int(np.ceil(decades * per_decade)), 4)
    r = radius * 10.0 ** (-np.arange(m, -1, -1) / per_decade)
    m_core = max(int(np.round(1.0 / (10.0 ** (1.0 / per_decade) - 1.0))), 1)
    core = np.linspace(0.0, r[0], m_core + 1)[:-1]
    return RadialGrid(np.concatenate([core, r]), per_decade=per_decade)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

@functools.cache
def _lapack(name: str):
    """The LAPACK routine ``name`` from ``scipy.linalg.lapack``.

    Imported at the first solve, so the commands that run no solve never
    load ``scipy.linalg``.
    """
    from scipy.linalg import lapack
    return getattr(lapack, name)


def _require_finite(*arrays) -> None:
    for a in arrays:
        if not np.isfinite(a).all():
            raise ValueError("array must not contain infs or NaNs")


class RadialOperator:
    """Stiffness/weight assembly for one (dimension, grid) pair.

    The solves call LAPACK's tridiagonal ``dgtsv`` and ``dptsv`` directly:
    the routines that ``scipy.linalg.solve_banded`` with a (1, 1) band and
    ``solveh_banded`` with two rows end in, so the results are the same to
    the bit.  As those wrappers do, a non-finite input raises
    ``ValueError`` and a singular matrix ``numpy.linalg.LinAlgError``.
    """

    def __init__(self, dim: Dimension, grid: RadialGrid):
        self.dim = dim
        r = grid.nodes
        n = dim.n
        om = dim.sphere_area
        h = np.diff(r)
        cell = (r[1:] ** n - r[:-1] ** n) / n          # exact ∫_cell r^{n-1} dr
        self.kcell = om * cell / h**2                  # element stiffness
        # exact lumped weights ∫ φ_i r^{n-1} dr
        ra, rb = r[:-1], r[1:]
        rising = ((rb ** (n + 1) - ra ** (n + 1)) / (n + 1)
                  - ra * (rb**n - ra**n) / n) / h
        falling = (rb * (rb**n - ra**n) / n
                   - (rb ** (n + 1) - ra ** (n + 1)) / (n + 1)) / h
        w = np.empty(len(r))
        w[0] = om * falling[0]
        w[1:-1] = om * (rising[:-1] + falling[1:])
        w[-1] = om * rising[-1]
        # centre-row consistency: (S u)_0 / w_0 -> -n u''(0) for smooth data
        w[0] = self.kcell[0] * h[0] ** 2 / (2.0 * n)
        self.w = w
        N = len(r) - 1
        diag = np.empty(N)
        diag[0] = self.kcell[0]
        diag[1:] = self.kcell[:-1] + self.kcell[1:]
        self._sdiag = diag                             # S on the free nodes
        self._soff = -self.kcell[: N - 1]

    # -- linear algebra ------------------------------------------------------

    def stiffness_apply(self, u: np.ndarray) -> np.ndarray:
        """S u on all nodes (u, or each column of u, includes the boundary)."""
        flux = (self.kcell * (u[1:] - u[:-1]).T).T
        out = np.empty_like(u)
        out[0] = -flux[0]
        out[1:-1] = flux[:-1] - flux[1:]
        out[-1] = flux[-1]
        return out

    def abs_stiffness_apply(self, a: np.ndarray) -> np.ndarray:
        """|S| a on all nodes: each cell adds kcell (a_j + a_{j+1}) to both
        of its rows.  For a = |u| it bounds the terms that S u sums."""
        flux = self.kcell * (a[1:] + a[:-1])
        out = np.empty_like(a)
        out[0] = flux[0]
        out[1:-1] = flux[:-1] + flux[1:]
        out[-1] = flux[-1]
        return out

    def stiffness_solve(self, load_free: np.ndarray) -> np.ndarray:
        """Solve S u = load on the free nodes (load already weighted)."""
        _require_finite(self._sdiag, load_free)
        _, _, x, info = _lapack("dptsv")(self._sdiag, self._soff, load_free)
        if info > 0:
            raise np.linalg.LinAlgError(
                f"{info}th leading minor not positive definite")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dptsv")
        return x

    def jacobian_solve(self, fprime: np.ndarray, rhs_free: np.ndarray) -> np.ndarray:
        """Solve (S - W diag(fprime)) delta = rhs on the free nodes."""
        d = self._sdiag - self.w[:-1] * fprime[:-1]
        _require_finite(d, rhs_free)
        _, _, _, x, info = _lapack("dgtsv")(self._soff, d, self._soff,
                                            rhs_free, overwrite_d=1)
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dgtsv")
        return x

    # -- norms ----------------------------------------------------------------

    def h1_norm(self, u: np.ndarray) -> float:
        du = u[1:] - u[:-1]
        return float(np.sqrt(max(float(np.dot(self.kcell * du, du)), 0.0)))

    def dual_norm(self, residual_interior: np.ndarray) -> float:
        """Energy-dual norm of a strong residual given on the free nodes."""
        load = self.w[:-1] * residual_interior
        z = self.stiffness_solve(load)
        return float(np.sqrt(max(np.dot(load, z), 0.0)))


# ---------------------------------------------------------------------------
# residual certificate
# ---------------------------------------------------------------------------

SOLVE_COUNTS = ("dilation_steps", "correction_solves", "grids")


@dataclass
class RadialSolution:
    grid: RadialGrid
    values: np.ndarray
    eps: float
    residual: float
    converged: bool                # always True (see newton_solve)
    newton_iters: int              # always 0 (see newton_solve)
    scales: list = field(default_factory=list)
    dilation_steps: int = 0        # accepted Newton steps in log d
    correction_solves: int = 0     # ls_correction calls
    grids: int = 0                 # grids solved on (1 for a caller's grid)


# Rounding bound of the strong residual F_i = ((S u)_i - w_i f_i) / w_i, in
# units of machine eps (twice the unit roundoff u).  Each flux
# kcell_j (u_{j+1} - u_j) is rounded twice and their difference once, so
# (S u)_i carries at most 3u (|S||u|)_i; f_eps (a power, a log and a
# quotient, <= 4u), the product w_i f_i, the subtraction and the division
# add at most u (|S||u|)_i / w_i + 6u |f_i|.  The stored u is the root
# rounded, |du_j| <= u |u_j|, which moves F_i by up to
# u ((|S||u|)_i / w_i + p |f_i|) with p <= 5.  In all at most
# 5u (|S||u|)_i / w_i + 11u |f_i| <= 5.5 eps ((|S||u|)_i / w_i + |f_i|).
_ROUNDOFF_FLOOR = 8.0 * np.finfo(float).eps


def newton_solve(dom: BallDomain, grid: RadialGrid, eps: float,
                 initial: np.ndarray) -> RadialSolution:
    """Certify ``initial`` as a solution of  -Δ_h u = f_eps(u),  u(R)=0.

    One evaluation of the strong residual F = (S u - W f_eps(u)) / W on the
    free nodes, no iteration: at the dilation root the multipliers c vanish,
    so V + phi already solves the equation.  Accepted iff every row meets
    |F_i| < 1e-9 ||f_eps(u)||_inf + 1e-12 or lies within the rounding floor
    8 eps ((|S||u|)_i / w_i + |f_eps(u_i)|) of its own evaluation, below
    which no Newton step could push it; otherwise raises
    :class:`SolverError` with the residual as its one-entry ``trace``.

    The name and the result's ``newton_iters`` (always 0) and ``converged``
    (always True) fields outlive the Newton iteration this once was: the
    benchmark tracer wraps the function by name and reads both fields, and
    the CSVs keep their ``newton_iters`` column.
    """
    op = grid.operator(dom.dim)
    u = np.asarray(initial, dtype=float).copy()
    u[-1] = 0.0
    w = op.w[:-1]
    f = f_eps(dom.dim, u, eps)
    F = (op.stiffness_apply(u)[:-1] - w * f[:-1]) / w
    res = float(np.max(np.abs(F)))
    tol = 1e-9 * float(np.max(np.abs(f))) + 1e-12
    if res >= tol:
        floor = _ROUNDOFF_FLOOR * (op.abs_stiffness_apply(np.abs(u))[:-1] / w
                                   + np.abs(f[:-1]))
        if not np.all(np.abs(F) < np.maximum(floor, tol)):
            raise SolverError(f"residual {res:.3e} above tolerance {tol:.3e}",
                              trace=[res])
    return RadialSolution(grid, u, eps, res, True, 0)


# ---------------------------------------------------------------------------
# discrete orthogonal correction
# ---------------------------------------------------------------------------

@dataclass
class LSResult:
    phi: np.ndarray            # nodal correction, boundary node included
    c: np.ndarray              # multipliers of the projected dilation modes
    phi_norm: float            # energy norm of phi
    iterations: int
    converged: bool
    update_ratios: list
    orthogonality: np.ndarray  # pairings <phi, P psi_i> (should be ~0)
    dc_dlogd: np.ndarray       # k x k Jacobian of c in log d (NaN if not converged)


def ls_correction(dom: BallDomain, grid: RadialGrid, cfg, *,
                  tol: float = 1e-10, max_iter: int = 400,
                  phi0: np.ndarray | None = None) -> LSResult:
    """Correction orthogonal to the projected dilation modes.

    Solves the discrete analogue of the ansatz-correction equation: find phi
    with <phi, P psi0_i> = 0 for every layer i such that the full field
    V + phi solves the equation up to multiples of the projected dilation
    modes.  Only the dilation modes survive radial symmetry.

    Newton on the bordered system in the free nodal values of phi and the
    k multipliers a,

        S (V + phi) - W f_eps(V + phi) + SB a = 0,    SB^T phi = 0,

    with SB the stiffness applied to the projected modes.  Each step
    eliminates the border: one tridiagonal solve with the Jacobian
    S - W diag(f'_eps(V + phi)) for the k+1 right-hand sides [-F, SB], then
    a k x k Schur solve, so a step costs O(N k) time and memory.  Converged
    iff the energy norm of the full step falls below ``tol``; a non-finite
    iterate ends the iteration unconverged.

    At convergence c = -a.  Differentiating the bordered system in log d
    (dV/dlog d_j = sign_j B_j, D_j = dB_j/dlog d_j, K = SB^T J^-1 SB the
    last step's Schur matrix, G = B^T SB, Z = J^-1 SD) gives ``dc_dlogd``:

        dc/dlog d = -K^-1 [-G diag(sign) - SB^T Z diag(a) + diag(SD^T phi)].
    """
    dim = dom.dim
    op = grid.operator(dim)
    r = grid.nodes
    mus, signs = cfg.mus, cfg.signs
    eps = cfg.eps
    k = len(mus)
    N = len(r) - 1
    wf = op.w[:-1]

    V = project_tower_radial(dom, r, mus, signs)
    V[-1] = 0.0
    Vf = V[:-1]

    # projected dilation modes and their Gram matrix in the energy product
    B = np.column_stack(
        [project_psi0_radial(dom, r, mu)[:-1] for mu in mus])
    SB = op.stiffness_apply(np.vstack([B, np.zeros((1, k))]))[:-1]
    G = B.T @ SB
    Ginv = np.linalg.inv(G)

    phi = np.zeros(N) if phi0 is None else np.asarray(phi0, float)[:-1].copy()
    full = V.copy()
    block = np.empty((N, k + 1), order="F")        # [-F, SB] for the solve
    block[:, 1:] = SB
    step = np.zeros(N + 1)                         # dphi, boundary node 0
    a = np.zeros(k)
    prev_update = None
    ratios: list = []
    converged = False
    it = 0
    for it in range(max_iter):
        full[:-1] = Vf + phi
        with np.errstate(over="ignore", invalid="ignore"):
            f, fp = _f_and_prime(dim, full, eps)
            F = op.stiffness_apply(full)[:-1] - wf * f[:-1] + SB @ a
        if not (np.isfinite(F).all() and np.isfinite(fp).all()):
            break
        np.negative(F, out=block[:, 0])
        X = op.jacobian_solve(fp, block)
        da = np.linalg.solve(SB.T @ X[:, 1:], SB.T @ (X[:, 0] + phi))
        dphi = X[:, 0] - X[:, 1:] @ da
        phi_new = phi + dphi
        if not np.isfinite(phi_new).all():
            break
        phi, a = phi_new, a + da
        step[:-1] = dphi
        upd = op.h1_norm(step)
        if prev_update is not None and prev_update > 0:
            ratios.append(upd / prev_update)
        prev_update = upd
        if upd < tol:
            converged = True
            break

    phi_full = np.concatenate([phi, [0.0]])
    full = V + phi_full
    with np.errstate(over="ignore", invalid="ignore"):
        load = wf * f_eps(dim, full, eps)[:-1]
    c = (Ginv @ (SB.T @ ((Vf + phi) - op.stiffness_solve(load)))
         if np.all(np.isfinite(load)) else np.full(k, np.nan))
    dc = np.full((k, k), np.nan)
    if converged:
        SD = op.stiffness_apply(np.column_stack(      # zero at r = R
            [project_psi0_radial_dlog(dom, r, mu) for mu in mus]))[:-1]
        Z = op.jacobian_solve(fp, SD)
        rhs = -G * signs - (SB.T @ Z) * a + np.diag(SD.T @ phi)
        dc = -np.linalg.solve(SB.T @ X[:, 1:], rhs)
    return LSResult(phi_full, c, op.h1_norm(phi_full), it + 1,
                    converged, ratios, SB.T @ phi, dc)


# ---------------------------------------------------------------------------
# scale extraction
# ---------------------------------------------------------------------------

def extract_scales(nodes: np.ndarray, values: np.ndarray, eps: float,
                   dim: Dimension, *, expected_layers: int | None = None):
    """Locate the alternating radial extrema of ``values`` at ``nodes`` and
    invert the height map.

    Layer heights follow h_i = alpha mu_i^{-(n-2)/2}; the dilation factors
    divide out the scale schedule at ``eps``.  Entries are returned
    outermost layer first: (extremum radius, height, mu, d).
    """
    u, r = values, nodes
    if not np.any(u):
        raise StructureError("zero field has no concentration structure")
    idx, ends, starts = _sign_flips(u)
    # maximal runs of constant sign
    regions = list(zip([idx[0], *starts], [*ends, idx[-1]]))
    k = len(regions)
    if expected_layers is not None and k != expected_layers:
        raise StructureError(
            f"expected {expected_layers} sign regions, found {k}")
    t = scale_variable(eps)
    out = []
    # innermost region is the deepest layer; report outermost first
    for layer, (a, b) in zip(range(k, 0, -1), regions):
        seg = np.abs(u[a:b + 1])
        j = int(np.argmax(seg))
        height = float(seg[j])
        mu = (dim.alpha / height) ** (2.0 / (dim.n - 2.0))
        d = mu / t ** ((2.0 * layer - 1.0) / (dim.n - 2.0))
        out.append((layer, float(r[a + j]), height, mu, d))
    out.sort(key=lambda row: row[0])
    mus = [row[3] for row in out]
    if np.any(np.diff(mus) >= 0):
        raise StructureError("layer scales do not decrease inward")
    return [(radius, height, mu, d) for _, radius, height, mu, d in out]


def _sign_flips(u):
    """Nodes with |u| >= 1e-9 max|u|, and the (end, start) pairs of sign runs."""
    s = np.sign(u)
    s[np.abs(u) < 1e-9 * float(np.max(np.abs(u)))] = 0
    idx = np.nonzero(s)[0]
    flip = s[idx[:-1]] != s[idx[1:]]
    return idx, idx[:-1][flip], idx[1:][flip]


def nodal_radii(nodes: np.ndarray, values: np.ndarray) -> list:
    """Radii where ``values`` change sign (midpoints of the sign flips)."""
    _, ends, starts = _sign_flips(values)
    return [0.5 * (nodes[a] + nodes[b]) for a, b in zip(ends, starts)]


# ---------------------------------------------------------------------------
# solve pipeline and sweep
# ---------------------------------------------------------------------------

def _default_grid(dom: BallDomain, mus, per_decade=40) -> RadialGrid:
    return geometric_grid(dom.radius, min(mus) / 50.0, per_decade)


def _adjust_dilations(dom, eps, dbar0, *, per_decade=40, grid=None,
                      max_newton=40):
    """Drive the correction multipliers c(log d) to zero.

    Damped Newton in log d with the exact Jacobian of :func:`ls_correction`
    on a grid held fixed while it runs.  A trial within e^0.5 of d starts
    its correction from the last phi; a farther one starts from phi = 0,
    since Newton from a far phi can reach another correction.  A trial is
    rejected if its log d is not finite, its schedule is invalid, its
    outermost scale is not below the ball radius (the rule
    :func:`solve_from_tower` applies to the result; checked before a grid
    is built), its correction does not converge or meets a singular matrix
    or a float overflow, or the grid has fewer than 20 nodes below its
    smallest scale (there c levels off above zero and the line search
    stalls).  When the Newton stops, or steps after such an unresolved
    trial, the grid is rebuilt from d (phi carried over by interpolation)
    until it is node for node the grid the root was found on, in at most
    10 rounds.  A caller's ``grid`` is kept.  Returns (cfg, grid,
    correction, counts) at the root.
    """
    k = len(dbar0)
    TowerConfig.centered(dom, k, eps, dbar0)       # reject a bad start early
    counts = dict.fromkeys(SOLVE_COUNTS, 0)
    UNRESOLVED = "unresolved"

    def evaluate(ld, g, phi0):
        """(grid, cfg, correction) at ``ld`` (on its own grid if g is None)."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            d = np.exp(ld)
            if not np.all(np.isfinite(d)):
                return None
            try:
                cfg = TowerConfig.centered(dom, k, eps, d)
            except ParameterError:
                return None
            if cfg.mus[0] >= dom.radius:
                return None
            if g is None:
                g = _default_grid(dom, cfg.mus, per_decade)
            elif g.nodes_below(cfg.mus[-1]) < 20:
                return UNRESOLVED
            counts["correction_solves"] += 1
            try:
                ls = ls_correction(dom, g, cfg, phi0=phi0)
            except (np.linalg.LinAlgError, OverflowError):
                return None
        ok = ls.converged and np.isfinite(np.append(ls.c, ls.dc_dlogd)).all()
        return (g, cfg, ls) if ok else None

    # from dbar0, else walk the dilations down until the correction converges
    for shrink in np.concatenate([[1.0], np.geomspace(0.5, 1e-3, 12)]):
        ld = np.log(np.asarray(dbar0, dtype=float)) + np.log(shrink)
        cur = evaluate(ld, grid, None)
        if isinstance(cur, tuple):
            break
    else:
        raise SolverError("correction stage failed for every trial dilation")
    g, cfg, ls = cur
    for rounds in range(1, 11):
        counts["grids"] = rounds
        for _ in range(max_newton):
            nc = float(np.linalg.norm(ls.c))
            if nc < 1e-13:
                break
            try:
                step = np.linalg.solve(ls.dc_dlogd, -ls.c)
            except np.linalg.LinAlgError:
                break
            lam, coarse = 1.0, False
            while lam >= 2.0**-16:
                near = np.max(np.abs(lam * step)) <= 0.5
                trial = evaluate(ld + lam * step, g, ls.phi if near else None)
                coarse = coarse or trial is UNRESOLVED
                if isinstance(trial, tuple) and \
                        float(np.linalg.norm(trial[2].c)) < (1.0 - 0.25 * lam) * nc:
                    break
                lam *= 0.5
            else:
                break
            ld = ld + lam * step
            _, cfg, ls = trial
            counts["dilation_steps"] += 1
            if coarse and grid is None:
                break
        new = grid or _default_grid(dom, cfg.mus, per_decade)
        if np.array_equal(new.nodes, g.nodes):
            return cfg, g, ls, counts
        cur = evaluate(ld, new, np.interp(new.nodes, g.nodes, ls.phi))
        if not isinstance(cur, tuple):
            raise SolverError("correction did not converge on the rebuilt grid")
        g, cfg, ls = cur
    raise SolverError("dilation solve did not settle on a grid in 10 rounds")


def solve_from_tower(dom: BallDomain, eps: float, dbar, *,
                     per_decade: int = 40,
                     grid: RadialGrid | None = None) -> RadialSolution:
    """Solve the radial problem starting from the tower ansatz at ``dbar``.

    The dilation factors come first (:func:`_adjust_dilations`); then one
    evaluation of the strong residual of V + phi at the root, on the root's
    grid, certifies it (:func:`newton_solve`).  A caller-supplied ``grid``
    is used for the whole solve and never rebuilt.  Raises
    :class:`StructureError` unless the solution has one sign region per
    layer and its outermost scale lies below the ball radius (a far start
    can otherwise end on another branch).
    """
    cfg, g, ls, counts = _adjust_dilations(dom, eps, dbar,
                                           per_decade=per_decade, grid=grid)
    V = project_tower_radial(dom, g.nodes, cfg.mus, cfg.signs) + ls.phi
    sol = newton_solve(dom, g, eps, V)
    scales = extract_scales(g.nodes, sol.values, eps, dom.dim,
                            expected_layers=len(cfg.mus))
    if scales[0][2] >= dom.radius:
        raise StructureError(
            f"outermost scale {scales[0][2]:.3e} is not below the ball "
            f"radius {dom.radius:g}")
    return replace(sol, scales=scales, **counts)


def sweep_epsilon(dom: BallDomain, k: int, eps_grid, *, dbar0,
                  per_decade: int = 40):
    """Continuation over a decreasing eps grid.

    Each point warm-starts from the dilation factors extracted at earlier
    points: once two consecutive points have converged, from the secant
    predictor, log d extrapolated linearly in log eps through those two;
    before that, from the previous point's d (the first point from
    ``dbar0``).  Emits one report row per eps; a non-converged point is
    recorded, with its error message, the exception class as
    ``error_type`` and the failed solve's residual ``trace`` (empty unless
    it raised :class:`SolverError`).  It never feeds the predictor: the
    sweep continues from the last good dilations, and predicts again once
    two more points have converged.
    """
    eps_grid = list(eps_grid)
    if any(e2 >= e1 for e1, e2 in zip(eps_grid[:-1], eps_grid[1:])):
        raise ParameterError("eps grid must be strictly decreasing")
    dbar = np.asarray(dbar0, dtype=float)
    rows = []
    solutions = []
    good = []          # (log eps, log d) of the points since the last failure
    for eps in eps_grid:
        start = dbar
        if len(good) >= 2:
            (x0, y0), (x1, y1) = good[-2:]
            start = np.exp(y1 + (y1 - y0) * ((np.log(eps) - x1) / (x1 - x0)))
        try:
            sol = solve_from_tower(dom, eps, start, per_decade=per_decade)
            scales = sol.scales
            row = {
                "eps": eps,
                "converged": True,
                "newton_iters": sol.newton_iters,
                "residual": sol.residual,
                "mu": [s[2] for s in scales],
                "d": [s[3] for s in scales],
                "nodal_radii": nodal_radii(sol.grid.nodes, sol.values),
                **{key: getattr(sol, key) for key in SOLVE_COUNTS},
            }
            dbar = np.array([s[3] for s in scales])
            good.append((np.log(eps), np.log(dbar)))
            solutions.append(sol)
        except (SolverError, StructureError, ParameterError) as exc:
            good.clear()
            msg = str(exc)
            if not rows and len(eps_grid) > 1:
                msg += " (first sweep point; consider a larger starting eps)"
            row = {"eps": eps, "converged": False, "newton_iters": 0,
                   "residual": float("nan"), "mu": [float("nan")] * k,
                   "d": [float("nan")] * k, "nodal_radii": [],
                   **dict.fromkeys(SOLVE_COUNTS, 0), "error": msg,
                   "error_type": type(exc),
                   "trace": list(getattr(exc, "trace", []))}
            solutions.append(None)
        rows.append(row)
    return rows, solutions
