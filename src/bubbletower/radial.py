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
elimination (Keller's bordering algorithm) at O(N k) per step; at
convergence the multipliers are the c of the reduction, c = -a.  Every
tridiagonal solve calls LAPACK's ``dgtsv`` from scipy's compiled
``scipy.linalg._flapack``, loaded on its own at the first solve
(:func:`_dgtsv`): a solve runs neither ``scipy/__init__`` nor
``scipy.linalg``.

Dilation solve.  The tower ansatz starts far from the discrete solution
along the nearly-neutral dilation directions, so a solve first zeroes the
multipliers c(log d) by Newton with the exact Jacobian of the bordered
system, its trials on the path that is Newton in the leading monomials of
the reduced energy (:func:`_power_path`).  Every trial is corrected on
the lattice grid of its own scales, a near one from phi predicted along
the tangent dphi/dlog d that the same elimination gives, so the solve
ends on the grid of its root.  At that root V + phi
solves the discrete equation, and one evaluation of its strong residual
certifies it (:func:`newton_solve`).

Continuation.  A sweep in eps starts each point from the Euler or cubic
Hermite prediction of its scales along the branch, whose tangent the same
bordered elimination gives (:func:`sweep_epsilon`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .domain import BallDomain
from .errors import (ParameterError, ResolutionError, SolverError,
                     StructureError)
from .profiles import Dimension, _f_and_prime, _log_shifted, f_eps
from .projection import _tower_and_modes
from .tower import TowerConfig, dilation_factors

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
    4; :func:`_lattice_level`): the first of them rounds ``rmin`` down by
    less than one cell, so every ``rmin`` in one cell gives the same grid,
    node for node, and the geometric nodes of a level are among those of
    any multiple of it.  The core below the first geometric node is filled
    with uniform cells matching the first geometric spacing, so the
    cell-size ratio stays smooth everywhere (an abrupt jump would cost the
    stencil its second-order consistency there).
    """
    return _lattice_grid(radius, _lattice_level(radius, rmin, per_decade),
                         per_decade)


def _lattice_level(radius: float, rmin: float, per_decade) -> int:
    """The level m of :func:`geometric_grid`: its geometric cell count."""
    if not (0 < rmin < radius):
        raise ParameterError("need 0 < rmin < radius")
    return max(int(np.ceil(np.log10(radius / rmin) * per_decade)), 4)


def _lattice_grid(radius: float, m: int, per_decade) -> RadialGrid:
    r = radius * 10.0 ** (-np.arange(m, -1, -1) / per_decade)
    m_core = max(int(np.round(1.0 / (10.0 ** (1.0 / per_decade) - 1.0))), 1)
    core = np.linspace(0.0, r[0], m_core + 1)[:-1]
    return RadialGrid(np.concatenate([core, r]), per_decade=per_decade)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

@functools.cache
def _dgtsv():
    """LAPACK's tridiagonal solver ``dgtsv`` from ``scipy.linalg._flapack``.

    That is the compiled module that ``scipy.linalg.lapack`` re-exports, so
    the routine is the same function object.  It is loaded at the first
    solve from its own file (:func:`._scipy.load`), without ``scipy`` or
    ``scipy.linalg``, so no command loads a scipy package; this also skips
    scipy's numpy-version warning.
    """
    from ._scipy import load
    return load("scipy.linalg._flapack").dgtsv


def _require_finite(*arrays) -> None:
    for a in arrays:
        if not np.isfinite(a).all():
            raise ValueError("array must not contain infs or NaNs")


class RadialOperator:
    """Stiffness/weight assembly for one (dimension, grid) pair.

    Every solve is one call of LAPACK's tridiagonal ``dgtsv``
    (:func:`_dgtsv`), the routine that ``scipy.linalg.solve_banded`` with a
    (1, 1) band ends in, so the results are the same to the bit.  As that
    wrapper does, a non-finite input raises ``ValueError`` and a singular
    matrix ``numpy.linalg.LinAlgError``.
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

    def jacobian_solve(self, fprime: np.ndarray, rhs_free: np.ndarray) -> np.ndarray:
        """Solve (S - W diag(fprime)) delta = rhs on the free nodes."""
        _require_finite(rhs_free)
        return self._jacobian_solve(fprime, rhs_free)

    def _jacobian_solve(self, fprime: np.ndarray,
                        rhs_free: np.ndarray) -> np.ndarray:
        """:meth:`jacobian_solve` for a right-hand side the caller has
        checked finite: only the Jacobian diagonal is checked here."""
        d = self._sdiag - self.w[:-1] * fprime[:-1]
        _require_finite(d)
        _, _, _, x, info = _dgtsv()(self._soff, d, self._soff, rhs_free,
                                    overwrite_d=1)
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
        """Energy-dual norm of a strong residual given on the free nodes.

        S^-1 comes from :meth:`jacobian_solve` at f' = 0.  Each pivot that
        ``dgtsv`` eliminates on S ties its off-diagonal in exact arithmetic,
        so rounding decides its row swaps; the solve agrees with a Cholesky
        solve of S to rounding.
        """
        load = self.w[:-1] * residual_interior
        z = self.jacobian_solve(np.zeros(len(self.w)), load)
        return float(np.sqrt(max(np.dot(load, z), 0.0)))


# ---------------------------------------------------------------------------
# residual certificate
# ---------------------------------------------------------------------------

SOLVE_COUNTS = ("dilation_steps", "correction_solves", "grids",
                "correction_iterations")


@dataclass
class RadialSolution:
    """A certified discrete solution.  :func:`solve_from_tower` also sets
    ``mus``, the tower's scales at the dilation root (which the extracted
    ``scales`` only approximate), and ``correction``, the root's
    :class:`LSResult`, whose Jacobians give the branch's tangent in eps."""

    grid: RadialGrid
    values: np.ndarray
    eps: float
    residual: float
    converged: bool                # always True (see newton_solve)
    newton_iters: int              # always 0 (see newton_solve)
    scales: list = field(default_factory=list)
    dilation_steps: int = 0        # accepted Newton steps in log d
    correction_solves: int = 0     # ls_correction calls
    grids: int = 0                 # grids solved on
    correction_iterations: int = 0  # Newton iterations of those solves
    mus: np.ndarray | None = None  # tower scales at the root, outermost first
    correction: LSResult | None = field(default=None, repr=False)


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

class _LastStep(NamedTuple):
    """What the tangents of a converged :class:`LSResult` read: the last
    Newton step's f'_eps (the Jacobian J's), Schur matrix K and J^-1 SB,
    and the tower's modes."""

    op: RadialOperator
    eps: float
    fp: np.ndarray             # f'_eps at the last step's iterate
    K: np.ndarray              # SB^T J^-1 SB
    JSB: np.ndarray            # J^-1 SB
    SB: np.ndarray             # S applied to the projected modes (free nodes)
    B: np.ndarray              # the projected modes (free nodes)
    D: np.ndarray              # their log-derivatives in mu (all nodes)
    signs: tuple


@dataclass
class LSResult:
    """The result of :func:`ls_correction`.  Its tangents are computed on
    first use, from the last step's factors, since only a dilation step or
    a continuation step reads them: ``dc_dlogd`` and ``dphi_dlogd`` (NaN
    unless converged; both from one tridiagonal solve Z = J^-1 SD, made
    once) and ``dc_dlogeps()``, the k-vector of c's derivative in log eps
    at fixed scales (NaN unless converged).  A tangent that is assigned
    replaces the computed one."""

    phi: np.ndarray            # nodal correction, boundary node included
    c: np.ndarray              # multipliers -a of the dilation modes (NaN unless converged)
    phi_norm: float            # energy norm of phi
    iterations: int
    converged: bool
    update_ratios: list
    orthogonality: np.ndarray  # pairings <phi, P psi_i> (should be ~0)
    values: np.ndarray         # the field V + phi, boundary node 0
    _last_step: _LastStep | None = field(default=None, repr=False,
                                         compare=False)

    @functools.cached_property
    def _sd_and_z(self):
        s = self._last_step
        SD = s.op.stiffness_apply(s.D)[:-1]        # zero at r = R
        return SD, s.op.jacobian_solve(s.fp, SD)

    @functools.cached_property
    def dc_dlogd(self) -> np.ndarray:
        """k x k Jacobian of c in log d."""
        s = self._last_step
        if s is None:
            return np.full((len(self.c), len(self.c)), np.nan)
        SD, Z = self._sd_and_z
        a, phi = -self.c, self.phi[:-1]
        rhs = -(s.B.T @ s.SB) * s.signs - (s.SB.T @ Z) * a \
            + np.diag(SD.T @ phi)
        return -_solve(s.K, rhs)

    @functools.cached_property
    def dphi_dlogd(self) -> np.ndarray:
        """(N+1) x k tangent of phi in log d."""
        out = np.full((len(self.phi), len(self.c)), np.nan)
        s = self._last_step
        if s is not None:
            Z, a = self._sd_and_z[1], -self.c
            out[:-1] = -s.B * s.signs - Z * a + s.JSB @ self.dc_dlogd
            out[-1] = 0.0
        return out

    def dc_dlogeps(self) -> np.ndarray:
        s = self._last_step
        if s is None:
            return np.full(len(self.c), np.nan)
        u = self.values[:-1]
        dF = s.eps * s.op.w[:-1] * _f_and_prime(s.op.dim, u, s.eps)[0]
        dF *= np.log(_log_shifted(np.abs(u)))
        return _solve(s.K, s.JSB.T @ dF)


def ls_correction(dom: BallDomain, grid: RadialGrid, cfg, *,
                  phi0: np.ndarray | None = None,
                  forcing: float = 0.0) -> LSResult:
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
    iff the energy norm of the full step falls below
    max(1e-10, forcing |a|) within 40 steps; a non-finite iterate ends the
    iteration unconverged.  A positive ``forcing`` is an inexact-Newton
    forcing term for a caller that only steers by the result; the default
    0 is the 1e-10 stop.  On the grid of its own scales a correction that
    converges takes at most 10 steps on every job of
    ``tests/csv_digest.py``, so the cap ends one that does not early; at
    n >= 6 and eps 0.2 some converge only after more than 40 (up to 268)
    steps, and are returned unconverged.

    At convergence S (V + phi) - W f_eps(V + phi) = SB c with c = -a, the
    multipliers of the reduction; ``c`` is NaN unless converged.  The field
    V + phi is returned as ``values``, on the tower this call built.
    Differentiating the bordered system in log d (dV/dlog d_j = sign_j B_j,
    D_j = dB_j/dlog d_j, K = SB^T J^-1 SB the last step's Schur matrix,
    G = B^T SB, Z = J^-1 SD) gives ``dc_dlogd``, and the same elimination
    gives ``dphi_dlogd`` at the cost of one product (Keller's bordering
    applied to the tangent):

        dc/dlog d   = -K^-1 [-G diag(sign) - SB^T Z diag(a) + diag(SD^T phi)],
        dphi/dlog d = -B diag(sign) - Z diag(a) + (J^-1 SB) dc/dlog d.

    At fixed scales only the explicit eps of f_eps moves with eps, so
    dF/dlog eps = eps W f_eps(u) ln ln(e + |u|), and as J is symmetric

        dc/dlog eps = K^-1 (J^-1 SB)^T dF/dlog eps,

    which ``dc_dlogeps()`` evaluates on call at the field V + phi, from the
    last step's K and J^-1 SB: no further tridiagonal solve.  All three
    tangents are computed on first use (:class:`LSResult`).
    """
    dim = dom.dim
    op = grid.operator(dim)
    mus, signs = cfg.mus, cfg.signs
    eps = cfg.eps
    k = len(mus)
    N = len(grid) - 1
    wf = op.w[:-1]

    # the tower, and the projected dilation modes and their log-derivatives
    # in mu, in one pass per layer
    V, modes, D = _tower_and_modes(dom, grid.nodes, mus, signs)
    V[-1] = 0.0
    Vf = V[:-1]
    modes[-1] = 0.0                                # zero at r = R
    B = modes[:-1]
    SB = op.stiffness_apply(modes)[:-1]

    phi = np.zeros(N) if phi0 is None else np.asarray(phi0, float)[:-1].copy()
    spare = np.empty(N)                            # the next phi
    full = V.copy()
    flux = np.empty(N)
    block = np.empty((N, k + 1), order="F")        # [-F, SB] for the solve
    block[:, 1:] = SB
    F = block[:, 0]
    step = np.zeros(N + 1)                         # dphi, boundary node 0
    a = np.zeros(k)
    prev_update = None
    ratios: list = []
    converged = False
    it = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(40):
            np.add(Vf, phi, out=full[:-1])
            f, fp = _f_and_prime(dim, full, eps)
            # F = (S full)[:-1] - W f + SB a, from the cell fluxes
            np.subtract(full[1:], full[:-1], out=flux)
            flux *= op.kcell
            F[0] = -flux[0]
            np.subtract(flux[:-1], flux[1:], out=F[1:])
            f[:-1] *= wf
            F -= f[:-1]
            F += SB @ a
            # F is not finite wherever SB is not, so this checks [-F, SB]
            if not (np.isfinite(F).all() and np.isfinite(fp).all()):
                break
            np.negative(F, out=F)
            X = op._jacobian_solve(fp, block)
            K = SB.T @ X[:, 1:]                    # Schur matrix
            da = _solve(K, SB.T @ (X[:, 0] + phi))
            dphi = X[:, 0] - X[:, 1:] @ da
            np.add(phi, dphi, out=spare)
            if not np.isfinite(spare).all():
                break
            phi, spare = spare, phi
            a += da
            step[:-1] = dphi
            upd = op.h1_norm(step)
            if prev_update is not None and prev_update > 0:
                ratios.append(upd / prev_update)
            prev_update = upd
            if upd < 1e-10 or (forcing
                               and upd < forcing * float(a @ a) ** 0.5):
                converged = True
                break

    phi_full = np.concatenate([phi, [0.0]])
    c = np.full(k, np.nan)
    last_step = None
    if converged:
        c = -a
        last_step = _LastStep(op, eps, fp, K, X[:, 1:], SB, B, D, signs)
    return LSResult(phi_full, c, op.h1_norm(phi_full), it + 1,
                    converged, ratios, SB.T @ phi, V + phi_full, last_step)


def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(a, b)`` for a float k x k ``a`` and a float ``b``
    of k entries or k rows: the gufunc that function calls, under the error
    state it sets, without its argument conversions.  A singular ``a``
    raises ``numpy.linalg.LinAlgError``."""
    gufunc = _umath_linalg.solve1 if b.ndim == 1 else _umath_linalg.solve
    with np.errstate(call=_raise_singular, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        return gufunc(a, b, signature="dd->d")


# ---------------------------------------------------------------------------
# scale extraction
# ---------------------------------------------------------------------------

def extract_scales(nodes: np.ndarray, values: np.ndarray, eps: float,
                   dim: Dimension, *, expected_layers: int | None = None):
    """Locate the alternating radial extrema of ``values`` at ``nodes`` and
    invert the height map.

    Layer heights follow h_i = alpha mu_i^{-(n-2)/2}; the dilation factors
    are :func:`~bubbletower.tower.dilation_factors` of those scales at
    ``eps``.  Entries are returned outermost layer first: (extremum radius,
    height, mu, d).
    """
    u, r = values, nodes
    if not np.any(u):
        raise StructureError("zero field has no concentration structure")
    idx, ends, starts = _sign_flips(r, u, dim)
    # maximal runs of constant sign
    regions = list(zip([idx[0], *starts], [*ends, idx[-1]]))
    k = len(regions)
    if expected_layers is not None and k != expected_layers:
        raise StructureError(
            f"expected {expected_layers} sign regions, found {k}")
    out = []
    # regions run outward from the centre: innermost (deepest layer) first
    for a, b in reversed(regions):
        seg = np.abs(u[a:b + 1])
        j = int(np.argmax(seg))
        height = float(seg[j])
        mu = (dim.alpha / height) ** (2.0 / (dim.n - 2.0))
        out.append((float(r[a + j]), height, mu))
    mus = [row[2] for row in out]
    if np.any(np.diff(mus) >= 0):
        raise StructureError("layer scales do not decrease inward")
    return [(*row, d) for row, d in zip(out, dilation_factors(dim, eps, mus))]


def _sign_flips(r, u, dim: Dimension):
    """Nodes with v >= 1e-9 max v, v = r^{(n-2)/2}|u| the Emden-Fowler field
    (node 0 takes node 1's weight), in which every bubble has the same
    height; and the (end, start) pairs of sign runs among those nodes."""
    w = r ** (0.5 * (dim.n - 2.0))
    w[0] = w[1]
    v = w * np.abs(u)
    s = np.sign(u)
    s[v < 1e-9 * float(np.max(v))] = 0
    idx = np.nonzero(s)[0]
    flip = s[idx[:-1]] != s[idx[1:]]
    return idx, idx[:-1][flip], idx[1:][flip]


def nodal_radii(nodes: np.ndarray, values: np.ndarray, dim: Dimension) -> list:
    """Radii where ``values`` change sign (midpoints of the sign flips of
    :func:`_sign_flips`)."""
    _, ends, starts = _sign_flips(nodes, values, dim)
    return [0.5 * (nodes[a] + nodes[b]) for a, b in zip(ends, starts)]


# ---------------------------------------------------------------------------
# solve pipeline and sweep
# ---------------------------------------------------------------------------

def _default_level(dom: BallDomain, mus, per_decade) -> int:
    """Lattice level of the grid of a tower with scales ``mus``, that of
    :func:`geometric_grid` at rmin = min(mus)/50: the one grid rule of the
    solver and of ``ansatz``."""
    return _lattice_level(dom.radius, min(mus) / 50.0, per_decade)


# the start's dilations, then these fractions of them while its correction
# does not converge
_SHRINKS = np.concatenate([[1.0], np.geomspace(0.5, 1e-3, 12)])

# inexact-Newton forcing term of the corrections that only steer the
# dilation solve (ls_correction's ``forcing``)
_STEER_FORCING = 1e-4


def _layer_rates(n: int, k: int) -> np.ndarray:
    """The exponents r = (n - 2, (n - 2)/2, ...) of the reduced energy's
    monomials (mu_1/R)^{n-2} and (mu_i/mu_{i-1})^{(n-2)/2} in the layer
    coordinates of :func:`_power_path`."""
    rates = np.full(k, 0.5 * (n - 2.0))
    rates[0] = n - 2.0
    return rates


def _power_path(step: np.ndarray, lam: float,
                rates: np.ndarray) -> np.ndarray:
    """The move in log d of trial ``lam`` along the Newton direction
    ``step`` (in log d), taken in the monomials z_i = e^{r_i y_i} of the
    layer coordinates y_1 = ln mu_1, y_i = ln(mu_i/mu_{i-1}).

    Each y_i moves by ln(max(1 + lam r_i dy_i, 1/2))/r_i, dy the step in
    y: Newton in z, so a residual that is affine in the monomials is
    zeroed by one full step, and no trial takes a monomial below half its
    value.  The path is tangent to lam * step at lam = 0.
    """
    dy = step.copy()
    dy[1:] -= step[:-1]
    return np.cumsum(np.log(np.maximum(1.0 + lam * rates * dy, 0.5)) / rates)


def _adjust_dilations(dom, eps, dbar0, *, per_decade=40):
    """Drive the correction multipliers c(log d) to zero.

    Damped Newton with the exact Jacobian of :func:`ls_correction`.  The
    trials of a step lie on :func:`_power_path`: Newton in the leading
    monomials of the reduced energy, which are exponentials of log d, with
    the sufficient-decrease test |c| < (1 - lam/4)|c| of a line search.
    Every trial is corrected on the lattice grid of its own scales
    (:func:`_default_level`, each grid built once per solve), and
    accepting it moves the solve onto that grid, so the solve ends on the
    grid of its root.  A trial within e^0.5 of d (near) starts from the
    tangent-predicted phi + (dphi/dlog d) dlog d (an Euler-Newton
    predictor; interpolated onto the trial's grid when the lattice level
    changed).  A farther trial starts from phi = 0, since Newton from a far
    phi can reach another correction.  The start's correction and a far
    trial's only steer, so they stop at the forcing term
    :data:`_STEER_FORCING`.  A trial is rejected if its log d is not
    finite, its schedule is invalid, two adjacent scales lie within one
    lattice cell, its outermost scale is not below the ball radius (the
    rule :func:`solve_from_tower` applies to the result; checked before a
    grid is built), its correction does not converge or meets a singular
    matrix or a float overflow, or it is not the root and its dc/dlog d is
    not finite.  The Newton takes at most 40 steps.  Three accepted steps
    in a row, each damped to lam <= 1/16, end the solve as stalled:
    :class:`SolverError` with |c| after each accepted step as its
    ``trace``.  Returns (cfg, grid, correction, counts) at the root;
    ``grids`` counts the distinct grids a converged correction ran on, and
    ``correction_iterations`` the Newton iterations of the correction
    solves that returned.
    """
    k = len(dbar0)
    TowerConfig.centered(dom, k, eps, dbar0)       # reject a bad start early
    counts = dict.fromkeys(SOLVE_COUNTS, 0)
    cell = 10.0 ** (1.0 / per_decade)
    rates = _layer_rates(dom.dim.n, k)
    grids: dict = {}                               # lattice level -> grid
    solved_on: set = set()                         # levels of converged solves

    def grid(m):
        g = grids.get(m)
        if g is None:
            g = grids[m] = _lattice_grid(dom.radius, m, per_decade)
        return g

    def evaluate(ld, m, phi0, forcing=0.0):
        """(level, cfg, correction) at ``ld``, on the level of its own
        scales, with phi0 (given on level m) interpolated onto it."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            d = np.exp(ld)
            if not np.all(np.isfinite(d)):
                return None
            try:
                cfg = TowerConfig.centered(dom, k, eps, d)
                own = _default_level(dom, cfg.mus, per_decade)
            except ParameterError:
                return None
            mus = cfg.mus
            if mus[0] >= dom.radius or np.any(mus[:-1] < cell * mus[1:]):
                return None
            if phi0 is not None and own != m:
                phi0 = np.interp(grid(own).nodes, grid(m).nodes, phi0)
            counts["correction_solves"] += 1
            try:
                ls = ls_correction(dom, grid(own), cfg, phi0=phi0,
                                   forcing=forcing)
            except (np.linalg.LinAlgError, OverflowError):
                return None
        counts["correction_iterations"] += ls.iterations
        if not (ls.converged and np.isfinite(ls.c).all()):
            return None
        solved_on.add(own)
        return own, cfg, ls

    def steers(trial, nc=np.inf, lam=0.0):
        """Whether ``trial`` converged with |c| < (1 - lam/4) nc and is
        either the root or has a finite dc/dlog d (computed only then)."""
        if trial is None:
            return False
        nt = float(np.linalg.norm(trial[2].c))
        if nt >= (1.0 - 0.25 * lam) * nc:
            return False
        with np.errstate(over="ignore", invalid="ignore"):
            return nt < 1e-13 or np.isfinite(trial[2].dc_dlogd).all()

    # from dbar0, else walk the dilations down until the correction converges
    for shrink in _SHRINKS:
        ld = np.log(np.asarray(dbar0, dtype=float)) + np.log(shrink)
        cur = evaluate(ld, None, None, _STEER_FORCING)
        if steers(cur):
            break
    else:
        raise SolverError("correction stage failed for every trial dilation")
    m, cfg, ls = cur
    damped = 0                       # accepted steps in a row at lam <= 1/16
    c_trace = []                     # |c| after each accepted step
    for _ in range(40):
        nc = float(np.linalg.norm(ls.c))
        if nc < 1e-13:
            break
        try:
            step = _solve(ls.dc_dlogd, -ls.c)
        except np.linalg.LinAlgError:
            break
        lam = 1.0
        while lam >= 2.0**-16:
            move = _power_path(step, lam, rates)
            if np.max(np.abs(move)) <= 0.5:
                trial = evaluate(ld + move, m,
                                 ls.phi + ls.dphi_dlogd @ move)
            else:
                trial = evaluate(ld + move, m, None, _STEER_FORCING)
            if steers(trial, nc, lam):
                break
            lam *= 0.5
        else:
            break
        ld = ld + move
        m, cfg, ls = trial
        counts["dilation_steps"] += 1
        c_trace.append(float(np.linalg.norm(ls.c)))
        damped = damped + 1 if lam <= 1.0 / 16 else 0
        if damped == 3:
            raise SolverError(
                "dilation solve stalled: 3 consecutive steps damped to "
                f"lam <= 1/16; {_ended_at(c_trace[-1], counts)}",
                trace=c_trace)
    counts["grids"] = len(solved_on)
    return cfg, grid(m), ls, counts


def _ended_at(c_norm, counts) -> str:
    return (f"the dilation solve ended at |c| = {c_norm:.3e} after "
            f"{counts['dilation_steps']} steps "
            f"({counts['correction_solves']} correction solves)")


def solve_from_tower(dom: BallDomain, eps: float, dbar, *,
                     per_decade: int = 40) -> RadialSolution:
    """Solve the radial problem starting from the tower ansatz at ``dbar``.

    The dilation factors come first (:func:`_adjust_dilations`); then one
    evaluation of the strong residual of the root's correction field
    V + phi (``LSResult.values``), on the root's grid, certifies it
    (:func:`newton_solve`); a rejection names the dilation solve's final |c|
    and step count.  Raises
    :class:`StructureError` unless the solution has one sign region per
    layer and its outermost scale lies below the ball radius (a far start
    can otherwise end on another branch).  The solution carries the root's
    tower scales as ``mus`` and its correction as ``correction``.
    """
    cfg, g, ls, counts = _adjust_dilations(dom, eps, dbar,
                                           per_decade=per_decade)
    try:
        sol = newton_solve(dom, g, eps, ls.values)
    except SolverError as exc:
        raise SolverError(
            f"{exc}; {_ended_at(np.linalg.norm(ls.c), counts)}",
            trace=exc.trace) from exc
    scales = extract_scales(g.nodes, sol.values, eps, dom.dim,
                            expected_layers=len(cfg.mus))
    if scales[0][2] >= dom.radius:
        raise StructureError(
            f"outermost scale {scales[0][2]:.3e} is not below the ball "
            f"radius {dom.radius:g}")
    return replace(sol, scales=scales, mus=cfg.mus, correction=ls, **counts)


def sweep_epsilon(dom: BallDomain, eps_grid, *, dbar0,
                  per_decade: int = 40) -> list:
    """Continuation over a decreasing eps grid.

    Each converged point that a later point follows records its tower
    scales ``mus`` and the branch's tangent there,

        dlog mu/dlog eps = -(dc/dlog d)^-1 dc/dlog eps,

    from the root's correction (at fixed eps, log mu and log d differ by a
    constant, so dc/dlog mu is ``dc_dlogd``).  The next point starts from
    the prediction of log mu in log eps: the Euler step from the last
    converged point, or once two points have converged, the cubic Hermite
    interpolant through the last two, mapped to d by
    :func:`~bubbletower.tower.dilation_factors`.  The first point starts
    from ``dbar0``.  Returns one entry per eps: the point's
    :class:`RadialSolution`, or the exception its solve raised.  A failed
    point never feeds the predictor: the next point starts from the
    dilations extracted at the last good point, and the sweep predicts
    again from the points that converge after it.  A root whose
    dc/dlog d is singular gives no tangent and is treated alike.
    """
    eps_grid = list(eps_grid)
    if any(e2 >= e1 for e1, e2 in zip(eps_grid[:-1], eps_grid[1:])):
        raise ParameterError("eps grid must be strictly decreasing")
    dbar = np.asarray(dbar0, dtype=float)
    out = []
    good = []          # (log eps, log mu, slope) since the last failure
    for i, eps in enumerate(eps_grid):
        start = dbar
        if good:
            start = dilation_factors(
                dom.dim, eps, np.exp(_predict(good[-2:], np.log(eps))))
        try:
            sol = solve_from_tower(dom, eps, start, per_decade=per_decade)
        except (SolverError, StructureError, ParameterError) as exc:
            good.clear()
            out.append(exc)
            continue
        dbar = np.array([s[3] for s in sol.scales])
        if i + 1 < len(eps_grid):          # only a later point reads it
            ls = sol.correction
            try:
                slope = -_solve(ls.dc_dlogd, ls.dc_dlogeps())
            except np.linalg.LinAlgError:
                good.clear()
            else:
                good.append((np.log(eps), np.log(sol.mus), slope))
        out.append(sol)
    return out


def _predict(points, x):
    """log mu at log eps = x from (log eps, log mu, slope) ``points``: the
    Euler step from the last one, or the cubic Hermite interpolant through
    both of two, written as that step plus its δ² and δ³ terms."""
    x1, y1, s1 = points[-1]
    delta = x - x1
    if len(points) == 1:
        return y1 + s1 * delta
    x0, y0, s0 = points[0]
    h = x1 - x0
    chord = (y1 - y0) / h
    q = delta / h
    return y1 + delta * (s1 + q * ((2.0 * s1 + s0 - 3.0 * chord)
                                   + q * (s1 + s0 - 2.0 * chord)))
