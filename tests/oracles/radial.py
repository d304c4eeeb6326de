"""The correction loop and the field Newton of ``bubbletower.radial``,
unoptimised.

Copies of ``ls_correction`` and ``newton_solve`` as they were before their
loops were made lean: a fresh ``RadialOperator`` per call, separate
calls of the reference ``f_eps`` and ``f_eps_prime`` (``nonlinearity.py``;
``f_eps`` twice per Newton iterate),
``np.column_stack`` right-hand sides and scipy's banded wrappers
(``banded.py``).  The package's ``ls_correction`` must return the same
results bit for bit, its tangents ``dc_dlogd`` and ``dphi_dlogd`` (which
the package computes on first use, and this copy at convergence) and its
field V + phi (``values``) included.  Its multipliers c are the bordered system's -a at
convergence and NaN otherwise: there S(V+phi) - W f_eps(V+phi) = SB c
holds with c = -a, so the projection
G^-1 SB^T((V+phi) - S^-1 W f_eps(V+phi)) this copy once returned gives the
same c to rounding only, and ``TestLSCorrection`` checks that gap instead.
Its ``newton_solve`` is now a one-evaluation residual certificate: it must
return this Newton's field and residual where this Newton stops before its
first step, and otherwise raise with this Newton's first trace entry as
its trace.
"""

import numpy as np

from bubbletower.projection import project_psi0_radial, project_tower_layers
from bubbletower.errors import SolverError
from bubbletower.radial import LSResult, RadialOperator, RadialSolution

from . import banded
from .ball import project_psi0_radial_dlog
from .nonlinearity import f_eps, f_eps_prime


def ls_correction(dom, grid, cfg, *, tol=1e-10, max_iter=40, phi0=None):
    dim = dom.dim
    op = RadialOperator(dim, grid)
    r = grid.nodes
    mus, signs = cfg.mus, cfg.signs
    eps = cfg.eps
    k = len(mus)
    N = len(r) - 1

    V = project_tower_layers(dom, r, mus, signs)[0]
    V[-1] = 0.0
    Vf = V[:-1]

    B = np.column_stack(
        [project_psi0_radial(dom, r, mu)[:-1] for mu in mus])
    SB = op.stiffness_apply(np.vstack([B, np.zeros((1, k))]))[:-1]
    G = B.T @ SB

    phi = np.zeros(N) if phi0 is None else np.asarray(phi0, float)[:-1].copy()
    full = V.copy()
    a = np.zeros(k)
    prev_update = None
    ratios = []
    converged = False
    it = 0
    for it in range(max_iter):
        full[:-1] = Vf + phi
        with np.errstate(over="ignore", invalid="ignore"):
            F = (op.stiffness_apply(full)[:-1]
                 - op.w[:-1] * f_eps(dim, full, eps)[:-1] + SB @ a)
            fp = f_eps_prime(dim, full, eps)
        if not (np.all(np.isfinite(F)) and np.all(np.isfinite(fp))):
            break
        X = banded.jacobian_solve(op, fp, np.column_stack([-F, SB]))
        da = np.linalg.solve(SB.T @ X[:, 1:], SB.T @ (X[:, 0] + phi))
        dphi = X[:, 0] - X[:, 1:] @ da
        if not np.all(np.isfinite(phi + dphi)):
            break
        phi, a = phi + dphi, a + da
        upd = op.h1_norm(np.concatenate([dphi, [0.0]]))
        if prev_update is not None and prev_update > 0:
            ratios.append(upd / prev_update)
        prev_update = upd
        if upd < tol:
            converged = True
            break

    phi_full = np.concatenate([phi, [0.0]])
    c = np.full(k, np.nan)
    dc = np.full((k, k), np.nan)
    dphi = np.full((N + 1, k), np.nan)
    if converged:
        c = -a
        SD = op.stiffness_apply(np.column_stack(
            [project_psi0_radial_dlog(dom, r, mu) for mu in mus]))[:-1]
        Z = banded.jacobian_solve(op, fp, SD)
        rhs = -G * signs - (SB.T @ Z) * a + np.diag(SD.T @ phi)
        dc = -np.linalg.solve(SB.T @ X[:, 1:], rhs)
        dphi = np.vstack([-B * signs - Z * a + X[:, 1:] @ dc,
                          np.zeros((1, k))])
    res = LSResult(phi_full, c, op.h1_norm(phi_full), it + 1,
                   converged, ratios, SB.T @ phi, V + phi_full)
    res.dc_dlogd, res.dphi_dlogd = dc, dphi      # computed here, eagerly
    return res


def newton_solve(dom, grid, eps, initial, *, max_iter=80):
    dim = dom.dim
    op = RadialOperator(dim, grid)
    u = np.asarray(initial, dtype=float).copy()
    u[-1] = 0.0

    def strong_residual(u):
        out = op.stiffness_apply(u)[:-1] - op.w[:-1] * f_eps(dim, u, eps)[:-1]
        return out / op.w[:-1]

    F = strong_residual(u)
    trace = []
    it = 0
    for it in range(max_iter):
        res = float(np.max(np.abs(F)))
        tol = 1e-9 * float(np.max(np.abs(f_eps(dim, u, eps)))) + 1e-12
        trace.append(res)
        if res < tol:
            return RadialSolution(grid, u, eps, res, True, it)
        fp = f_eps_prime(dim, u, eps)
        delta = banded.jacobian_solve(op, fp, -F * op.w[:-1])
        base = float(np.linalg.norm(F))
        lam = 1.0
        while lam >= 2.0**-30:
            ut = u.copy()
            ut[:-1] = u[:-1] + lam * delta
            Ft = strong_residual(ut)
            if float(np.linalg.norm(Ft)) <= (1.0 - 0.25 * lam) * base:
                u, F = ut, Ft
                break
            lam *= 0.5
        else:
            break
    raise SolverError(
        f"Newton did not converge after {it + 1} iterations "
        f"(residual {float(np.max(np.abs(F))):.3e})", trace=trace)
