"""The correction loop and the field Newton of ``bubbletower.radial``,
unoptimised.

Copies of ``ls_correction`` and ``newton_solve`` as they were before their
loops were made lean: a fresh ``RadialOperator`` per call, separate
``f_eps`` and ``f_eps_prime`` calls (``f_eps`` twice per Newton iterate),
``np.column_stack`` right-hand sides and scipy's banded wrappers
(``banded.py``).  The package's ``ls_correction`` must return the same
results bit for bit.  Its ``newton_solve`` is now a one-evaluation residual
certificate: it must return this Newton's field and residual where this
Newton stops before its first step, and otherwise raise with this Newton's
first trace entry as its trace.
"""

import numpy as np

from bubbletower.profiles import f_eps, f_eps_prime
from bubbletower.projection import (project_psi0_radial,
                                    project_psi0_radial_dlog,
                                    project_tower_radial)
from bubbletower.errors import SolverError
from bubbletower.radial import LSResult, RadialOperator, RadialSolution

from . import banded


def ls_correction(dom, grid, cfg, *, tol=1e-10, max_iter=400, phi0=None):
    dim = dom.dim
    op = RadialOperator(dim, grid)
    r = grid.nodes
    mus, signs = cfg.mus, cfg.signs
    eps = cfg.eps
    k = len(mus)
    N = len(r) - 1

    V = project_tower_radial(dom, r, mus, signs)
    V[-1] = 0.0
    Vf = V[:-1]

    B = np.column_stack(
        [project_psi0_radial(dom, r, mu)[:-1] for mu in mus])
    SB = op.stiffness_apply(np.vstack([B, np.zeros((1, k))]))[:-1]
    G = B.T @ SB
    Ginv = np.linalg.inv(G)

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
    full = V + phi_full
    with np.errstate(over="ignore", invalid="ignore"):
        load = op.w[:-1] * f_eps(dim, full, eps)[:-1]
    c = (Ginv @ (SB.T @ ((Vf + phi) - banded.stiffness_solve(op, load)))
         if np.all(np.isfinite(load)) else np.full(k, np.nan))
    dc = np.full((k, k), np.nan)
    if converged:
        SD = op.stiffness_apply(np.column_stack(
            [project_psi0_radial_dlog(dom, r, mu) for mu in mus]))[:-1]
        Z = banded.jacobian_solve(op, fp, SD)
        rhs = -G * signs - (SB.T @ Z) * a + np.diag(SD.T @ phi)
        dc = -np.linalg.solve(SB.T @ X[:, 1:], rhs)
    return LSResult(phi_full, c, op.h1_norm(phi_full), it + 1,
                    converged, ratios, SB.T @ phi, dc)


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
