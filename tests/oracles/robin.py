"""A numerical search for the minimiser of the Robin function.

On a ball the minimiser is the centre in closed form
(``bubbletower.domain.find_robin_min``); this search finds it without that
knowledge, as the closed form's check.  A coarse grid scan seeds
Nelder-Mead, and a Newton polish on the analytic gradient drives the
gradient to roughly machine precision.

The search reads its provider through ``robin`` and ``robin_grad``, and
the coarse scan through ``robin_many``.  A :class:`BallDomain` is scanned
by :func:`robin_many` below; any other provider (a synthetic bowl, a tied
scan) supplies its own ``robin_many`` method.
"""

import numpy as np
from scipy.optimize import minimize

from bubbletower.domain import BallDomain
from bubbletower.errors import ParameterError


class SearchError(RuntimeError):
    """The Robin minimiser did not converge."""


def robin_many(dom, x):
    """Robin function of the ball ``dom`` at an (m, n) array of points; inf
    on or outside the sphere.

    The squared radii come from a stacked matmul, which numpy evaluates
    with the same dot product ``BallDomain.robin`` uses, so both see the
    same interior and the values agree to a few ulp.
    """
    n = dom.dim.n
    R = dom.radius
    xl = np.asarray(x, dtype=float) - dom.center
    r2 = np.matmul(xl[:, None, :], xl[:, :, None])[:, 0, 0]
    inside = np.sqrt(r2) < R
    out = np.full(len(xl), np.inf)
    out[inside] = (dom.c_n * R ** (n - 2.0)
                   * (R * R - r2[inside]) ** (2.0 - n))
    return out


def _scan_values(prov, pts):
    if isinstance(prov, BallDomain):
        return robin_many(prov, pts)
    return prov.robin_many(pts)


def find_robin_min(dom, box, *, grid_points=32, tol=1e-12, max_iter=200):
    """Locate the minimiser of the Robin function inside ``box``.

    ``box`` is a pair (lower, upper) of corner vectors; it may reach outside
    the domain as long as the minimiser lies well inside.  A coarse scan
    (full grid for n <= 4, axis scan otherwise) seeds a Nelder-Mead
    refinement; a final Newton polish on the analytic gradient drives the
    gradient to roughly machine precision.

    The scan runs one slab at a time (one value of the first axis, or the
    whole axis scan for n >= 5), so the full grid of points is never held in
    memory.  Points outside the ball score inf.  The seed is the first
    minimum in grid order, the same point ``np.argmin`` over the whole grid
    picks.
    """
    lo, hi = (np.asarray(v, dtype=float) for v in box)
    n = lo.size
    if np.any(hi <= lo):
        raise ParameterError("box upper corner must exceed lower corner")

    # coarse scan, one slab at a time; the strict "<" keeps the first
    # minimum, the point np.argmin over the whole scan would pick
    best, best_val = None, np.inf
    for pts in _scan_slabs(lo, hi, grid_points):
        vals = _scan_values(dom, pts)
        j = int(np.argmin(vals))
        if best is None or vals[j] < best_val:
            best, best_val = pts[j], vals[j]

    res = minimize(dom.robin, best, method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 20_000})
    x = res.x

    # Newton on the gradient (finite-difference Jacobian of the gradient)
    h = 1e-6 * max(1.0, float(np.linalg.norm(hi - lo)))
    for _ in range(max_iter):
        g = np.asarray(dom.robin_grad(x), dtype=float)
        if np.linalg.norm(g) < tol:
            return x
        J = np.empty((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            J[:, j] = (np.asarray(dom.robin_grad(x + e))
                       - np.asarray(dom.robin_grad(x - e))) / (2.0 * h)
        try:
            step = np.linalg.solve(J, -g)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        x = x + np.clip(step, lo - x, hi - x)
        h = max(h * 0.5, 1e-9)
    g = np.asarray(dom.robin_grad(x), dtype=float)
    if np.linalg.norm(g) < 1e-8:
        return x
    raise SearchError(
        f"Robin minimiser did not converge: |grad| = {np.linalg.norm(g):.3e}")


def _scan_slabs(lo, hi, grid_points):
    """Points of the coarse scan in slabs, in the order of the whole scan.

    For n <= 4 the scan is the full tensor grid and each slab holds one
    value of the first axis; otherwise it is an axis scan through the box
    centre, yielded as one block.
    """
    n = lo.size
    if n > 4:
        mid = 0.5 * (lo + hi)
        pts = [mid]
        for i in range(n):
            for v in np.linspace(lo[i], hi[i], grid_points):
                q = mid.copy()
                q[i] = v
                pts.append(q)
        yield np.asarray(pts)
        return
    axes = [np.linspace(lo[i], hi[i], grid_points) for i in range(n)]
    rest = np.stack([m.ravel() for m in np.meshgrid(*axes[1:], indexing="ij")],
                    axis=-1)
    for v in axes[0]:
        slab = np.empty((len(rest), n))
        slab[:, 0] = v
        slab[:, 1:] = rest
        yield slab
