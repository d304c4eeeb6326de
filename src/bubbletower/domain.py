"""The ball domain, its Robin function, and the Robin-function minimiser.

We use the normalisation -ΔG = δ with Dirichlet data, so the fundamental
solution is Φ(z) = c_n |z|^{2-n} with c_n = 1/((n-2) ω_{n-1}), the regular
part is H = Φ - G, and the Robin function is φ(x) = H(x, x).  The image
charge gives φ(x) = c_n R^{n-2} (R^2 - |x-c|^2)^{2-n} on the ball of
radius R centred at c.

The Robin function increases with the distance from the centre, so its
minimiser is the centre in closed form, and that is what the reduced
system uses.  :func:`find_robin_min` is a numerical search for the same
point, kept as the test oracle of the closed form; its coarse scan
evaluates whole slabs of its grid through :meth:`BallDomain.robin_many`.
It is the package's only user of ``scipy.optimize``, which it imports when
called, so importing this module does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParameterError, SearchError
from .profiles import Dimension

__all__ = [
    "BallDomain",
    "robin_ball",
    "robin_grad_ball",
    "robin_hess_ball",
    "find_robin_min",
]


@dataclass(frozen=True)
class BallDomain:
    """Ball of radius ``radius`` centred at ``center``."""

    dim: Dimension
    center: np.ndarray | None = None
    radius: float = 1.0
    c_n: float = field(init=False)

    def __post_init__(self):
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ParameterError(
                f"radius must be finite and positive, got {self.radius}")
        c = (np.zeros(self.dim.n) if self.center is None
             else np.asarray(self.center, dtype=float))
        if c.shape != (self.dim.n,):
            raise ParameterError(f"center must have shape ({self.dim.n},)")
        if not np.all(np.isfinite(c)):
            raise ParameterError(f"center must be finite, got {c}")
        object.__setattr__(self, "center", c)
        object.__setattr__(
            self, "c_n", 1.0 / ((self.dim.n - 2.0) * self.dim.sphere_area))

    # -- helpers -----------------------------------------------------------

    def _local(self, x):
        x = np.asarray(x, dtype=float)
        return x - self.center

    def contains(self, x) -> bool:
        return float(np.linalg.norm(self._local(x))) < self.radius

    def _require_interior(self, x):
        if not self.contains(x):
            raise DomainError(f"point {np.asarray(x)} is not interior to the ball")

    # -- Robin function -----------------------------------------------------

    def robin(self, x) -> float:
        return robin_ball(self, x)

    def robin_many(self, x) -> np.ndarray:
        """Robin function at an (m, n) array of points; inf on or outside the sphere.

        The squared radii come from a stacked matmul, which numpy evaluates
        with the same dot product :meth:`robin` uses, so both see the same
        interior and the values agree to a few ulp.
        """
        n = self.dim.n
        R = self.radius
        xl = np.asarray(x, dtype=float) - self.center
        r2 = np.matmul(xl[:, None, :], xl[:, :, None])[:, 0, 0]
        inside = np.sqrt(r2) < R
        out = np.full(len(xl), np.inf)
        out[inside] = (self.c_n * R ** (n - 2.0)
                       * (R * R - r2[inside]) ** (2.0 - n))
        return out

    def robin_grad(self, x) -> np.ndarray:
        return robin_grad_ball(self, x)

    def robin_hess(self, x) -> np.ndarray:
        return robin_hess_ball(self, x)


def robin_ball(dom: BallDomain, x) -> float:
    """Robin function of the ball: c_n R^{n-2} (R^2 - |x-c|^2)^{2-n}."""
    dom._require_interior(x)
    n = dom.dim.n
    R = dom.radius
    r2 = float(np.dot(dom._local(x), dom._local(x)))
    return dom.c_n * R ** (n - 2.0) * (R * R - r2) ** (2.0 - n)


def robin_grad_ball(dom: BallDomain, x) -> np.ndarray:
    """Analytic gradient of :func:`robin_ball`; vanishes at the centre."""
    dom._require_interior(x)
    n = dom.dim.n
    R = dom.radius
    xl = dom._local(x)
    r2 = float(np.dot(xl, xl))
    return (2.0 * (n - 2.0) * dom.c_n * R ** (n - 2.0)
            * (R * R - r2) ** (1.0 - n) * xl)


def robin_hess_ball(dom: BallDomain, x) -> np.ndarray:
    """Analytic Hessian of :func:`robin_ball`: 2(n-2) c_n R^{-n} I at c."""
    dom._require_interior(x)
    n = dom.dim.n
    R = dom.radius
    xl = dom._local(x)
    q = R * R - float(np.dot(xl, xl))
    return (2.0 * (n - 2.0) * dom.c_n * R ** (n - 2.0) * q ** (-n)
            * (q * np.eye(n) + 2.0 * (n - 1.0) * np.outer(xl, xl)))


def find_robin_min(dom: BallDomain, box, *,
                   grid_points: int = 32, tol: float = 1e-12,
                   max_iter: int = 200) -> np.ndarray:
    """Locate the minimiser of the Robin function inside ``box``.

    ``box`` is a pair (lower, upper) of corner vectors; it may reach outside
    the domain as long as the minimiser lies well inside.  A coarse scan
    (full grid for n <= 4, axis scan otherwise) seeds a Nelder-Mead
    refinement; a final Newton polish on the analytic gradient drives the
    gradient to roughly machine precision.

    The scan runs one slab at a time (one value of the first axis, or the
    whole axis scan for n >= 5), so the full grid of points is never held in
    memory.  Each slab goes through ``dom.robin_many``; points outside the
    ball score inf.  The seed is the first minimum in grid order, the same
    point ``np.argmin`` over the whole grid picks.
    """
    from scipy.optimize import minimize

    lo, hi = (np.asarray(v, dtype=float) for v in box)
    n = lo.size
    if np.any(hi <= lo):
        raise ParameterError("box upper corner must exceed lower corner")

    # coarse scan, one slab at a time; the strict "<" keeps the first
    # minimum, the point np.argmin over the whole scan would pick
    best, best_val = None, np.inf
    for pts in _scan_slabs(lo, hi, grid_points):
        vals = dom.robin_many(pts)
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
