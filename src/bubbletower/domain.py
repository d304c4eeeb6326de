"""Green's function machinery on balls and the Robin-function minimiser.

The ball formulas come from the classical image-charge construction.  We use
the normalisation -ΔG = δ with Dirichlet data, so the fundamental solution is
Φ(z) = c_n |z|^{2-n} with c_n = 1/((n-2) ω_{n-1}), the regular part is
H = Φ - G, and the Robin function is φ(x) = H(x, x).

On a ball the Robin function increases with the distance from the centre,
so its minimiser is the centre in closed form, and that is what the reduced
system uses.  :func:`find_robin_min` is the generic path: a numerical
search for any ``GreenProvider`` (anything exposing green / regular_part /
robin / robin_grad), kept for other domains and as the test oracle of the
closed form.  It is the package's only user of ``scipy.optimize``, which it
imports when called, so importing this module does not load it.  A
provider may also offer ``robin_many``, the Robin function at an (m, n)
array of points with inf outside the domain, as ``BallDomain`` does; the
minimiser's coarse scan then evaluates whole slabs of its grid in one call
instead of point by point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from .errors import DomainError, ParameterError, SearchError, SingularityError
from .profiles import Dimension

__all__ = [
    "GreenProvider",
    "BallDomain",
    "green_ball",
    "regular_part_ball",
    "robin_ball",
    "robin_grad_ball",
    "find_robin_min",
]


@runtime_checkable
class GreenProvider(Protocol):
    """Domain interface consumed by the projection and reduced-system code."""

    dim: Dimension

    def green(self, x, y) -> float: ...

    def regular_part(self, x, y) -> float: ...

    def robin(self, x) -> float: ...

    def robin_grad(self, x) -> np.ndarray: ...


@dataclass(frozen=True)
class BallDomain:
    """Ball of radius ``radius`` centred at ``center`` with image-charge Green data."""

    dim: Dimension
    center: np.ndarray | None = None
    radius: float = 1.0
    c_n: float = field(init=False)

    def __post_init__(self):
        if self.radius <= 0:
            raise ParameterError(f"radius must be positive, got {self.radius}")
        c = (np.zeros(self.dim.n) if self.center is None
             else np.asarray(self.center, dtype=float))
        if c.shape != (self.dim.n,):
            raise ParameterError(f"center must have shape ({self.dim.n},)")
        object.__setattr__(self, "center", c)
        object.__setattr__(
            self, "c_n", 1.0 / ((self.dim.n - 2.0) * self.dim.sphere_area))

    # -- helpers -----------------------------------------------------------

    def _local(self, x):
        x = np.asarray(x, dtype=float)
        return x - self.center

    def contains(self, x, *, strict: bool = True) -> bool:
        r = float(np.linalg.norm(self._local(x)))
        return r < self.radius if strict else r <= self.radius

    def _require_interior(self, x, what="point"):
        if not self.contains(x):
            raise DomainError(f"{what} {np.asarray(x)} is not interior to the ball")

    # -- Green data ---------------------------------------------------------

    def green(self, x, y) -> float:
        return green_ball(self, x, y)

    def regular_part(self, x, y) -> float:
        return regular_part_ball(self, x, y)

    def regular_part_grad2(self, x, y) -> np.ndarray:
        """Gradient of the regular part in its second argument."""
        n = self.dim.n
        R = self.radius
        xl, yl = self._local(x), self._local(y)
        D = (np.dot(yl, yl) * np.dot(xl, xl)
             - 2.0 * R * R * np.dot(xl, yl) + R ** 4)
        grad_D = 2.0 * np.dot(xl, xl) * yl - 2.0 * R * R * xl
        return (self.c_n * R ** (n - 2.0)
                * ((2.0 - n) / 2.0) * D ** (-n / 2.0) * grad_D)

    def regular_part_many(self, x, y) -> np.ndarray:
        """Regular part H(x, y) evaluated for an array of first arguments."""
        n = self.dim.n
        R = self.radius
        xl = np.asarray(x, dtype=float) - self.center
        yl = self._local(y)
        D = (np.sum(xl * xl, axis=-1) * float(np.dot(yl, yl))
             - 2.0 * R * R * (xl @ yl) + R ** 4)
        return self.c_n * (D / (R * R)) ** ((2.0 - n) / 2.0)

    def regular_part_grad2_many(self, x, y) -> np.ndarray:
        """Second-argument gradient of H for an array of first arguments."""
        n = self.dim.n
        R = self.radius
        xl = np.asarray(x, dtype=float) - self.center
        yl = self._local(y)
        x2 = np.sum(xl * xl, axis=-1)
        D = x2 * float(np.dot(yl, yl)) - 2.0 * R * R * (xl @ yl) + R ** 4
        grad_D = 2.0 * x2[..., None] * yl - 2.0 * R * R * xl
        return (self.c_n * R ** (n - 2.0) * ((2.0 - n) / 2.0)
                * D[..., None] ** (-n / 2.0) * grad_D)

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


def green_ball(dom: BallDomain, x, y) -> float:
    """Dirichlet Green's function of the ball by the image charge.

    G(x,y) = c_n [ |x-y|^{2-n} - (|y-c| |x-y*| / R)^{2-n} ] with y* the
    inversion of y in the sphere.  Symmetric, nonnegative, zero for y on
    the boundary.
    """
    n = dom.dim.n
    R = dom.radius
    xl, yl = dom._local(x), dom._local(y)
    rx, ry = float(np.linalg.norm(xl)), float(np.linalg.norm(yl))
    if rx > R or ry > R:
        raise DomainError("green_ball requires both points inside the closed ball")
    d2 = float(np.dot(xl - yl, xl - yl))
    if d2 == 0.0:
        raise SingularityError("green_ball is singular on the diagonal x = y")
    # |y-c|^2 |x-y*|^2 expands to |x|^2|y|^2 - 2 R^2 x.y + R^4 (local coords)
    img2 = rx * rx * ry * ry - 2.0 * R * R * float(np.dot(xl, yl)) + R ** 4
    e = (2.0 - n) / 2.0
    return dom.c_n * (d2 ** e - (img2 / (R * R)) ** e)


def regular_part_ball(dom: BallDomain, x, y) -> float:
    """Regular part H(x,y) = Φ(x-y) - G(x,y); smooth on the diagonal."""
    n = dom.dim.n
    R = dom.radius
    xl, yl = dom._local(x), dom._local(y)
    img2 = (float(np.dot(xl, xl)) * float(np.dot(yl, yl))
            - 2.0 * R * R * float(np.dot(xl, yl)) + R ** 4)
    return dom.c_n * (img2 / (R * R)) ** ((2.0 - n) / 2.0)


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


def find_robin_min(provider: GreenProvider, box, *,
                   grid_points: int = 32, tol: float = 1e-12,
                   max_iter: int = 200) -> np.ndarray:
    """Locate the minimiser of the Robin function inside ``box``.

    ``box`` is a pair (lower, upper) of corner vectors; it may reach outside
    the domain as long as the minimiser lies well inside.  A coarse scan
    (full grid for n <= 4, axis scan otherwise) seeds a Nelder-Mead
    refinement; a final Newton polish on the analytic gradient drives the
    gradient to roughly machine precision, which downstream code relies on
    when it evaluates gradient-weighted equations at the minimiser.

    The scan runs one slab at a time (one value of the first axis, or the
    whole axis scan for n >= 5), so the full grid of points is never held in
    memory.  Each slab goes through ``provider.robin_many`` when the provider
    has it and through ``provider.robin`` point by point otherwise; points
    the provider rejects score inf.  The seed is the first minimum in grid
    order, the same point ``np.argmin`` over the whole grid picks.
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
        vals = _robin_values(provider, pts)
        j = int(np.argmin(vals))
        if best is None or vals[j] < best_val:
            best, best_val = pts[j], vals[j]

    res = minimize(provider.robin, best, method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 20_000})
    x = res.x

    # Newton on the gradient (finite-difference Jacobian of the gradient)
    h = 1e-6 * max(1.0, float(np.linalg.norm(hi - lo)))
    for _ in range(max_iter):
        g = np.asarray(provider.robin_grad(x), dtype=float)
        if np.linalg.norm(g) < tol:
            return x
        J = np.empty((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            J[:, j] = (np.asarray(provider.robin_grad(x + e))
                       - np.asarray(provider.robin_grad(x - e))) / (2.0 * h)
        try:
            step = np.linalg.solve(J, -g)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        x = x + np.clip(step, lo - x, hi - x)
        h = max(h * 0.5, 1e-9)
    g = np.asarray(provider.robin_grad(x), dtype=float)
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


def _robin_values(provider: GreenProvider, pts) -> np.ndarray:
    """Robin values at ``pts``, inf where the provider rejects a point."""
    if hasattr(provider, "robin_many"):
        return provider.robin_many(pts)
    vals = np.empty(len(pts))
    for j, q in enumerate(pts):
        try:
            vals[j] = provider.robin(q)
        except DomainError:
            vals[j] = np.inf
    return vals
