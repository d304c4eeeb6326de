"""The ball domain, its Robin function, and the Robin-function minimiser.

We use the normalisation -ΔG = δ with Dirichlet data, so the fundamental
solution is Φ(z) = c_n |z|^{2-n} with c_n = 1/((n-2) ω_{n-1}), the regular
part is H = Φ - G, and the Robin function is φ(x) = H(x, x).  The image
charge gives φ(x) = c_n R^{n-2} (R^2 - |x-c|^2)^{2-n} on the ball of
radius R centred at c.

The Robin function increases with the distance from the centre, so its
minimiser is the centre in closed form: :func:`find_robin_min` returns it,
and the reduced system takes its concentration point from there.  A
numerical search for the same point is the test oracle of that closed
form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParameterError
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


def find_robin_min(dom: BallDomain) -> np.ndarray:
    """The minimiser of the Robin function: the ball's centre.

    c_n R^{n-2} (R^2 - |x-c|^2)^{2-n} increases with |x - c|, so the centre
    is its only critical point and its minimum, in closed form.
    """
    return dom.center.copy()
