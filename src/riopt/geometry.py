"""Core geometric primitives: points, tangent vectors, curvature-distortion
constants, the manifold interface, and the weighted Frechet-mean solver.

Every concrete manifold (see :mod:`riopt.manifolds`) implements the
:class:`Manifold` interface with closed-form exponential/logarithm maps and
parallel transport along minimizing geodesics. All operations are pure
functions of their inputs; values are freely shareable across threads (a
point's memo only caches what its coordinates determine).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

RngLike = Union[int, np.random.Generator]

# Switch to a series expansion of x/tan(x), x/tanh(x) below this argument
# to avoid 0/0 and keep the constants continuous at zero curvature.
_SERIES_CUTOFF = 1e-6


class GeometryError(ValueError):
    """Domain error in a geometric operation (conjugate points, bad inputs)."""


class FrechetMeanError(RuntimeError):
    """Frechet-mean iteration failed to reach the requested tolerance.

    Carries the last iterate and its gradient residual so callers can decide
    whether the partial answer is usable.
    """

    def __init__(self, message: str, last_iterate: "Point", residual: float):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


def as_rng(seed: RngLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass(frozen=True, eq=False)
class Point:
    """A point on a manifold, stored in the ambient representation.

    ``coords`` is never mutated after construction: an operation that needs
    other coordinates makes a new array and a new Point. ``memo`` relies on
    this. Manifolds store there what they derive from ``coords`` alone (a
    factorization, the factor points of a product), so each point is
    factored once however many operations use it. The memo lives exactly as
    long as the point; ``copy`` and ``project`` start with an empty one.
    """

    coords: np.ndarray
    manifold_id: str

    def copy(self) -> "Point":
        return Point(self.coords.copy(), self.manifold_id)

    # made on first use, so a point no manifold memoizes on costs nothing
    @cached_property
    def memo(self) -> dict:
        return {}


@dataclass(frozen=True, eq=False)
class TangentVector:
    """A tangent vector; carries the base point it is attached to.

    Vectors at the same base form a linear space, so ``+``, ``-`` and scalar
    multiplication are supported directly.
    """

    base: Point
    coords: np.ndarray

    def _check_same_base(self, other: "TangentVector") -> None:
        # identity first: np.array_equal is the cost, not the check
        if self.base is not other.base and (
            self.base.manifold_id != other.base.manifold_id
            or not np.array_equal(self.base.coords, other.base.coords)
        ):
            raise GeometryError("tangent vectors live at different base points")

    def __add__(self, other: "TangentVector") -> "TangentVector":
        self._check_same_base(other)
        return TangentVector(self.base, self.coords + other.coords)

    def __sub__(self, other: "TangentVector") -> "TangentVector":
        self._check_same_base(other)
        return TangentVector(self.base, self.coords - other.coords)

    def __neg__(self) -> "TangentVector":
        return TangentVector(self.base, -self.coords)

    def __mul__(self, scalar: float) -> "TangentVector":
        return TangentVector(self.base, scalar * self.coords)

    __rmul__ = __mul__


@dataclass(frozen=True)
class CurvatureBounds:
    """Sectional-curvature bounds kappa <= K and their magnitude K_m."""

    kappa: float
    K: float

    def __post_init__(self):
        if self.kappa > self.K:
            raise GeometryError(f"kappa={self.kappa} exceeds K={self.K}")

    @property
    def K_m(self) -> float:
        return max(abs(self.kappa), abs(self.K))


def sigma_constant(K: float, D: float) -> float:
    """Minimum distortion rate sigma(K, D) = sqrt(K) D / tan(sqrt(K) D).

    Equals 1 for K <= 0. Continuous in K at 0; for K > 0 requires
    sqrt(K) D < pi/2 (conjugate-point limit).
    """
    if D < 0:
        raise GeometryError("D must be non-negative")
    if K <= 0:
        return 1.0
    x = math.sqrt(K) * D
    if x >= math.pi / 2.0:
        raise GeometryError(f"sigma undefined: sqrt(K)*D = {x:.6g} >= pi/2")
    if x < _SERIES_CUTOFF:
        return 1.0 - x * x / 3.0
    return x / math.tan(x)


def zeta_constant(kappa: float, D: float) -> float:
    """Maximum distortion rate zeta(kappa, D) = sqrt(-kappa) D / tanh(sqrt(-kappa) D).

    Equals 1 for kappa >= 0, tends to 1 as D -> 0.
    """
    if D < 0:
        raise GeometryError("D must be non-negative")
    if kappa >= 0:
        return 1.0
    x = math.sqrt(-kappa) * D
    if x < _SERIES_CUTOFF:
        return 1.0 + x * x / 3.0
    return x / math.tanh(x)


class Manifold(ABC):
    """Interface contract every concrete manifold satisfies.

    Implementations provide closed-form exp/log/transport along minimizing
    geodesics and report their sectional-curvature bounds. Outputs of ``exp``
    and ``transport`` are re-projected onto the manifold / tangent space to
    suppress numerical drift over long runs.
    """

    manifold_id: str
    curvature: CurvatureBounds

    # -- representation -------------------------------------------------
    @abstractmethod
    def project(self, coords: np.ndarray) -> Point:
        """Clean ambient coordinates onto the manifold and wrap as a Point."""

    @abstractmethod
    def to_tangent(self, x: Point, coords: np.ndarray) -> TangentVector:
        """Project ambient coordinates onto the tangent space at x."""

    @abstractmethod
    def base_point(self) -> Point:
        """A canonical point used as default center for sampling."""

    def zero_tangent(self, x: Point) -> TangentVector:
        return TangentVector(x, np.zeros_like(x.coords))

    # -- metric ----------------------------------------------------------
    @abstractmethod
    def inner(self, x: Point, u: TangentVector, v: TangentVector) -> float:
        """Riemannian inner product at x."""

    def norm(self, x: Point, v: TangentVector) -> float:
        return math.sqrt(max(self.inner(x, v, v), 0.0))

    @abstractmethod
    def dist(self, x: Point, y: Point) -> float:
        """Geodesic distance."""

    # -- connection --------------------------------------------------------
    @abstractmethod
    def exp(self, x: Point, v: TangentVector) -> Point:
        """Endpoint of the geodesic from x with initial velocity v."""

    @abstractmethod
    def log(self, x: Point, y: Point) -> TangentVector:
        """Inverse exponential map; ||log(x, y)|| equals dist(x, y)."""

    @abstractmethod
    def transport(self, x: Point, y: Point, v: TangentVector) -> TangentVector:
        """Parallel transport of v along the minimizing geodesic x -> y."""

    def log_many(self, x: Point, targets: np.ndarray) -> np.ndarray:
        """log_x of every target stacked along axis 0; default loops over ``log``."""
        return np.stack([self.log(x, Point(y, self.manifold_id)).coords for y in targets])

    # -- sampling ----------------------------------------------------------
    @abstractmethod
    def random_point(
        self,
        rng: RngLike,
        center: Optional[Point] = None,
        radius: Optional[float] = None,
    ) -> Point:
        """Seed-deterministic random point; within dist(., center) <= radius if given."""

    def random_tangent(self, x: Point, rng: RngLike, norm: float = 1.0) -> TangentVector:
        """Random tangent vector at x with the exact requested norm."""
        if norm < 0:
            raise GeometryError("norm must be non-negative")
        rng = as_rng(rng)
        v = self.to_tangent(x, rng.standard_normal(x.coords.shape))
        n = self.norm(x, v)
        if norm == 0.0 or n == 0.0:
            return self.zero_tangent(x)
        return TangentVector(x, (norm / n) * v.coords)

    # -- validation ----------------------------------------------------------
    @abstractmethod
    def point_defect(self, coords: np.ndarray) -> float:
        """Residual of the manifold membership equation (0 when on-manifold)."""

    @abstractmethod
    def tangent_defect(self, x: Point, coords: np.ndarray) -> float:
        """Residual of the tangency constraint at x."""

    def check_point(self, x: Point, tol: float = 1e-9) -> None:
        if x.manifold_id != self.manifold_id:
            raise GeometryError(f"point belongs to {x.manifold_id}, not {self.manifold_id}")
        defect = self.point_defect(x.coords)
        if not np.isfinite(defect) or defect > tol:
            raise GeometryError(f"point violates membership equation by {defect:.3g}")

    def _require_finite(self, v: TangentVector) -> None:
        if not np.isfinite(v.coords).all():
            raise GeometryError("tangent vector has non-finite coordinates")

    def _require_base(self, x: Point, v: TangentVector) -> None:
        if v.base is not x and (
            v.base.manifold_id != x.manifold_id or not np.array_equal(v.base.coords, x.coords)
        ):
            raise GeometryError("tangent vector is not based at the given point")


def weighted_frechet_mean(
    manifold: Manifold,
    points: Sequence[Point],
    weights: Sequence[float],
    tol: float = 1e-9,
    max_iter: int = 200,
) -> Point:
    """Weighted Frechet (Karcher) mean of a point set.

    Runs the fixed-point iteration x <- exp_x(sum_i w_i log_x(p_i)) with unit
    step, which is contractive inside the injectivity ball. The result
    satisfies the first-order condition ||sum_i w_i log_x(p_i)|| <= tol.

    Points of weight zero are skipped. Each iteration takes the logs of the
    others from one ``log_many`` call, sums them in point order and makes one
    ``exp`` call; FrechetMeanError (last iterate, residual) after max_iter.
    """
    if len(points) == 0:
        raise GeometryError("points must be nonempty")
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(points),) or np.any(w < 0):
        raise GeometryError("weights must be non-negative, one per point")
    total = w.sum()
    if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-8):
        raise GeometryError(f"weights must sum to 1 (got {total})")
    w = w / total

    if len(points) == 1:
        return points[0]

    x = points[int(np.argmax(w))]
    keep = np.flatnonzero(w != 0.0)
    targets = np.stack([points[i].coords for i in keep])
    w_k = w[keep].reshape((-1,) + (1,) * x.coords.ndim)
    residual = math.inf
    for _ in range(max_iter):
        direction = TangentVector(x, (w_k * manifold.log_many(x, targets)).sum(axis=0))
        residual = manifold.norm(x, direction)
        if residual <= tol:
            return x
        x = manifold.exp(x, direction)
    raise FrechetMeanError(
        f"no convergence after {max_iter} iterations (residual {residual:.3g})",
        last_iterate=x,
        residual=residual,
    )


def frechet_mean(manifold: Manifold, points: Sequence[Point], **kwargs) -> Point:
    """Equal-weight Frechet mean."""
    n = len(points)
    return weighted_frechet_mean(manifold, points, np.full(n, 1.0 / n), **kwargs)
