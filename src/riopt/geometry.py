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
from typing import Callable, Optional, Sequence, Union

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


def memo_entry(x: Point, key, compute: Callable[[Point], tuple]) -> tuple:
    """``x.memo[key]``: a tuple of arrays, made by ``compute(x)`` on first use.

    On a stack that ``Manifold.stack`` made, each array runs over the rows.
    Rows that already hold the entry pass it on; ``compute`` runs once, on
    the stack of the distinct row points that lack it, and each of those
    keeps its row. So a point is factored once, whichever stacks it joins.
    """
    entry = x.memo.get(key)
    if entry is not None:
        return entry
    rows = x.memo.get("rows")
    missing = [] if rows is None else [p for p in dict.fromkeys(rows) if key not in p.memo]
    if rows is None or len(missing) == len(rows):
        entry = compute(x)
        if rows is not None:
            for p, *parts in zip(rows, *entry):
                p.memo[key] = tuple(parts)
    else:
        if missing:
            sub = Point(np.stack([p.coords for p in missing]), x.manifold_id)
            sub.memo["rows"] = missing
            memo_entry(sub, key, compute)
        entry = tuple(map(np.stack, zip(*(p.memo[key] for p in rows))))
    x.memo[key] = entry
    return entry


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


def sigma_constant(K: float, D):
    """Minimum distortion rate sigma(K, D) = sqrt(K) D / tan(sqrt(K) D).

    Equals 1 for K <= 0. Continuous in K at 0; for K > 0 requires
    sqrt(K) D < pi/2 (conjugate-point limit). D may be a numpy array, as
    the triangle suite's diameters are: see ``_rates``.
    """
    if isinstance(D, np.ndarray):
        return _rates(K, D, np.tan, -1.0, "sigma")
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


def zeta_constant(kappa: float, D):
    """Maximum distortion rate zeta(kappa, D) = sqrt(-kappa) D / tanh(sqrt(-kappa) D).

    Equals 1 for kappa >= 0, tends to 1 as D -> 0. D may be a numpy array:
    see ``_rates``.
    """
    if isinstance(D, np.ndarray):
        return _rates(-kappa, D, np.tanh, 1.0)
    if D < 0:
        raise GeometryError("D must be non-negative")
    if kappa >= 0:
        return 1.0
    x = math.sqrt(-kappa) * D
    if x < _SERIES_CUTOFF:
        return 1.0 + x * x / 3.0
    return x / math.tanh(x)


def _rates(c: float, D, f, sign: float, limited: str = "") -> np.ndarray:
    """The array forms of the two constants, x / f(x) at x = sqrt(c) D over
    an array D: 1 where c <= 0, the series 1 + sign x^2 / 3 below the
    cutoff. sigma is c = K, f = tan, sign -1 and ``limited`` "sigma" (tan's
    pi/2 limit); zeta is c = -kappa, f = tanh, sign +1. One numpy formula,
    which agrees with the float forms to rounding."""
    D = np.asarray(D, dtype=float)
    if (D < 0).any():
        raise GeometryError("D must be non-negative")
    if c <= 0:
        return np.ones_like(D)
    x = math.sqrt(c) * D
    if limited and (x >= math.pi / 2.0).any():
        raise GeometryError(f"{limited} undefined: sqrt(K)*D = {x.max():.6g} >= pi/2")
    small = x < _SERIES_CUTOFF
    return np.where(small, 1.0 + sign * x * x / 3.0, x / f(np.where(small, 1.0, x)))


class Manifold(ABC):
    """Interface contract every concrete manifold satisfies.

    Implementations provide closed-form exp/log/transport along minimizing
    geodesics and report their sectional-curvature bounds. Outputs of ``exp``
    and ``transport`` are re-projected onto the manifold / tangent space to
    suppress numerical drift over long runs.

    Each operation has one name, which takes single points and tangents,
    stacks of them (coords with leading axes before a point's
    ``point_ndim`` axes; row i of each stacked operand goes with row i of
    the others) or a single point broadcast against stacked operands. When
    every operand is single, ``inner``, ``dist`` and ``norm`` return a
    Python float, else an array over the rows. Each operation is one body
    over all these shapes, so a row gets the single call's bits, except
    Hyperbolic ``exp`` and ``inner``, whose scalar single-point body agrees
    with their kernel to rounding, not bitwise.

    ``dist(x, Y)`` and ``log(x, Y)`` also take a cloud: a ``Y`` with exactly
    one more leading axis than x holds one cloud per base, (n, ...) for a
    single x and (m, n, ...) for a stacked x, row i's cloud at base i. They
    return (n,) or (m, n) distances and logs of Y's shape. The cloud axis
    broadcasts like numpy's leading axes: a cloud shared by a stack of bases
    is passed as (1, n, ...) or broadcast to (m, n, ...) by the caller.
    """

    manifold_id: str
    curvature: CurvatureBounds
    # the ndim of a single point's coords
    point_ndim = 1

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

    def _single(self, *operands) -> bool:
        """Whether every operand (a Point or TangentVector) is a single one."""
        for a in operands:
            if a.coords.ndim != self.point_ndim:
                return False
        return True

    def _cloud(self, x: Point, y: Point, a: np.ndarray) -> np.ndarray:
        """``a``, an array over x's rows (its coords, or what its memo derives
        from them), with an axis for the cloud inserted before a point's axes
        when y has more leading axes than x."""
        if y.coords.ndim > x.coords.ndim:
            return a[(..., None) + (slice(None),) * self.point_ndim]
        return a

    # -- metric ----------------------------------------------------------
    @abstractmethod
    def inner(self, x: Point, u: TangentVector, v: TangentVector) -> float:
        """Riemannian inner product at x."""

    def norm(self, x: Point, v: TangentVector) -> float:
        s = self.inner(x, v, v)
        if isinstance(s, float):  # single operands: inner has picked the body
            return math.sqrt(max(s, 0.0))
        return np.sqrt(np.maximum(s, 0.0))

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

    def stack(self, points: Sequence[Point]) -> Point:
        """The (n, ...) stack of single points, which keeps them as its rows:
        what is memoized on the stack (``memo_entry``) is shared with them."""
        x = Point(np.stack([p.coords for p in points]), self.manifold_id)
        x.memo["rows"] = list(points)
        return x

    # -- sampling ----------------------------------------------------------
    @abstractmethod
    def _draw(self, rng: np.random.Generator) -> Point:
        """The random point of ``random_point`` when no center is given."""

    def random_point(
        self,
        rng: RngLike,
        center: Optional[Point] = None,
        radius: Optional[float] = None,
    ) -> Point:
        """Seed-deterministic random point; within dist(., center) <= radius if given."""
        rng = as_rng(rng)
        if center is None:
            return self._draw(rng)
        if radius is None:
            radius = 1.0
        direction = self.random_tangent(center, rng, norm=1.0)
        r = radius * rng.random()  # uniform()'s bits (see ``ball_draws``)
        return self.exp(center, r * direction)

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

    def random_point_rows(
        self, center: Point, normals: np.ndarray, uniforms: np.ndarray, radius: float
    ) -> Point:
        """``random_point(rng, center, radius)`` on stacks, from its draws.

        Row i is the point ``random_point`` returns when its generator yields
        ``normals[i]`` from ``standard_normal`` and then ``uniforms[i]`` from
        ``random()`` (see ``ball_draws``): ``random_tangent(center,
        norm=1.0)``, the step ``(radius * u) * direction`` and ``exp``, each
        one call on the stacked draws, so it agrees with that point to
        rounding. ``center`` is a single point or a stack paired with the rows.
        """
        unit = self._unit_tangents(center, normals).coords
        column = (-1,) + (1,) * (normals.ndim - 1)
        step = (radius * uniforms).reshape(column) * unit
        return self.exp(center, TangentVector(center, step))

    def _unit_tangents(self, x: Point, normals: np.ndarray) -> TangentVector:
        """``random_tangent(x, rng, norm=1.0)`` for each row of ``normals``,
        the ``standard_normal`` draws, at x (single, or a stack paired with
        the rows): one ``to_tangent`` and one ``norm`` call on the stack. A
        row of zero norm is the zero tangent."""
        v = self.to_tangent(x, normals)
        n = self.norm(x, v)
        column = (-1,) + (1,) * (normals.ndim - 1)
        inv = (1.0 / np.where(n == 0.0, 1.0, n)).reshape(column)
        return TangentVector(x, np.where(n.reshape(column) == 0.0, 0.0, inv * v.coords))

    # -- validation ----------------------------------------------------------
    def _require_finite(self, v: TangentVector) -> None:
        if not np.isfinite(v.coords).all():
            raise GeometryError("tangent vector has non-finite coordinates")

    def _require_base(self, x: Point, v: TangentVector) -> None:
        if v.base is not x and (
            v.base.manifold_id != x.manifold_id or not np.array_equal(v.base.coords, x.coords)
        ):
            raise GeometryError("tangent vector is not based at the given point")


def ball_draws(
    rngs: Sequence[np.random.Generator], shape: tuple
) -> tuple[np.ndarray, np.ndarray]:
    """The draws of ``random_point(rng, center, radius)`` for each generator
    of ``rngs`` in turn, as ``random_point_rows`` takes them: row i of the
    normals is its ``standard_normal(shape)``, then entry i of the uniforms
    its ``uniform()``. A generator may recur in ``rngs``; it then draws for
    its rows in list order.

    Each draw costs only itself: ``standard_normal(out=row)`` fills the row
    with ``standard_normal(shape)``'s bits, and ``random()`` returns
    ``uniform()``'s (which is 0.0 + 1.0 times the same double), both without
    the size and bounds handling of their other forms.
    """
    normals = np.empty((len(rngs),) + shape)
    uniforms = []
    for rng, row in zip(rngs, normals):
        rng.standard_normal(out=row)
        uniforms.append(rng.random())
    return normals, np.array(uniforms)


# Defaults of the Karcher iteration: the gradient-norm tolerance and the
# iteration budget. frechet_mean_rows always uses these.
KARCHER_TOL = 1e-9
KARCHER_MAX_ITER = 200


def _karcher(
    manifold: Manifold, x: Point, targets: np.ndarray, w: np.ndarray, tol: float, max_iter: int
) -> tuple[Point, Optional[TangentVector]]:
    """Karcher iterations x <- exp_x(sum_i w_i log_x(p_i)), unit step.

    x is a single point with its (n, ...) cloud ``targets``, or a stack of m
    starting points with their (m, n, ...) clouds; ``w`` weights the n points
    of a cloud. Each iteration takes the logs from one ``log`` call on the
    cloud, sums them in point order and steps with one ``norm`` and one
    ``exp`` call, on the single point or the stack. A cloud whose residual is
    <= tol stops moving and is never touched again. After max_iter
    iterations, FrechetMeanError for the lowest cloud still moving. Returns
    the mean with, for a single x, its last step's logs (None for a stack).
    """
    single = manifold._single(x)
    w = w.reshape((-1,) + (1,) * manifold.point_ndim)
    out, active, residual = x.coords.copy(), np.arange(len(targets)), math.inf
    cloud = Point(targets, x.manifold_id)
    for _ in range(max_iter):
        logs = manifold.log(x, cloud)
        direction = TangentVector(x, (w * logs.coords).sum(axis=-w.ndim))
        residual = manifold.norm(x, direction)
        done = residual <= tol
        if np.any(done):
            if single:
                return x, logs
            out[active[done]] = x.coords[done]
            keep = ~done
            if not keep.any():
                return Point(out, manifold.manifold_id), None
            active, residual = active[keep], residual[keep]
            cloud = Point(cloud.coords[keep], manifold.manifold_id)
            x = Point(x.coords[keep], manifold.manifold_id)
            direction = TangentVector(x, direction.coords[keep])
        x = manifold.exp(x, direction)
    if not single:
        x = Point(x.coords[0].copy(), x.manifold_id)
    residual = float(np.ravel(residual)[0])
    raise FrechetMeanError(
        f"no convergence after {max_iter} iterations (residual {residual:.3g})",
        last_iterate=x,
        residual=residual,
    )


def weighted_frechet_mean(
    manifold: Manifold,
    points: Sequence[Point],
    weights: Sequence[float],
    tol: float = KARCHER_TOL,
    max_iter: int = KARCHER_MAX_ITER,
) -> Point:
    """Weighted Frechet (Karcher) mean of a point set.

    Runs the fixed-point iteration x <- exp_x(sum_i w_i log_x(p_i)) with unit
    step, which is contractive inside the injectivity ball. The result
    satisfies the first-order condition ||sum_i w_i log_x(p_i)|| <= tol.

    Starts at the point of largest weight and skips points of weight zero;
    FrechetMeanError (last iterate, residual) after max_iter iterations.
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

    keep = np.flatnonzero(w != 0.0)
    targets = np.stack([points[i].coords for i in keep])
    return _karcher(manifold, points[int(np.argmax(w))], targets, w[keep], tol, max_iter)[0]


def frechet_mean(manifold: Manifold, points: Sequence[Point], **kwargs) -> Point:
    """Equal-weight Frechet mean."""
    n = len(points)
    return weighted_frechet_mean(manifold, points, np.full(n, 1.0 / n), **kwargs)


def frechet_mean_rows(manifold: Manifold, clouds: np.ndarray) -> Point:
    """``frechet_mean`` of every cloud of a (m, n, ...) stack, as one iteration.

    Row i of the result is the mean of cloud i, from its point 0, by the
    equal-weight iteration of ``weighted_frechet_mean`` on the stacked
    iterates: ``log`` with a cloud per row, and ``norm`` and ``exp`` on the
    stack. It agrees with ``frechet_mean`` of the cloud to rounding.

    A failure is the one ``frechet_mean`` raises for the lowest-index cloud
    that fails. After KARCHER_MAX_ITER iterations that is FrechetMeanError
    for the lowest cloud still moving, with its residual and last iterate. A
    GeometryError names no row, so then the clouds are redone one by one, in
    order, and the first to fail raises its own error.
    """
    clouds = np.asarray(clouds, dtype=float)
    if clouds.ndim != manifold.point_ndim + 2 or 0 in clouds.shape[:2]:
        raise GeometryError("clouds must be a nonempty (m, n, ...) stack")
    n = clouds.shape[1]
    x = Point(clouds[:, 0], manifold.manifold_id)
    try:
        return _karcher(manifold, x, clouds, np.full(n, 1.0 / n), KARCHER_TOL, KARCHER_MAX_ITER)[0]
    except GeometryError:
        means = [frechet_mean(manifold, [Point(p, x.manifold_id) for p in c]) for c in clouds]
        return Point(np.stack([p.coords for p in means]), x.manifold_id)
