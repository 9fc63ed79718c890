"""Concrete manifolds with closed-form geometry.

Provided spaces: Euclidean R^n, the unit sphere S^n in R^{n+1}, hyperbolic
space H^n in the Lorentz (hyperboloid) model, symmetric positive definite
matrices with the affine-invariant metric, and products of the above.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .geometry import (
    CurvatureBounds,
    GeometryError,
    Manifold,
    Point,
    TangentVector,
    as_rng,
)

# Inner products this close to the antipodal limit are treated as conjugate.
_ANTIPODAL_TOL = 1e-10
# np.exp overflows above this argument.
_EXP_MAX_ARG = math.log(np.finfo(float).max)


# Helpers of the row-paired forms (`*_rows`): row i of a stacked base Point
# (coords of shape (n, ...)) goes with row i of the argument, and a single
# base broadcasts. Each form repeats the expressions of its single call, so
# every row has that call's bits: np.linalg.norm of a vector is
# sqrt(dot(a, a)), which vecdot matches, but numpy's cosh, sinh, asinh and
# atan2 round differently from math's, so each math function runs per row.
def _row_norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.vecdot(a, a))


def _per_row(fn: Callable[..., float], *args: np.ndarray) -> np.ndarray:
    return np.array(list(map(fn, *(a.tolist() for a in args))), dtype=float)


def _rotate_rows(x, v, t, cos, sin):
    """Rows of x, the mask t != 0 and cos(t) x + sin(t) v / t on it (unprojected)."""
    out = np.broadcast_to(x.coords, v.coords.shape).copy()
    m = t != 0.0
    tm = t[m]
    cos_t, sin_t = _per_row(cos, tm)[:, None], _per_row(sin, tm)[:, None]
    return out, m, cos_t * out[m] + sin_t * v.coords[m] / tm[:, None]


def _rescale_rows(d: np.ndarray, u: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """(d / nu) u per row, and the zero vector where nu or d is 0 (log rows)."""
    out = np.zeros_like(u)
    m = (nu != 0.0) & (d != 0.0)
    out[m] = (d[m] / nu[m])[:, None] * u[m]
    return out


class Euclidean(Manifold):
    """Flat R^n; exp/log reduce to vector addition and transport is trivial."""

    def __init__(self, n: int):
        if n < 1:
            raise GeometryError("dimension must be >= 1")
        self.n = n
        self.manifold_id = f"euclidean({n})"
        self.curvature = CurvatureBounds(0.0, 0.0)

    def project(self, coords):
        return Point(np.asarray(coords, dtype=float).reshape(self.n), self.manifold_id)

    def to_tangent(self, x, coords):
        return TangentVector(x, np.asarray(coords, dtype=float).reshape(self.n))

    def base_point(self):
        return Point(np.zeros(self.n), self.manifold_id)

    def point_defect(self, coords):
        return 0.0

    def tangent_defect(self, x, coords):
        return 0.0

    def inner(self, x, u, v):
        return float(np.dot(u.coords, v.coords))

    def dist(self, x, y):
        return float(np.linalg.norm(y.coords - x.coords))

    def exp(self, x, v):
        self._require_base(x, v)
        self._require_finite(v)
        return Point(x.coords + v.coords, self.manifold_id)

    def log(self, x, y):
        return TangentVector(x, y.coords - x.coords)

    def transport(self, x, y, v):
        self._require_base(x, v)
        return TangentVector(y, v.coords.copy())

    def to_tangent_rows(self, x, coords):
        return TangentVector(x, np.asarray(coords, dtype=float).reshape(-1, self.n))

    def inner_rows(self, x, u, v):
        return np.vecdot(u.coords, v.coords)

    def dist_rows(self, x, y):
        return _row_norm(y.coords - x.coords)

    # exp and log broadcast over rows as they are
    exp_rows = exp
    log_rows = log

    def random_point(self, rng, center=None, radius=None):
        rng = as_rng(rng)
        if center is None:
            return Point(rng.standard_normal(self.n), self.manifold_id)
        if radius is None:
            radius = 1.0
        direction = self.random_tangent(center, rng, norm=1.0)
        r = radius * rng.uniform()
        return self.exp(center, r * direction)


class Sphere(Manifold):
    """Unit sphere S^n embedded in R^{n+1}; constant curvature +1."""

    def __init__(self, n: int):
        if n < 1:
            raise GeometryError("dimension must be >= 1")
        self.n = n
        self.ambient = n + 1
        self.manifold_id = f"sphere({n})"
        self.curvature = CurvatureBounds(1.0, 1.0)

    def project(self, coords):
        c = np.asarray(coords, dtype=float).reshape(self.ambient)
        nrm = np.linalg.norm(c)
        if nrm == 0:
            raise GeometryError("cannot project the origin onto the sphere")
        return Point(c / nrm, self.manifold_id)

    def to_tangent(self, x, coords):
        c = np.asarray(coords, dtype=float).reshape(self.ambient)
        return TangentVector(x, c - np.dot(x.coords, c) * x.coords)

    def base_point(self):
        e = np.zeros(self.ambient)
        e[0] = 1.0
        return Point(e, self.manifold_id)

    def point_defect(self, coords):
        return abs(np.linalg.norm(coords) - 1.0)

    def tangent_defect(self, x, coords):
        return abs(float(np.dot(x.coords, coords)))

    def inner(self, x, u, v):
        return float(np.dot(u.coords, v.coords))

    def dist(self, x, y):
        # chord formula tan(d/2) = |x-y| / |x+y| is exact for unit vectors
        # and, unlike arccos, loses no precision near 0 or pi
        chord = np.linalg.norm(x.coords - y.coords)
        cochord = np.linalg.norm(x.coords + y.coords)
        return 2.0 * math.atan2(chord, cochord)

    def exp(self, x, v):
        self._require_base(x, v)
        self._require_finite(v)
        theta = np.linalg.norm(v.coords)
        if theta == 0.0:
            return x.copy()
        c = math.cos(theta) * x.coords + math.sin(theta) * v.coords / theta
        return self.project(c)

    def log(self, x, y):
        cosang = float(np.dot(x.coords, y.coords))
        if cosang <= -1.0 + _ANTIPODAL_TOL:
            raise GeometryError("log undefined at antipodal points")
        theta = self.dist(x, y)
        u = y.coords - cosang * x.coords
        nu = np.linalg.norm(u)
        if nu == 0.0 or theta == 0.0:
            return self.zero_tangent(x)
        return TangentVector(x, (theta / nu) * u)

    def transport(self, x, y, v):
        # Rotate the geodesic direction into its image at y; the orthogonal
        # complement of span{x, y} is transported unchanged.
        self._require_base(x, v)
        u = self.log(x, y)
        d = np.linalg.norm(u.coords)
        if d == 0.0:
            return TangentVector(y, v.coords.copy())
        u_back = self.log(y, x)
        w = v.coords - (np.dot(u.coords, v.coords) / d**2) * (u.coords + u_back.coords)
        return self.to_tangent(y, w)

    def to_tangent_rows(self, x, coords):
        c = np.asarray(coords, dtype=float).reshape(-1, self.ambient)
        return TangentVector(x, c - np.vecdot(x.coords, c)[..., None] * x.coords)

    inner_rows = Euclidean.inner_rows

    def dist_rows(self, x, y):
        chord = _row_norm(x.coords - y.coords)
        cochord = _row_norm(x.coords + y.coords)
        return 2.0 * _per_row(math.atan2, chord, cochord)

    def exp_rows(self, x, v):
        self._require_base(x, v)
        self._require_finite(v)
        out, m, c = _rotate_rows(x, v, _row_norm(v.coords), math.cos, math.sin)
        nrm = _row_norm(c)
        if np.any(nrm == 0):
            raise GeometryError("cannot project the origin onto the sphere")
        out[m] = c / nrm[:, None]
        return Point(out, self.manifold_id)

    def log_rows(self, x, y):
        cosang = np.vecdot(x.coords, y.coords)
        if np.any(cosang <= -1.0 + _ANTIPODAL_TOL):
            raise GeometryError("log undefined at antipodal points")
        theta = self.dist_rows(x, y)
        u = y.coords - cosang[..., None] * x.coords
        return TangentVector(x, _rescale_rows(theta, u, _row_norm(u)))

    def random_point(self, rng, center=None, radius=None):
        rng = as_rng(rng)
        if center is None:
            return self.project(rng.standard_normal(self.ambient))
        if radius is None:
            radius = 1.0
        direction = self.random_tangent(center, rng, norm=1.0)
        r = radius * rng.uniform()
        return self.exp(center, r * direction)


class Hyperbolic(Manifold):
    """Hyperbolic space H^n in the Lorentz model; constant curvature -1.

    Points satisfy <x, x>_M = -1 with positive last coordinate, where the
    Minkowski product is  <x, y>_M = sum_{i<n} x_i y_i - x_n y_n.
    """

    def __init__(self, n: int):
        if n < 1:
            raise GeometryError("dimension must be >= 1")
        self.n = n
        self.ambient = n + 1
        self.manifold_id = f"hyperbolic({n})"
        self.curvature = CurvatureBounds(-1.0, -1.0)

    @staticmethod
    def minkowski(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.dot(a[:-1], b[:-1]) - a[-1] * b[-1])

    def project(self, coords):
        c = np.asarray(coords, dtype=float).reshape(self.ambient)
        q = -self.minkowski(c, c)
        if q <= 0 or c[-1] <= 0:
            raise GeometryError("coordinates are not near the upper hyperboloid")
        return Point(c / math.sqrt(q), self.manifold_id)

    def to_tangent(self, x, coords):
        c = np.asarray(coords, dtype=float).reshape(self.ambient)
        return TangentVector(x, c + self.minkowski(x.coords, c) * x.coords)

    def base_point(self):
        e = np.zeros(self.ambient)
        e[-1] = 1.0
        return Point(e, self.manifold_id)

    def point_defect(self, coords):
        if coords[-1] <= 0:
            return math.inf
        return abs(self.minkowski(coords, coords) + 1.0)

    def tangent_defect(self, x, coords):
        return abs(self.minkowski(x.coords, coords))

    def inner(self, x, u, v):
        return self.minkowski(u.coords, v.coords)

    def dist(self, x, y):
        # Minkowski chord: <x-y, x-y>_M = 2(cosh d - 1), so
        # d = 2 asinh(sqrt(<x-y, x-y>_M / 4)); unlike arccosh this does not
        # amplify ulp noise near coincident points.
        diff = x.coords - y.coords
        q = max(self.minkowski(diff, diff), 0.0)
        return 2.0 * math.asinh(0.5 * math.sqrt(q))

    def exp(self, x, v):
        self._require_base(x, v)
        self._require_finite(v)
        nv = self.norm(x, v)
        if nv == 0.0:
            return x.copy()
        c = math.cosh(nv) * x.coords + math.sinh(nv) * v.coords / nv
        return self.project(c)

    def log(self, x, y):
        d = self.dist(x, y)
        u = y.coords + self.minkowski(x.coords, y.coords) * x.coords
        nu = math.sqrt(max(self.minkowski(u, u), 0.0))
        if nu == 0.0 or d == 0.0:
            return self.zero_tangent(x)
        return TangentVector(x, (d / nu) * u)

    def transport(self, x, y, v):
        self._require_base(x, v)
        u = self.log(x, y)
        d = self.norm(x, u)
        if d == 0.0:
            return TangentVector(y, v.coords.copy())
        u_back = self.log(y, x)
        w = v.coords - (self.minkowski(u.coords, v.coords) / d**2) * (u.coords + u_back.coords)
        return self.to_tangent(y, w)

    @staticmethod
    def minkowski_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.vecdot(a[..., :-1], b[..., :-1]) - a[..., -1] * b[..., -1]

    def to_tangent_rows(self, x, coords):
        c = np.asarray(coords, dtype=float).reshape(-1, self.ambient)
        return TangentVector(x, c + self.minkowski_rows(x.coords, c)[..., None] * x.coords)

    def inner_rows(self, x, u, v):
        return self.minkowski_rows(u.coords, v.coords)

    def dist_rows(self, x, y):
        diff = x.coords - y.coords
        q = np.maximum(self.minkowski_rows(diff, diff), 0.0)
        return 2.0 * _per_row(math.asinh, 0.5 * np.sqrt(q))

    def exp_rows(self, x, v):
        self._require_base(x, v)
        self._require_finite(v)
        nv = np.sqrt(np.maximum(self.minkowski_rows(v.coords, v.coords), 0.0))
        out, m, c = _rotate_rows(x, v, nv, math.cosh, math.sinh)
        q = -self.minkowski_rows(c, c)
        if np.any((q <= 0) | (c[:, -1] <= 0)):
            raise GeometryError("coordinates are not near the upper hyperboloid")
        out[m] = c / np.sqrt(q)[:, None]
        return Point(out, self.manifold_id)

    def log_rows(self, x, y):
        d = self.dist_rows(x, y)
        u = y.coords + self.minkowski_rows(x.coords, y.coords)[..., None] * x.coords
        nu = np.sqrt(np.maximum(self.minkowski_rows(u, u), 0.0))
        return TangentVector(x, _rescale_rows(d, u, nu))

    def random_point(self, rng, center=None, radius=None):
        rng = as_rng(rng)
        if center is None:
            center = self.base_point()
        if radius is None:
            radius = 1.0
        direction = self.random_tangent(center, rng, norm=1.0)
        r = radius * rng.uniform()
        return self.exp(center, r * direction)

    # Batched helpers used by the experiment layer (hot loops).
    def log_many(self, x: Point, targets: np.ndarray) -> np.ndarray:
        """log_x of every row of `targets`; returns tangent rows."""
        xc = x.coords
        mdot = targets[:, :-1] @ xc[:-1] - targets[:, -1] * xc[-1]
        d = self.dist_many(x, targets)
        u = targets + mdot[:, None] * xc[None, :]
        nu = np.sqrt(np.maximum(np.sum(u[:, :-1] ** 2, axis=1) - u[:, -1] ** 2, 0.0))
        scale = np.where(nu > 0, d / np.where(nu > 0, nu, 1.0), 0.0)
        return u * scale[:, None]

    def dist_many(self, x: Point, targets: np.ndarray) -> np.ndarray:
        diff = targets - x.coords[None, :]
        q = np.maximum(np.sum(diff[:, :-1] ** 2, axis=1) - diff[:, -1] ** 2, 0.0)
        return 2.0 * np.arcsinh(0.5 * np.sqrt(q))


# Both helpers act on a single (d, d) matrix or on a stack (n, d, d) of them.
def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.mT)


def _eig_apply(fn: Callable[[np.ndarray], np.ndarray], M: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(_sym(M))
    return (V * fn(w)[..., None, :]) @ V.mT


class SPD(Manifold):
    """Symmetric positive definite d x d matrices, affine-invariant metric.

    <U, V>_X = tr(X^-1 U X^-1 V). Geodesics, log and transport are the
    standard closed forms through symmetric eigendecompositions. Sectional
    curvature lies in [-1/2, 0]; the bounds below are verified empirically by
    the comparison-inequality suite rather than taken on trust.

    Each point stores (X^(1/2), X^(-1/2)), from one eigendecomposition, in its
    memo on first use; exp, log, transport, dist_many and log_many at that
    base point reuse it. A point that is not positive definite stores nothing
    and raises on every call. A stacked point (coords of shape (n, d, d))
    stores the pairs of all its matrices in one memo entry.
    """

    def __init__(self, d: int, eig_range: tuple[float, float] = (0.5, 2.0)):
        if d < 1:
            raise GeometryError("dimension must be >= 1")
        self.d = d
        self.eig_range = eig_range
        self.manifold_id = f"spd({d})"
        self.curvature = CurvatureBounds(-0.5, 0.0)

    def project(self, coords):
        c = _sym(np.asarray(coords, dtype=float).reshape(self.d, self.d))
        return Point(c, self.manifold_id)

    def to_tangent(self, x, coords):
        return TangentVector(x, _sym(np.asarray(coords, dtype=float).reshape(self.d, self.d)))

    def base_point(self):
        return Point(np.eye(self.d), self.manifold_id)

    def point_defect(self, coords):
        asym = float(np.max(np.abs(coords - coords.T), initial=0.0))
        eigmin = float(np.linalg.eigvalsh(_sym(coords)).min())
        return asym if eigmin > 0 else math.inf

    def tangent_defect(self, x, coords):
        return float(np.max(np.abs(coords - coords.T), initial=0.0))

    def inner(self, x, u, v):
        return float(self.inner_rows(x, u, v))

    def _sqrt_pair(self, x: Point) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """X^(1/2), X^(-1/2) and the cap on a step's whitened eigenvalues."""
        pair = x.memo.get("spd_sqrt")
        if pair is None:
            w, V = np.linalg.eigh(_sym(x.coords))
            if w.min() <= 0:
                raise GeometryError("matrix is not positive definite")
            s = np.sqrt(w)[..., None, :]
            # exp's e^W, its product X^(1/2) e^W X^(1/2) and the partial sums
            # stay below max(lambda_max(X), 1) e^max(W); the factor max(d, 2)
            # leaves room for rounding in the d-term sums and for _sym's sum
            cap = _EXP_MAX_ARG - np.log(max(self.d, 2) * np.maximum(w[..., -1], 1.0))
            pair = x.memo["spd_sqrt"] = ((V * s) @ V.mT, (V / s) @ V.mT, cap)
        return pair

    def dist(self, x, y):
        return float(self.dist_many(x, y.coords))

    def exp(self, x, v):
        self._require_base(x, v)
        self._require_finite(v)
        S, Si, cap = self._sqrt_pair(x)
        w, V = np.linalg.eigh(_sym(Si @ v.coords @ Si))
        if (w[..., -1] > cap).any():
            raise GeometryError("exp overflows: the step is too long for float64")
        return Point(_sym(S @ ((V * np.exp(w)[..., None, :]) @ V.mT) @ S), self.manifold_id)

    def log(self, x, y):
        return TangentVector(x, self.log_many(x, y.coords))

    def transport(self, x, y, v):
        # E = (Y X^-1)^(1/2) computed as X^(1/2) (X^(-1/2) Y X^(-1/2))^(1/2) X^(-1/2)
        self._require_base(x, v)
        S, Si, _ = self._sqrt_pair(x)
        middle = _eig_apply(np.sqrt, Si @ y.coords @ Si)
        E = S @ middle @ Si
        return TangentVector(y, _sym(E @ v.coords @ E.T))

    # Batched forms over stacked (n, d, d) targets: one eigendecomposition of
    # x and one stacked eigvalsh/eigh give the same bits as n single calls.
    # dist and log pass a single (d, d) matrix, so the formula lives here only.
    # A stacked x pairs its rows with the targets' (dist_rows, log_rows).
    def dist_many(self, x: Point, targets: np.ndarray) -> np.ndarray:
        """dist(x, Y_i) for every matrix of `targets`; returns shape (n,)."""
        _, Si, _ = self._sqrt_pair(x)
        lw = np.log(np.maximum(np.linalg.eigvalsh(_sym(Si @ targets @ Si)), 1e-300))
        # vecdot, unlike norm(axis=-1), gives each row the bits of a single call
        return np.sqrt(np.vecdot(lw, lw))

    def log_many(self, x: Point, targets: np.ndarray) -> np.ndarray:
        """log_x(Y_i) coordinates for every matrix of `targets`; shape (n, d, d)."""
        S, Si, _ = self._sqrt_pair(x)
        return _sym(S @ _eig_apply(np.log, Si @ targets @ Si) @ S)

    def to_tangent_rows(self, x, coords):
        return TangentVector(x, _sym(np.asarray(coords, dtype=float).reshape(-1, self.d, self.d)))

    def inner_rows(self, x, u, v):
        a = np.linalg.solve(x.coords, u.coords)
        b = a if v is u else np.linalg.solve(x.coords, v.coords)
        return np.trace(a @ b, axis1=-2, axis2=-1)

    def dist_rows(self, x, y):
        return self.dist_many(x, y.coords)

    # exp and log broadcast over rows as they are
    exp_rows = exp
    log_rows = log

    def random_point(self, rng, center=None, radius=None):
        rng = as_rng(rng)
        if center is None:
            lo, hi = self.eig_range
            w = rng.uniform(lo, hi, size=self.d)
            Q, _ = np.linalg.qr(rng.standard_normal((self.d, self.d)))
            return self.project((Q * w) @ Q.T)
        if radius is None:
            radius = 1.0
        direction = self.random_tangent(center, rng, norm=1.0)
        r = radius * rng.uniform()
        return self.exp(center, r * direction)


class Product(Manifold):
    """Product of manifolds; all operations act factor-wise.

    Points are stored as the flat concatenation of each factor's raveled
    ambient coordinates. Squared distances add over factors and the curvature
    bounds are the envelope of the factors' bounds.
    """

    def __init__(self, factors: Sequence[Manifold]):
        if len(factors) == 0:
            raise GeometryError("product needs at least one factor")
        self.factors = list(factors)
        self._shapes = [f.base_point().coords.shape for f in self.factors]
        sizes = [int(np.prod(s)) for s in self._shapes]
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        self._slices = [slice(int(a), int(b)) for a, b in zip(offsets[:-1], offsets[1:])]
        self.ambient = int(offsets[-1])
        self.manifold_id = "product(" + ",".join(f.manifold_id for f in self.factors) + ")"
        self.curvature = CurvatureBounds(
            min(f.curvature.kappa for f in self.factors),
            max(f.curvature.K for f in self.factors),
        )

    def split(self, x: Point) -> tuple[Point, ...]:
        """The factor points of x, kept in its memo: the same objects every call."""
        parts = x.memo.get("product_split")
        if parts is None:
            parts = x.memo["product_split"] = tuple(
                Point(x.coords[sl].reshape(shape), f.manifold_id)
                for f, sl, shape in zip(self.factors, self._slices, self._shapes)
            )
        return parts

    def join(self, parts: Sequence[Point]) -> Point:
        return Point(
            np.concatenate([p.coords.ravel() for p in parts]), self.manifold_id
        )

    def split_tangent(self, v: TangentVector) -> list[TangentVector]:
        bases = self.split(v.base)
        return [
            TangentVector(b, v.coords[sl].reshape(shape))
            for b, sl, shape in zip(bases, self._slices, self._shapes)
        ]

    def join_tangent(self, base: Point, parts: Sequence[TangentVector]) -> TangentVector:
        return TangentVector(base, np.concatenate([p.coords.ravel() for p in parts]))

    def project(self, coords):
        c = np.asarray(coords, dtype=float).reshape(self.ambient)
        parts = [
            f.project(c[sl].reshape(shape))
            for f, sl, shape in zip(self.factors, self._slices, self._shapes)
        ]
        return self.join(parts)

    def to_tangent(self, x, coords):
        c = np.asarray(coords, dtype=float).reshape(self.ambient)
        xs = self.split(x)
        parts = [
            f.to_tangent(xi, c[sl].reshape(shape))
            for f, xi, sl, shape in zip(self.factors, xs, self._slices, self._shapes)
        ]
        return self.join_tangent(x, parts)

    def base_point(self):
        return self.join([f.base_point() for f in self.factors])

    def point_defect(self, coords):
        return max(
            f.point_defect(coords[sl].reshape(shape))
            for f, sl, shape in zip(self.factors, self._slices, self._shapes)
        )

    def tangent_defect(self, x, coords):
        xs = self.split(x)
        return max(
            f.tangent_defect(xi, coords[sl].reshape(shape))
            for f, xi, sl, shape in zip(self.factors, xs, self._slices, self._shapes)
        )

    def inner(self, x, u, v):
        xs = self.split(x)
        us = self.split_tangent(u)
        vs = us if v is u else self.split_tangent(v)
        return float(sum(f.inner(xi, ui, vi) for f, xi, ui, vi in zip(self.factors, xs, us, vs)))

    def dist(self, x, y):
        xs, ys = self.split(x), self.split(y)
        return math.sqrt(sum(f.dist(xi, yi) ** 2 for f, xi, yi in zip(self.factors, xs, ys)))

    def exp(self, x, v):
        self._require_base(x, v)
        xs = self.split(x)
        vs = self.split_tangent(v)
        return self.join([f.exp(xi, vi) for f, xi, vi in zip(self.factors, xs, vs)])

    def log(self, x, y):
        xs, ys = self.split(x), self.split(y)
        parts = [f.log(xi, yi) for f, xi, yi in zip(self.factors, xs, ys)]
        return self.join_tangent(x, parts)

    def transport(self, x, y, v):
        self._require_base(x, v)
        xs, ys = self.split(x), self.split(y)
        vs = self.split_tangent(v)
        parts = [f.transport(xi, yi, vi) for f, xi, yi, vi in zip(self.factors, xs, ys, vs)]
        return self.join_tangent(y, parts)

    def random_point(self, rng, center=None, radius=None):
        rng = as_rng(rng)
        if center is None:
            return self.join([f.random_point(rng) for f in self.factors])
        if radius is None:
            radius = 1.0
        direction = self.random_tangent(center, rng, norm=1.0)
        r = radius * rng.uniform()
        return self.exp(center, r * direction)

