"""Concrete manifolds with closed-form geometry.

Provided spaces: Euclidean R^n, the unit sphere S^n in R^{n+1}, hyperbolic
space H^n in the Lorentz (hyperboloid) model, symmetric positive definite
matrices with the affine-invariant metric, and products of the above.

One rule holds for every operation (``to_tangent``, ``inner``, ``norm``,
``dist``, ``exp``, ``log``, ``transport``): one name takes single points,
stacks whose rows pair up, or a single point broadcast against stacked
operands. On Euclidean, the sphere and SPD, and for the other hyperbolic
operations, it is one numpy formula, which broadcasts over the leading axes
and over none; a single call returns a float where an array would have no
axis. Hyperbolic ``exp`` and ``inner`` alone keep a scalar ``math`` body for
single operands: R-AOOGD's Karcher means and the single learners make them
one at a time, where a one-row numpy kernel costs 2-2.5x as much. A product
makes one call per factor, or one on the folded stack (see ``Product``).
``dist`` and ``log`` also take a cloud per base (see ``Manifold``).
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add
from typing import Sequence

import numpy as np

from .geometry import (
    CurvatureBounds,
    GeometryError,
    Manifold,
    Point,
    TangentVector,
    memo_entry,
)

# Inner products this close to the antipodal limit are treated as conjugate.
_ANTIPODAL_TOL = 1e-10
# np.exp overflows above this argument.
_EXP_MAX_ARG = math.log(np.finfo(float).max)


# The kernels below act on coordinate arrays: a point's coords or a stack
# of them along leading axes, which broadcast against each other.
def _row_norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.vecdot(a, a))


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
        return TangentVector(x, np.asarray(coords, dtype=float))

    def base_point(self):
        return Point(np.zeros(self.n), self.manifold_id)

    def inner(self, x, u, v):
        s = np.vecdot(u.coords, v.coords)
        return float(s) if self._single(x, u, v) else s

    def dist(self, x, y):
        d = _row_norm(y.coords - self._cloud(x, y, x.coords))
        return float(d) if self._single(x, y) else d

    def exp(self, x, v):
        self._require_base(x, v)
        self._require_finite(v)
        return Point(x.coords + v.coords, self.manifold_id)

    def log(self, x, y):
        return TangentVector(x, y.coords - self._cloud(x, y, x.coords))

    def transport(self, x, y, v):
        self._require_base(x, v)
        return TangentVector(y, v.coords.copy())

    def _draw(self, rng):
        return Point(rng.standard_normal(self.n), self.manifold_id)


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
        return TangentVector(x, self._tangent(x.coords, np.asarray(coords, dtype=float)))

    def base_point(self):
        e = np.zeros(self.ambient)
        e[0] = 1.0
        return Point(e, self.manifold_id)

    # Each operation is one kernel on coordinates (_tangent, _dist, _log and
    # the formulas of exp and transport), which broadcasts over the leading
    # axes and over none: a single point, a stack and a cloud run the same
    # calls row by row, so each row gets the bits of the single call.
    inner = Euclidean.inner

    def dist(self, x, y):
        d = self._dist(self._cloud(x, y, x.coords), y.coords)
        return float(d) if self._single(x, y) else d

    def exp(self, x, v):
        self._require_base(x, v)
        self._require_finite(v)
        t = _row_norm(v.coords)[..., None]
        c = np.cos(t) * x.coords + np.sin(t) * v.coords / np.where(t > 0, t, 1.0)
        nrm = _row_norm(c)[..., None]
        if np.any(nrm == 0):
            raise GeometryError("cannot project the origin onto the sphere")
        # a zero step returns the base as it is
        return Point(np.where(t > 0, c / nrm, x.coords), self.manifold_id)

    def log(self, x, y):
        return TangentVector(x, self._log(self._cloud(x, y, x.coords), y.coords))

    def transport(self, x, y, v):
        # Rotate the geodesic direction into its image at y; the orthogonal
        # complement of span{x, y} is transported unchanged: v reflected
        # through the geodesic's direction at both ends. A row of zero
        # distance keeps v.
        self._require_base(x, v)
        u = self._log(x.coords, y.coords)
        d2 = np.vecdot(u, u)
        uv = np.vecdot(u, v.coords)
        scale = np.divide(uv, d2, out=np.zeros_like(uv), where=d2 > 0)
        w = v.coords - scale[..., None] * (u + self._log(y.coords, x.coords))
        w = self._tangent(y.coords, w)
        return TangentVector(y, np.where((d2 > 0)[..., None], w, v.coords))

    # the kernels on coordinate arrays
    @staticmethod
    def _tangent(x: np.ndarray, c: np.ndarray) -> np.ndarray:
        return c - np.vecdot(x, c)[..., None] * x

    @staticmethod
    def _dist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # chord formula tan(d/2) = |x-y| / |x+y| is exact for unit vectors
        # and, unlike arccos, loses no precision near 0 or pi
        return 2.0 * np.arctan2(_row_norm(x - y), _row_norm(x + y))

    @classmethod
    def _log(cls, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        cosang = np.vecdot(x, y)
        if np.any(cosang <= -1.0 + _ANTIPODAL_TOL):
            raise GeometryError("log undefined at antipodal points")
        theta = cls._dist(x, y)
        u = y - cosang[..., None] * x
        nu = _row_norm(u)
        scale = np.divide(theta, nu, out=np.zeros_like(theta), where=nu > 0)
        return scale[..., None] * u

    def _draw(self, rng):
        return self.project(rng.standard_normal(self.ambient))


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
        c = np.asarray(coords, dtype=float)
        return TangentVector(x, c + self._inner(x.coords, c)[..., None] * x.coords)

    def base_point(self):
        e = np.zeros(self.ambient)
        e[-1] = 1.0
        return Point(e, self.manifold_id)

    # exp and inner keep a scalar body for single operands (a one-row kernel
    # costs 2-2.5x as much): R-AOOGD's Karcher means and the single learners
    # call them one at a time
    def inner(self, x, u, v):
        if self._single(x, u, v):
            return self.minkowski(u.coords, v.coords)
        return self._inner(u.coords, v.coords)

    def dist(self, x, y):
        d = self._dist(self._cloud(x, y, x.coords), y.coords)
        return float(d) if self._single(x, y) else d

    def _exp_cap(self, x: np.ndarray):
        """The longest step exp takes from x: the result's coordinates grow
        like e^|v| x_n, and projecting it squares them."""
        top = np.log(np.maximum(x[..., -1], 1.0))
        return 0.5 * (_EXP_MAX_ARG - math.log(4 * self.ambient)) - top

    def exp(self, x, v):
        self._require_base(x, v)
        self._require_finite(v)
        with np.errstate(over="ignore", invalid="ignore"):  # a huge step's norm is inf or nan
            nv = self.norm(x, v)
        if self._single(x, v):
            if nv == 0.0:
                return x.copy()
            if not nv <= self._exp_cap(x.coords):
                raise GeometryError("exp overflows: the step is too long for float64")
            c = math.cosh(nv) * x.coords + math.sinh(nv) * v.coords / nv
            return self.project(c)
        nv = nv[..., None]
        if not np.all(nv <= self._exp_cap(x.coords)[..., None]):
            raise GeometryError("exp overflows: the step is too long for float64")
        c = np.cosh(nv) * x.coords + np.sinh(nv) * v.coords / np.where(nv > 0, nv, 1.0)
        q = -self._inner(c, c)[..., None]
        if np.any((q <= 0) | (c[..., -1:] <= 0)):
            raise GeometryError("coordinates are not near the upper hyperboloid")
        # a zero step returns the base as it is
        return Point(np.where(nv > 0, c / np.sqrt(q), x.coords), self.manifold_id)

    def log(self, x, y):
        return TangentVector(x, self._log(self._cloud(x, y, x.coords), y.coords))

    def transport(self, x, y, v):
        # The closed form v + <y, v>_M / (1 - <x, y>_M) (x + y) stays exact as
        # y -> x, where a reflection through the log directions divides
        # rounding noise by the vanishing distance. Coincident rows keep v.
        self._require_base(x, v)
        a, b, c = x.coords, y.coords, v.coords
        w = c + (self._inner(b, c) / (1.0 - self._inner(a, b)))[..., None] * (a + b)
        return TangentVector(y, np.where(np.all(a == b, axis=-1)[..., None], c, w))

    # the kernels on coordinate arrays
    @staticmethod
    def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.vecdot(a[..., :-1], b[..., :-1]) - a[..., -1] * b[..., -1]

    # The dist and log kernels broadcast a against b (x against y) over their
    # leading axes: stacks pair rows, and a cloud has its axis on the base.
    @classmethod
    def _dist(cls, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # Minkowski chord: <a-b, a-b>_M = 2(cosh d - 1), so
        # d = 2 asinh(sqrt(<a-b, a-b>_M / 4)); unlike arccosh this does not
        # amplify ulp noise near coincident points.
        diff = a - b
        return 2.0 * np.arcsinh(0.5 * np.sqrt(np.maximum(cls._inner(diff, diff), 0.0)))

    @classmethod
    def _log(cls, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        d = cls._dist(x, y)
        u = y + cls._inner(x, y)[..., None] * x
        nu = np.sqrt(np.maximum(cls._inner(u, u), 0.0))
        return np.divide(d, nu, out=np.zeros_like(d), where=nu > 0)[..., None] * u

    def _draw(self, rng):
        return self.random_point(rng, self.base_point())


# Acts on a single (d, d) matrix or on a stack (n, d, d) of them.
def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.mT)


def _congruence(A: np.ndarray, M: np.ndarray) -> np.ndarray:
    """The symmetric part of A M A^T, over the leading axes of both."""
    return _sym(A @ M @ A.mT)


def _require_pd_target(w: np.ndarray, op: str) -> None:
    """Raise unless every whitened target, by its ascending eigenvalues w,
    is positive definite."""
    if (w[..., 0] <= 0).any():
        raise GeometryError(f"{op} undefined: a target is not positive definite")


class SPD(Manifold):
    """Symmetric positive definite d x d matrices, affine-invariant metric.

    <U, V>_X = tr(X^-1 U X^-1 V); geodesics, log and transport are the
    standard closed forms. Sectional curvature lies in [-1/2, 0], checked
    empirically by the comparison suite.

    Every operation whitens by a factor X = L L^T: the closed forms are
    invariant under congruence, so the Cholesky factor L serves where the
    textbook forms write X^(1/2) (Pennec, Fillard and Ayache, IJCV 2006).
    Each point stores (L, L^-1), from one ``cholesky`` and one ``inv``, in
    its memo on first use, for every operation at that base (a stack stores
    all its pairs in one entry). One ``eigh`` of the whitened L^-1 Y L^-T or
    L^-1 V L^-T is then each exp, log and transport; ``_log_dist`` gives log
    and dist from log's one eigh, ``dist`` alone takes eigvalsh, and
    ``inner`` is the Frobenius product of the two whitened tangents. Each
    operation is one formula over matrices, stacks and clouds, each matrix
    with a single call's bits.

    A base that is not positive definite (indefinite, singular, zero, or
    with a NaN or infinite entry), single or a row of a stack, stores
    nothing and raises GeometryError "matrix is not positive definite" on
    every call; no operation returns NaN for it. A target of ``dist``,
    ``log`` or ``transport`` whose whitened matrix has an eigenvalue <= 0
    raises GeometryError "<op> undefined: a target is not positive definite".
    """

    point_ndim = 2

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
        return TangentVector(x, _sym(np.asarray(coords, dtype=float)))

    def base_point(self):
        return Point(np.eye(self.d), self.manifold_id)

    def inner(self, x, u, v):
        Li = self._factor(x)[1]
        a = _congruence(Li, u.coords)
        b = a if v is u else _congruence(Li, v.coords)
        t = np.vecdot(a.reshape(a.shape[:-2] + (-1,)), b.reshape(b.shape[:-2] + (-1,)))
        return float(t) if self._single(x, u, v) else t

    def _factor(self, x: Point) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """L and L^-1 with X = L L^T, and the cap on a step's whitened eigenvalues."""

        def factor(p):
            X = _sym(p.coords)
            try:
                L = np.linalg.cholesky(X)
            except np.linalg.LinAlgError:
                L = None
            # cholesky passes NaN through, and an infinite diagonal
            if L is None or not np.isfinite(L).all():
                raise GeometryError("matrix is not positive definite")
            # exp's e^W and the partial sums of L e^W L^T stay below
            # max_k X_kk e^max(W): entry (i, j) is at most
            # |L_i| |L_j| e^max(W), and |L_i|^2 = X_ii. The factor max(d, 2)
            # leaves room for rounding in the d-term sums and for _sym's sum
            top = np.diagonal(X, axis1=-2, axis2=-1).max(axis=-1)
            cap = _EXP_MAX_ARG - np.log(max(self.d, 2) * np.maximum(top, 1.0))
            return L, np.linalg.inv(L), cap

        return memo_entry(x, "spd_chol", factor)

    def dist(self, x, y):
        Li = self._cloud(x, y, self._factor(x)[1])
        w = np.linalg.eigvalsh(_congruence(Li, y.coords))
        _require_pd_target(w, "dist")
        d = _row_norm(np.log(w))
        return float(d) if self._single(x, y) else d

    def exp(self, x, v):
        self._require_base(x, v)
        self._require_finite(v)
        L, Li, cap = self._factor(x)
        w, V = np.linalg.eigh(_congruence(Li, v.coords))
        if (w[..., -1] > cap).any():
            raise GeometryError("exp overflows: the step is too long for float64")
        return Point(_congruence(L, (V * np.exp(w)[..., None, :]) @ V.mT), self.manifold_id)

    def _log_dist(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        """log_x(y)'s coords and dist(x, y), from one eigh of L^-1 Y L^-T."""
        L, Li = (self._cloud(x, y, a) for a in self._factor(x)[:2])
        w, V = np.linalg.eigh(_congruence(Li, y.coords))
        _require_pd_target(w, "log")
        lw = np.log(w)
        return _congruence(L, (V * lw[..., None, :]) @ V.mT), _row_norm(lw)

    def log(self, x, y):
        return TangentVector(x, self._log_dist(x, y)[0])

    def transport(self, x, y, v):
        # E = (Y X^-1)^(1/2) computed as L (L^-1 Y L^-T)^(1/2) L^-1
        self._require_base(x, v)
        L, Li, _ = self._factor(x)
        w, V = np.linalg.eigh(_congruence(Li, y.coords))
        _require_pd_target(w, "transport")
        E = L @ ((V * np.sqrt(w)[..., None, :]) @ V.mT) @ Li
        return TangentVector(y, _congruence(E, v.coords))

    def _draw(self, rng):
        lo, hi = self.eig_range
        w = rng.uniform(lo, hi, size=self.d)
        Q, _ = np.linalg.qr(rng.standard_normal((self.d, self.d)))
        return self.project((Q * w) @ Q.T)


class Product(Manifold):
    """Product of manifolds; all operations act factor-wise.

    Points are stored as the flat concatenation of each factor's raveled
    ambient coordinates. Squared distances add over factors and the curvature
    bounds are the envelope of the factors' bounds. ``split``/``join`` also
    take (n, ambient) stacks. Every operation makes one call per factor,
    which takes single operands or the factor's rows. When the k factors are
    one manifold (one ``manifold_id``) and the operands have one leading
    axis, ``exp``, ``log``, ``inner`` and ``transport`` fold instead: the
    (n, k * size) rows are, as a reshape, one (n k, ...) stack of that
    factor, which it takes in a single call. The fold's rows are the rows'
    factor points, so each is factored once (an SPD factor's Cholesky
    factor, say) whichever stack it joins.
    Single operands and a cloud at a stacked base go through the per-factor
    calls.
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
        # the factor that takes the folded stacks, if all are one
        same = len({f.manifold_id for f in self.factors}) == 1
        self._common = self.factors[0] if same else None

    def _split(self, coords: np.ndarray) -> list[np.ndarray]:
        lead = coords.shape[:-1]
        return [coords[..., s].reshape(lead + shape) for s, shape in zip(self._slices, self._shapes)]

    def _join(self, parts: Sequence[np.ndarray]) -> np.ndarray:
        lead = parts[0].shape[: parts[0].ndim - len(self._shapes[0])]
        return np.concatenate([p.reshape(lead + (-1,)) for p in parts], axis=-1)

    def split(self, x: Point) -> tuple[Point, ...]:
        """The factor points of x, kept in its memo: the same objects every call."""
        parts = x.memo.get("product_split")
        if parts is None:
            parts = x.memo["product_split"] = tuple(
                Point(c, f.manifold_id) for f, c in zip(self.factors, self._split(x.coords))
            )
        return parts

    def join(self, parts: Sequence[Point]) -> Point:
        return Point(self._join([p.coords for p in parts]), self.manifold_id)

    def stack(self, points):
        """The stack of single points; each factor's stack keeps their factor
        points as its rows, so a factorization any of them holds is reused."""
        z = super().stack(points)
        parts = self.split(z)
        for part, rows in zip(parts, zip(*map(self.split, points))):
            part.memo["rows"] = list(rows)
        return z

    def split_tangent(self, v: TangentVector) -> list[TangentVector]:
        bases = self.split(v.base)
        return [TangentVector(b, c) for b, c in zip(bases, self._split(v.coords))]

    def join_tangent(self, base: Point, parts: Sequence[TangentVector]) -> TangentVector:
        return TangentVector(base, self._join([p.coords for p in parts]))

    def project(self, coords):
        c = np.asarray(coords, dtype=float).reshape(self.ambient)
        parts = [
            f.project(c[sl].reshape(shape))
            for f, sl, shape in zip(self.factors, self._slices, self._shapes)
        ]
        return self.join(parts)

    def to_tangent(self, x, coords):
        cs = self._split(np.asarray(coords, dtype=float))
        parts = [f.to_tangent(xi, c) for f, xi, c in zip(self.factors, self.split(x), cs)]
        return self.join_tangent(x, parts)

    def base_point(self):
        return self.join([f.base_point() for f in self.factors])

    def inner(self, x, u, v):
        return self._on_factors("inner", x, u, v)

    def dist(self, x, y):
        xs, ys = self.split(x), self.split(y)
        sq = reduce(add, (f.dist(xi, yi) ** 2 for f, xi, yi in zip(self.factors, xs, ys)), 0.0)
        return math.sqrt(sq) if self._single(x, y) else np.sqrt(sq)

    def exp(self, x, v):
        self._require_base(x, v)
        return Point(self._on_factors("exp", x, v), self.manifold_id)

    def log(self, x, y):
        return TangentVector(x, self._on_factors("log", x, y))

    def transport(self, x, y, v):
        self._require_base(x, v)
        return TangentVector(y, self._on_factors("transport", x, y, v))

    def _fold(self, p: Point, lead: tuple) -> Point:
        """The factor points of p's rows as one stack of the common factor,
        kept in p's memo. A single p is one row, or is repeated to ``lead``
        rows."""
        if p.coords.ndim == 1 and lead != (1,):
            p = self.stack([p] * lead[0])
        z = p.memo.get("product_fold")
        if z is None:
            z = Point(p.coords.reshape((-1,) + self._shapes[0]), self._common.manifold_id)
            rows = p.memo.get("rows", [p] if p.coords.ndim == 1 else None)
            if rows is not None:
                z.memo["rows"] = [q for r in rows for q in self.split(r)]
            p.memo["product_fold"] = z
        return z

    def _on_factors(self, op: str, x: Point, *args):
        """The factors' operation ``op`` at x and ``args`` (points, or
        tangents at x), single or stacked: the product coords of its points or
        tangents, or the sum over factors of its numbers. It runs once on the
        folded stacks when there is one leading axis, else once per factor;
        an argument passed twice is folded or split once. Sums over factors
        (here and in ``dist``) add left to right: ``sum`` of floats is
        compensated from Python 3.12 on."""
        chain = (x, *args)
        lead = max((a.coords.shape[:-1] for a in chain), key=len)
        if self._common is None or len(lead) != 1:
            parts = {id(a): self.split(a) if isinstance(a, Point) else self.split_tangent(a)
                     for a in chain}
            outs = [getattr(f, op)(*p)
                    for f, *p in zip(self.factors, *(parts[id(a)] for a in chain))]
            if hasattr(outs[0], "coords"):
                return self._join([o.coords for o in outs])
            return reduce(add, outs, 0.0)
        X = self._fold(x, lead)
        folded = {id(x): X}
        for a in args:
            if id(a) not in folded:
                folded[id(a)] = (self._fold(a, lead) if isinstance(a, Point)
                                 else TangentVector(X, a.coords.reshape(X.coords.shape)))
        out = getattr(self._common, op)(*(folded[id(a)] for a in chain))
        if hasattr(out, "coords"):
            return out.coords.reshape(lead + (self.ambient,))
        rows = out.reshape(lead + (len(self.factors),))
        return reduce(add, rows.T, 0.0)

    def _draw(self, rng):
        return self.join([f.random_point(rng) for f in self.factors])

