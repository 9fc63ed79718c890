"""Zero-sum games on product manifolds and their first-order solvers.

The optimistic descent-ascent solver keeps a transported gradient memory and
a running geodesic average of the trajectory. Baselines: simultaneous
gradient descent-ascent and the corrected extragradient method. Two payoff
families ship with the package: the quadratic logdet game on SPD x SPD and
the robust geometry-aware PCA game on SPD x sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import GeometryError, Manifold, Point, TangentVector
from .manifolds import SPD, Product, Sphere

PayoffFn = Callable[[Point, Point], float]
PartialGradFn = Callable[[Point, Point], TangentVector]

# SPD.dist(A, A) is rounding noise, not 0, and the noise grows like
# d * cond(A) * eps: measured at most 0.5 * d * cond * eps for d <= 30 and
# cond <= 1e6. A fixed cutoff such as 1e-10 is already beaten at cond 1e6, so
# each anchor's own bound, times this safety factor, decides "at the anchor".
# For d = 10 and eigenvalues in [0.2, 4.5] the cutoff is at most 3.2e-12, far
# below any solver step.
_ANCHOR_TOL_FACTOR = 64.0


@dataclass(frozen=True)
class ZeroSumGame:
    """min over the first factor, max over the second, of a smooth payoff.

    ``grad_x`` / ``grad_y`` return Riemannian partial gradients based at the
    respective factor points. The joint field F(z) = [grad_x, -grad_y] drives
    all solvers; a zero of F is a candidate Nash equilibrium.
    """

    space: Product
    payoff: PayoffFn
    grad_x: PartialGradFn
    grad_y: PartialGradFn
    mu: float = 0.0
    smoothness_L: float = float("nan")
    tag: str = "generic"
    params: dict = field(default_factory=dict)
    residual_fn: Optional[Callable[[Point], np.ndarray]] = None

    def join(self, x: Point, y: Point) -> Point:
        return self.space.join([x, y])

    def value(self, z: Point) -> float:
        x, y = self.space.split(z)
        return self.payoff(x, y)

    def field(self, z: Point) -> TangentVector:
        x, y = self.space.split(z)
        gx = self.grad_x(x, y)
        gy = self.grad_y(x, y)
        return self.space.join_tangent(z, [gx, -1.0 * gy])

    def gradient(self, z: Point) -> TangentVector:
        """Joint Riemannian gradient of the payoff on the product manifold."""
        x, y = self.space.split(z)
        return self.space.join_tangent(z, [self.grad_x(x, y), self.grad_y(x, y)])

    def residual(self, z: Point) -> np.ndarray:
        if self.residual_fn is None:
            return np.array([])
        return self.residual_fn(z)


@dataclass(frozen=True)
class GameState:
    """Solver memory: last two joint points, last field value, running average."""

    z_prev: Point
    z_cur: Point
    grad_prev: TangentVector
    z_bar: Point
    round: int = 0


@dataclass(frozen=True)
class NEDiagnostics:
    grad_norm: float
    best_grad_norm: float
    ne_residual: np.ndarray


def rogda_init(game: ZeroSumGame, z0: Point) -> GameState:
    return GameState(
        z_prev=z0, z_cur=z0, grad_prev=game.space.zero_tangent(z0), z_bar=z0, round=0
    )


def rogda_step(
    game: ZeroSumGame, state: GameState, eta: float, F: Optional[TangentVector] = None
) -> GameState:
    """Optimistic descent on x / ascent on y with transported memory.

    z_{t+1} = exp_{z_t}(-2 eta F(z_t) + eta transported F(z_{t-1})); on the
    first step the missing previous field is taken equal to the current one.
    The geodesic running average folds in the new point with weight 1/(t+1).
    ``F`` is F(z_t) when the caller has already evaluated it.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    m = game.space
    F_cur = game.field(state.z_cur) if F is None else F
    m._require_finite(F_cur)
    if state.round == 0:
        prev_at_cur = F_cur
    else:
        prev_at_cur = m.transport(state.z_prev, state.z_cur, state.grad_prev)
    z_next = m.exp(state.z_cur, -2.0 * eta * F_cur + eta * prev_at_cur)
    z_bar_next = geodesic_average(m, state.z_bar, z_next, state.round + 1)
    return GameState(
        z_prev=state.z_cur,
        z_cur=z_next,
        grad_prev=F_cur,
        z_bar=z_bar_next,
        round=state.round + 1,
    )


def geodesic_average(manifold: Manifold, z_bar: Point, z_new: Point, t: int) -> Point:
    """Fold the (t+1)-th point into a running geodesic mean.

    Returns exp_{z_bar}(log_{z_bar}(z_new) / (t+1)); with t = 1 this is the
    geodesic midpoint, and on flat space the recursion reproduces the running
    arithmetic mean exactly.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    step = (1.0 / (t + 1.0)) * manifold.log(z_bar, z_new)
    return manifold.exp(z_bar, step)


def rgda_step(
    game: ZeroSumGame, z: Point, eta: float, F: Optional[TangentVector] = None
) -> Point:
    """Simultaneous gradient descent-ascent: exp_z(-eta F(z)).

    ``F`` is F(z) when the caller has already evaluated it.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    if F is None:
        F = game.field(z)
    return game.space.exp(z, -eta * F)


def rceg_step(
    game: ZeroSumGame, z: Point, eta: float, F: Optional[TangentVector] = None
) -> Point:
    """Corrected extragradient: midpoint step, then correction toward z.

    w = exp_z(-eta F(z));  z+ = exp_w(-eta F(w) + log_w(z)). In flat space
    the correction term cancels and this is the classical extragradient.
    ``F`` is F(z) when the caller has already evaluated it.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    m = game.space
    if F is None:
        F = game.field(z)
    w = m.exp(z, -eta * F)
    return m.exp(w, -eta * game.field(w) + m.log(w, z))


def ne_diagnostics(
    game: ZeroSumGame, state: GameState, prev: Optional[NEDiagnostics] = None
) -> NEDiagnostics:
    """Gradient-norm diagnostics at the current iterate; best value is monotone."""
    g = game.field(state.z_cur)
    gn = game.space.norm(state.z_cur, g)
    best = gn if prev is None else min(prev.best_grad_norm, gn)
    return NEDiagnostics(grad_norm=gn, best_grad_norm=best, ne_residual=game.residual(state.z_cur))


def _logdet(x: Point) -> float:
    """log det of an SPD point, computed once and kept in its memo."""
    val = x.memo.get("logdet")
    if val is None:
        sign, val = np.linalg.slogdet(x.coords)
        if sign <= 0:
            raise GeometryError("matrix must be positive definite")
        val = x.memo["logdet"] = float(val)
    return val


def quad_logdet_game(d: int, c1: float, c2: float) -> ZeroSumGame:
    """Quadratic game in the logdet coordinates of two SPD players.

    payoff(X, Y) = c1 u^2 + c2 u v - c1 v^2 with u = logdet X, v = logdet Y.
    The logdet function is geodesically linear with gradient X, so the partial
    gradients are (2 c1 u + c2 v) X and (c2 u - 2 c1 v) Y, and every point
    with det X = det Y = 1 is an equilibrium. Each factor point's logdet is
    computed once; payoff, gradients and residual at it share the value.
    """
    if d < 1:
        raise GeometryError("d must be >= 1")
    if c1 < 0:
        raise ValueError("c1 must be non-negative")
    space = Product([SPD(d), SPD(d)])

    def payoff(x: Point, y: Point) -> float:
        u, v = _logdet(x), _logdet(y)
        return c1 * u * u + c2 * u * v - c1 * v * v

    def grad_x(x: Point, y: Point) -> TangentVector:
        u, v = _logdet(x), _logdet(y)
        return TangentVector(x, (2.0 * c1 * u + c2 * v) * x.coords)

    def grad_y(x: Point, y: Point) -> TangentVector:
        u, v = _logdet(x), _logdet(y)
        return TangentVector(y, (c2 * u - 2.0 * c1 * v) * y.coords)

    def residual(z: Point) -> np.ndarray:
        x, y = space.split(z)
        return np.array([_logdet(x), _logdet(y)])

    # mu is bookkeeping for step-size configuration only: strong convexity in
    # the logdet coordinate scaled by the d-fold reduction factor. Linear-rate
    # behavior is always measured empirically, not against this value.
    return ZeroSumGame(
        space=space,
        payoff=payoff,
        grad_x=grad_x,
        grad_y=grad_y,
        mu=2.0 * c1 * d,
        smoothness_L=math.sqrt(4.0 * c1 * c1 + c2 * c2) * d,
        tag="quad_logdet",
        params={"d": d, "c1": c1, "c2": c2},
        residual_fn=residual,
    )


def quad_duality_gap(game: ZeroSumGame, x_bar: Point, y_bar: Point) -> float:
    """Exact duality gap of the quadratic logdet game at an averaged pair.

    Reduces to the scalar quadratic in (u, v) = (logdet x, logdet y): the
    inner best responses are interior for c1 > 0 and yield
    gap = (4 c1^2 + c2^2) / (4 c1) * (u^2 + v^2) >= 0.
    """
    if game.tag != "quad_logdet":
        raise ValueError("duality gap is defined for quad_logdet games only")
    c1, c2 = game.params["c1"], game.params["c2"]
    if c1 <= 0:
        raise ValueError("gap unsupported for c1 = 0: best responses are unbounded")
    u, v = _logdet(x_bar), _logdet(y_bar)
    return (4.0 * c1 * c1 + c2 * c2) / (4.0 * c1) * (u * u + v * v)


def robust_pca_game(data: Sequence[np.ndarray], alpha: float) -> ZeroSumGame:
    """Robust geometry-aware PCA as a min-max game on SPD x sphere.

    payoff(A, X) = X^T A X + (alpha/n) sum_i dist(A, A_i). The distance term
    is nondifferentiable at A = A_i; that summand contributes the zero
    subgradient. "At A = A_i" means dist(A, A_i) at most the anchor's
    tolerance _ANCHOR_TOL_FACTOR * d * cond(A_i) * eps, because the computed
    distance of a matrix to itself is rounding noise, not 0. The payoff is not
    geodesically concave in X, so this family is a stress benchmark rather
    than a guaranteed-convergence target.

    The anchors are stacked once, so each payoff or gradient evaluation gets
    all n anchor distances (and, for the gradient, all n logs) from one
    batched evaluation: SPD.dist_many / SPD.log_many. Sums run in anchor
    order, as n single calls would.
    """
    if len(data) == 0:
        raise ValueError("data must be nonempty")
    mats = [np.asarray(A, dtype=float) for A in data]
    d = mats[0].shape[0]
    spd = SPD(d)
    sphere = Sphere(d - 1)
    space = Product([spd, sphere])
    n = len(mats)
    anchors = np.stack([spd.project(A).coords for A in mats])
    eigs = [np.linalg.eigvalsh(A) for A in mats]
    eps = np.finfo(float).eps
    anchor_tols = np.array([_ANCHOR_TOL_FACTOR * d * (w[-1] / w[0]) * eps for w in eigs])

    def payoff(a: Point, x: Point) -> float:
        quad = float(x.coords @ a.coords @ x.coords)
        spread = sum(spd.dist_many(a, anchors).tolist())
        return quad + alpha / n * spread

    def grad_min_player(a: Point, x: Point) -> TangentVector:
        A = a.coords
        xx = np.outer(x.coords, x.coords)
        g = A @ xx @ A
        dists = spd.dist_many(a, anchors)
        far = dists > anchor_tols
        logs = spd.log_many(a, anchors)
        for term in (alpha / n) * logs[far] / dists[far, None, None]:
            g = g - term
        return spd.to_tangent(a, g)

    def grad_max_player(a: Point, x: Point) -> TangentVector:
        return sphere.to_tangent(x, 2.0 * a.coords @ x.coords)

    lam_max = max(float(w[-1]) for w in eigs)
    return ZeroSumGame(
        space=space,
        payoff=payoff,
        grad_x=grad_min_player,
        grad_y=grad_max_player,
        mu=0.0,
        smoothness_L=2.0 * lam_max + alpha,
        tag="robust_pca",
        params={"d": d, "n": n, "alpha": alpha},
    )


def make_spd_dataset(
    d: int, n: int, eig_range: tuple[float, float], seed: int
) -> list[np.ndarray]:
    """Synthetic SPD matrices with eigenvalues drawn uniformly from eig_range."""
    spd = SPD(d, eig_range=eig_range)
    return [spd.random_point(seed + i).coords for i in range(n)]
