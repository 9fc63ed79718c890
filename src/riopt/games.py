"""Zero-sum games on product manifolds and their first-order solvers.

The optimistic descent-ascent solver keeps a transported gradient memory and
a running geodesic average of the trajectory. Baselines: simultaneous
gradient descent-ascent and the corrected extragradient method. Two payoff
families ship with the package: the quadratic logdet game on SPD x SPD and
the robust geometry-aware PCA game on SPD x sphere.

Each step function (``rogda_step``, ``rgda_step``, ``rceg_step``) advances
one solver. ``play_round_rows`` advances several together, one round with
the same arithmetic (the benchmark runner, ``bench._run_game``, uses it):

1. Every solver commits its point z_t. One ``field``, ``value`` and
   ``norm`` call on their stack gives the field, payoff and field norm at
   every z_t. On SPD the norm whitens by each z_t's Cholesky factor, which
   its memo then keeps for the round's first step.
2. R-OGDA transports its previous field to z_t: one ``transport`` call
   at its single points with the field as a one-row stack, which on
   SPD x SPD covers both factors (see ``Product``) and folds each point
   once, into its memo. One ``exp`` call on the stack takes every solver's
   first step; RCEG's is its midpoint w.
3. Stage 2 stacks R-OGDA's running average and RCEG's correction: the field
   at w, one ``log`` call and one ``exp`` call on the stack.

Row i of each stacked call agrees with the single call at row i: bitwise on
SPD, whose stacks run its single-point formula, and to rounding on the
sphere factor of robust PCA, whose stacks run numpy kernels. When a stage
fails, the runner replays the round through ``play_round_rows`` once per
solver, in the configured order, so the error raised is the one the first
failing solver meets alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import GeometryError, Manifold, Point, TangentVector, memo_entry
from .manifolds import SPD, Product, Sphere, _sym

PayoffFn = Callable[[Point, Point], float]
PartialGradFn = Callable[[Point, Point], TangentVector]

# The computed dist(A, A) is rounding noise, not 0, and the noise grows like
# d * cond(A) * eps: through A's Cholesky whitening (SPD) measured at most
# 0.6 * d * cond * eps for d <= 30 and cond <= 1e6 (0.87 through the
# symmetric square root, on the same sample). A fixed cutoff such as 1e-10
# is already beaten at cond 1e6, so each anchor's own bound, times this
# safety factor, decides "at the anchor".
# For d = 10 and eigenvalues in [0.2, 4.5] the cutoff is at most 3.2e-12, far
# below any solver step.
_ANCHOR_TOL_FACTOR = 64.0


@dataclass(frozen=True)
class ZeroSumGame:
    """min over the first factor, max over the second, of a smooth payoff.

    ``grad_x`` / ``grad_y`` return Riemannian partial gradients based at the
    respective factor points. The joint field F(z) = [grad_x, -grad_y] drives
    all solvers; a zero of F is a candidate Nash equilibrium. ``payoff``,
    ``grad_x`` and ``grad_y`` also take stacked factor points, (n, ...) rows,
    so ``value`` and ``field`` take an (n, ambient) stack of joint points in
    one call: row i is bitwise their single call at row i. A stack made by
    ``space.stack`` shares its rows' factorizations both ways
    (``memo_entry``). ``duality_gap_fn``
    is the game's exact duality gap at an averaged pair, where it has one
    (``quad_duality_gap``).
    """

    space: Product
    payoff: PayoffFn
    grad_x: PartialGradFn
    grad_y: PartialGradFn
    mu: float = 0.0
    smoothness_L: float = float("nan")
    residual_fn: Optional[Callable[[Point], np.ndarray]] = None
    duality_gap_fn: Optional[Callable[[Point, Point], float]] = None

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


def play_round_rows(game: ZeroSumGame, etas: dict, points: dict, avg: GameState):
    """One round of the solvers ``etas`` (name -> step size), each stage one
    call on the stack of the solvers that take part in it (see the module
    docstring). ``points`` maps each solver to its z_t and ``avg`` is
    R-OGDA's state. Returns the new points and R-OGDA state, and per solver
    the payoff and the field's norm at its z_t. The results agree with the
    step functions run solver by solver, bitwise on SPD."""
    space, names = game.space, list(etas)
    commits = [points[name] for name in names]
    Z = space.stack(commits)
    F = game.field(Z)
    vals, norms = game.value(Z).tolist(), space.norm(Z, F).tolist()

    steps = np.empty_like(F.coords)
    for i, (name, eta) in enumerate(etas.items()):
        g = F.coords[i]
        if name != "rogda":
            steps[i] = -eta * g
            continue
        if avg.round == 0:
            prev = g
        else:
            G = TangentVector(avg.z_prev, avg.grad_prev.coords[None])
            prev = space.transport(avg.z_prev, avg.z_cur, G).coords[0]
        steps[i] = -2.0 * eta * g + eta * prev
    ahead = space.exp(Z, TangentVector(Z, steps)).coords
    new = {name: Point(c, space.manifold_id) for name, c in zip(names, ahead)}

    # stage 2, rows [R-OGDA, RCEG] of those present: the running average
    # folds in R-OGDA's new point; RCEG corrects from its midpoint w
    bases, targets = [], []
    if "rogda" in etas:
        bases.append(avg.z_bar)
        targets.append(new["rogda"])
    if "rceg" in etas:
        Fw = game.field(new["rceg"])
        bases.append(new["rceg"])
        targets.append(points["rceg"])
    if bases:
        B = space.stack(bases)
        step = space.log(B, Point(np.stack([y.coords for y in targets]), B.manifold_id)).coords
        if "rogda" in etas:
            step[0] = (1.0 / (avg.round + 2.0)) * step[0]
        if "rceg" in etas:
            step[-1] = -etas["rceg"] * Fw.coords + step[-1]
        after = space.exp(B, TangentVector(B, step)).coords
        if "rceg" in etas:
            new["rceg"] = Point(after[-1], space.manifold_id)
    if "rogda" in etas:
        i = names.index("rogda")
        avg = GameState(
            z_prev=commits[i],
            z_cur=new["rogda"],
            grad_prev=TangentVector(commits[i], F.coords[i]),
            z_bar=Point(after[0], space.manifold_id),
            round=avg.round + 1,
        )
    return new, avg, vals, norms


def ne_diagnostics(
    game: ZeroSumGame, state: GameState, prev: Optional[NEDiagnostics] = None
) -> NEDiagnostics:
    """Gradient-norm diagnostics at the current iterate; best value is monotone."""
    g = game.field(state.z_cur)
    gn = game.space.norm(state.z_cur, g)
    best = gn if prev is None else min(prev.best_grad_norm, gn)
    return NEDiagnostics(grad_norm=gn, best_grad_norm=best, ne_residual=game.residual(state.z_cur))


def _slogdet(p: Point) -> tuple:
    sign, val = np.linalg.slogdet(p.coords)
    if (sign <= 0).any():
        raise GeometryError("matrix must be positive definite")
    return (val,)


def _logdets(x: Point, y: Point) -> tuple:
    """log det of the SPD points x and y, two single points (floats) or two
    stacks of one length (arrays over the rows), each computed once and
    kept in its point's memo. What neither memo holds yet comes from one
    ``slogdet`` call on their concatenated rows, which gives each matrix a
    single call's bits."""
    if "logdet" not in x.memo and "logdet" not in y.memo:
        xs, ys = (p.coords.reshape((-1,) + p.coords.shape[-2:]) for p in (x, y))
        xy = Point(np.concatenate((xs, ys)), x.manifold_id)
        rows = [p.memo.get("rows", [p] if p.coords.ndim == 2 else None) for p in (x, y)]
        if None not in rows:
            xy.memo["rows"] = rows[0] + rows[1]
        (val,) = memo_entry(xy, "logdet", _slogdet)
        for p, v in ((x, val[: len(xs)]), (y, val[len(xs) :])):
            p.memo["logdet"] = (v.reshape(p.coords.shape[:-2]),)
    vals = (memo_entry(p, "logdet", _slogdet)[0] for p in (x, y))
    return tuple(v if v.ndim else float(v) for v in vals)


def _scaled(c, m: np.ndarray) -> np.ndarray:
    """c * m for a scalar c, or row i of m times c[i] for an array c."""
    return np.asarray(c)[..., None, None] * m


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
        u, v = _logdets(x, y)
        return c1 * u * u + c2 * u * v - c1 * v * v

    def grad_x(x: Point, y: Point) -> TangentVector:
        u, v = _logdets(x, y)
        return TangentVector(x, _scaled(2.0 * c1 * u + c2 * v, x.coords))

    def grad_y(x: Point, y: Point) -> TangentVector:
        u, v = _logdets(x, y)
        return TangentVector(y, _scaled(c2 * u - 2.0 * c1 * v, y.coords))

    def residual(z: Point) -> np.ndarray:
        x, y = space.split(z)
        return np.array(_logdets(x, y))

    def duality_gap(x_bar: Point, y_bar: Point) -> float:
        if c1 <= 0:
            raise ValueError("gap unsupported for c1 = 0: best responses are unbounded")
        u, v = _logdets(x_bar, y_bar)
        return (4.0 * c1 * c1 + c2 * c2) / (4.0 * c1) * (u * u + v * v)

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
        residual_fn=residual,
        duality_gap_fn=duality_gap,
    )


def quad_duality_gap(game: ZeroSumGame, x_bar: Point, y_bar: Point) -> float:
    """Exact duality gap of the quadratic logdet game at an averaged pair.

    Reduces to the scalar quadratic in (u, v) = (logdet x, logdet y): the
    inner best responses are interior for c1 > 0 and yield
    gap = (4 c1^2 + c2^2) / (4 c1) * (u^2 + v^2) >= 0.
    """
    if game.duality_gap_fn is None:
        raise ValueError("duality gap is defined for quad_logdet games only")
    return game.duality_gap_fn(x_bar, y_bar)


def _anchor_tols(mats: Sequence[np.ndarray]) -> tuple[np.ndarray, float]:
    """Each anchor's "at the anchor" tolerance and the largest eigenvalue of
    all anchors, from one stacked eigvalsh (each matrix gets a single call's bits)."""
    w = np.linalg.eigvalsh(np.stack(mats))
    tols = _ANCHOR_TOL_FACTOR * mats[0].shape[0] * (w[:, -1] / w[:, 0]) * np.finfo(float).eps
    return tols, float(w[:, -1].max())


def robust_pca_game(data: Sequence[np.ndarray], alpha: float) -> ZeroSumGame:
    """Robust geometry-aware PCA as a min-max game on SPD x sphere.

    payoff(A, X) = X^T A X + (alpha/n) sum_i dist(A, A_i). The distance term
    is nondifferentiable at A = A_i; that summand contributes the zero
    subgradient. "At A = A_i" means dist(A, A_i) at most the anchor's
    tolerance _ANCHOR_TOL_FACTOR * d * cond(A_i) * eps, because the computed
    distance of a matrix to itself is rounding noise, not 0. The payoff is not
    geodesically concave in X, so this family is a stress benchmark rather
    than a guaranteed-convergence target.

    The anchors are stacked once, so all n anchor logs and distances of a
    point come from one ``SPD._log_dist`` call (one stacked ``eigh``) with
    the anchors as the cloud of every base of a stacked point. Both are kept
    in one entry of the point's memo, which the payoff and the gradient at
    that point share. Sums run in anchor order, as n single calls would
    (a cumsum: ``sum`` of floats is compensated from Python 3.12 on).
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
    anchor_tols, lam_max = _anchor_tols(mats)

    def over_anchors(a: Point) -> Point:
        """The anchors as the cloud of a, broadcast over its rows."""
        return Point(np.broadcast_to(anchors, a.coords.shape[:-2] + anchors.shape), a.manifold_id)

    # the memo key of the anchor logs and distances: this game's own object
    anchors_key = object()

    def anchor_log_dists(a: Point) -> tuple[np.ndarray, np.ndarray]:
        return memo_entry(a, anchors_key, lambda p: spd._log_dist(p, over_anchors(p)))

    def payoff(a: Point, x: Point):
        xc = x.coords
        quad = (xc[..., None, :] @ a.coords @ xc[..., :, None])[..., 0, 0]
        dists = anchor_log_dists(a)[1]
        spread = np.cumsum(dists, axis=-1)[..., -1].reshape(quad.shape)
        val = quad + alpha / n * spread
        return val if val.ndim else float(val)

    def grad_min_player(a: Point, x: Point) -> TangentVector:
        A = a.coords
        xx = x.coords[..., :, None] * x.coords[..., None, :]
        g = A @ xx @ A
        logs, dists = anchor_log_dists(a)
        far = dists > anchor_tols
        terms = np.zeros_like(logs)
        terms[far] = (alpha / n) * logs[far] / dists[far, None, None]
        # in anchor order; an anchor at a contributes 0, and g - 0 is g
        for i in range(n):
            g = g - terms[..., i, :, :]
        return TangentVector(a, _sym(g))

    def grad_max_player(a: Point, x: Point) -> TangentVector:
        c = (2.0 * a.coords @ x.coords[..., None])[..., 0]
        return sphere.to_tangent(x, c)

    return ZeroSumGame(
        space=space,
        payoff=payoff,
        grad_x=grad_min_player,
        grad_y=grad_max_player,
        mu=0.0,
        smoothness_L=2.0 * lam_max + alpha,
    )


def make_spd_dataset(
    d: int, n: int, eig_range: tuple[float, float], seed: int
) -> list[np.ndarray]:
    """Synthetic SPD matrices with eigenvalues drawn uniformly from eig_range."""
    spd = SPD(d, eig_range=eig_range)
    return [spd.random_point(seed + i).coords for i in range(n)]
