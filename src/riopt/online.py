"""Online learners on Riemannian manifolds.

Contains the optimistic gradient learner (transported-memory form), the
corrected variant that replaces parallel transport by a base-point change,
the plain online gradient descent baseline, and the adaptive meta-expert
learner that hedges over a geometric grid of step sizes and combines expert
points through weighted Frechet means. The regret accounting (losses,
comparator path length, gradient variation) is the frechet runner's, in
``bench``.

Round protocol: a learner commits its point x_t before the round's loss is
revealed, then advances from the loss's gradients. The single learners'
steps take the gradient at x_t. The meta-expert round is split at the
reveal: ``aoogd_commit`` plays x_t from the previous loss alone, and
``aoogd_update`` takes the gradients at its experts' points and at x_t, so
one gradient call on a stack of rows can serve every learner of a round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import (
    KARCHER_MAX_ITER,
    KARCHER_TOL,
    Manifold,
    Point,
    TangentVector,
    _karcher,
    weighted_frechet_mean,  # noqa: F401 - kept importable from riopt.online
)

GradFn = Callable[[Point], TangentVector]


@dataclass(frozen=True)
class OptimisticState:
    """Memory of the optimistic learner: last two points and last gradient.

    ``rounds`` counts completed updates; on the very first update the missing
    previous gradient is taken equal to the current one, which makes the first
    move a plain gradient step of length eta.

    A stacked state (``roogd_init_rows``) holds a pool of learners that
    advance together through ``roogd_step``: the three fields stack a row
    per learner and ``step_size`` is the column of their step sizes.
    """

    x_prev: Point
    x_cur: Point
    grad_prev: TangentVector
    step_size: float
    rounds: int = 0


@dataclass(frozen=True)
class CorrectedState:
    """State of the corrected variant: current point plus the hat point."""

    x_cur: Point
    x_hat: Point
    step_size: float
    rounds: int = 0


@dataclass(frozen=True)
class StepSizePool:
    """Geometric grid of expert step sizes, ratio 2 between neighbors."""

    etas: tuple[float, ...]

    def __post_init__(self):
        if len(self.etas) == 0 or any(e <= 0 for e in self.etas):
            raise ValueError("step sizes must be positive")
        for a, b in zip(self.etas, self.etas[1:]):
            if not math.isclose(b, 2.0 * a, rel_tol=1e-12):
                raise ValueError("pool must double between consecutive entries")

    @property
    def N(self) -> int:
        return len(self.etas)


@dataclass(frozen=True)
class MetaWeights:
    """Hedge state: probability vector plus running surrogate-loss sums."""

    w: np.ndarray
    cumulative_surrogate: np.ndarray

    def __post_init__(self):
        if np.any(self.w < 0) or not math.isclose(float(self.w.sum()), 1.0, abs_tol=1e-9):
            raise ValueError("weights must be a probability vector")

    @classmethod
    def uniform(cls, n: int) -> "MetaWeights":
        return cls(np.full(n, 1.0 / n), np.zeros(n))


def roogd_init(manifold: Manifold, x0: Point, eta: float) -> OptimisticState:
    """Fresh optimistic learner state anchored at x0."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    return OptimisticState(
        x_prev=x0, x_cur=x0, grad_prev=manifold.zero_tangent(x0), step_size=eta, rounds=0
    )


def roogd_init_rows(manifold: Manifold, x0: Point, etas: Sequence[float]) -> OptimisticState:
    """Fresh optimistic learners anchored at x0, one per step size, as one
    stacked state for ``roogd_step``."""
    column = np.array(etas, dtype=float).reshape(-1, 1)
    if column.size == 0 or np.any(column <= 0):
        raise ValueError("step sizes must be positive")
    x = Point(np.repeat(x0.coords[None], len(column), axis=0), manifold.manifold_id)
    return OptimisticState(
        x_prev=x, x_cur=x, grad_prev=manifold.zero_tangent(x), step_size=column, rounds=0
    )


def roogd_step(
    manifold: Manifold, state: OptimisticState, grad_cur: TangentVector
) -> OptimisticState:
    """One optimistic update: exp_x(-2 eta g_t + eta transported g_{t-1}).

    On a stacked state every learner steps at once, with its own step size
    from the column; row i agrees with ``roogd_step`` of learner i alone to
    rounding.
    """
    manifold._require_base(state.x_cur, grad_cur)
    manifold._require_finite(grad_cur)
    eta = state.step_size
    if state.rounds == 0:
        prev_at_cur = grad_cur
    else:
        prev_at_cur = manifold.transport(state.x_prev, state.x_cur, state.grad_prev)
    step = (-2.0 * eta) * grad_cur.coords + eta * prev_at_cur.coords
    x_next = manifold.exp(state.x_cur, TangentVector(state.x_cur, step))
    return OptimisticState(
        x_prev=state.x_cur,
        x_cur=x_next,
        grad_prev=grad_cur,
        step_size=eta,
        rounds=state.rounds + 1,
    )


def roogd_corrected_init(manifold: Manifold, x0: Point, eta: float) -> CorrectedState:
    if eta <= 0:
        raise ValueError("eta must be positive")
    return CorrectedState(x_cur=x0, x_hat=x0, step_size=eta, rounds=0)


def roogd_corrected_step(
    manifold: Manifold, state: CorrectedState, grad_cur: TangentVector
) -> CorrectedState:
    """Corrected-variant update; memory rides in the hat point.

    x_{t+1}   = exp_{x_t}(-2 eta g_t + log_{x_t} hat_x_t)
    hat_{t+1} = exp_{x_t}(- eta g_t + log_{x_t} hat_x_t)

    On the first update log_{x_t}(hat_x_t) is taken as eta g_t, the same
    missing-memory convention as the transported learner; in flat space the
    two then coincide for the whole run.
    """
    manifold._require_base(state.x_cur, grad_cur)
    manifold._require_finite(grad_cur)
    eta = state.step_size
    if state.rounds == 0:
        hat_dir = eta * grad_cur
    else:
        hat_dir = manifold.log(state.x_cur, state.x_hat)
    x_next = manifold.exp(state.x_cur, -2.0 * eta * grad_cur + hat_dir)
    hat_next = manifold.exp(state.x_cur, -eta * grad_cur + hat_dir)
    return CorrectedState(
        x_cur=x_next, x_hat=hat_next, step_size=eta, rounds=state.rounds + 1
    )


def rogd_step(manifold: Manifold, x: Point, grad: TangentVector, eta: float) -> Point:
    """Plain online gradient descent step exp_x(-eta g)."""
    manifold._require_base(x, grad)
    return manifold.exp(x, -eta * grad)


def aoogd_configure(
    T: int,
    D0: float,
    G: float,
    L: float,
    sigma0: float,
    zeta0: float,
    V_T_bound: float,
) -> tuple[StepSizePool, float]:
    """Expert pool and hedge rate for the adaptive learner.

    eta_i = 2^(i-1) sqrt(sigma0 D0^2 / (16 zeta0^2 G^2 T)), i = 1..N with
    N = ceil(log2(sigma0 G^2 T / (D0^2 L^2)) / 2) + 1, and
    beta = min(1/sqrt(12 D0^4 L^2 + D0^2 G^2 zeta0^2),
               sqrt((2 + ln N) / (3 D0^2 (V_T + G^2)))),
    with the gradient variation replaced by the supplied bound.
    """
    if min(T, D0, G, L, sigma0, zeta0) <= 0 or V_T_bound <= 0:
        raise ValueError("all configuration inputs must be positive")
    eta1 = math.sqrt(sigma0 * D0**2 / (16.0 * zeta0**2 * G**2 * T))
    N = max(1, math.ceil(0.5 * math.log2(sigma0 * G**2 * T / (D0**2 * L**2))) + 1)
    pool = StepSizePool(tuple(eta1 * 2.0**i for i in range(N)))
    beta = min(
        1.0 / math.sqrt(12.0 * D0**4 * L**2 + D0**2 * G**2 * zeta0**2),
        math.sqrt((2.0 + math.log(N)) / (3.0 * D0**2 * (V_T_bound + G**2))),
    )
    return pool, beta


def _hedge_weights(beta: float, scores: np.ndarray) -> np.ndarray:
    z = -beta * scores
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def _require_pool(experts: OptimisticState, weights: MetaWeights) -> int:
    n = len(experts.x_cur.coords)
    if weights.w.shape != (n,):
        raise ValueError("weights length must match the number of experts")
    return n


def _pool_mean(manifold: Manifold, experts: OptimisticState, w: np.ndarray) -> TangentVector:
    """The logs log_m(x_i) of every expert at m, the experts' mean under
    weights w, from the last Karcher step (``.base`` is m). m is the mean of
    ``weighted_frechet_mean``, which normalises w the same way and starts at
    the heaviest expert; an expert of weight 0 stays in the cloud (adding
    0 log) and so keeps its log."""
    w = w / w.sum()
    cloud = experts.x_cur.coords
    x0 = Point(cloud[int(np.argmax(w))], manifold.manifold_id)
    return _karcher(manifold, x0, cloud, w, KARCHER_TOL, KARCHER_MAX_ITER)[1]


def aoogd_commit(
    manifold: Manifold,
    experts: OptimisticState,
    weights: MetaWeights,
    beta: float,
    prev_grad_fn: Optional[GradFn] = None,
) -> tuple[TangentVector, MetaWeights]:
    """The first half of a meta-expert round, before the loss is revealed.

    Combines the expert points by a weighted Frechet mean x_bar under last
    round's weights, scores the experts by the optimism <g, log_x_bar(x_i)>
    with g the previous loss's gradient at x_bar (``prev_grad_fn``, which
    takes the single point x_bar; zero on the first round, when no previous
    loss exists), re-weights by hedge over cumulative surrogates plus
    optimism, and plays x_t, the mean under the new weights. Returns the
    experts' logs at x_t (``logs.base`` is x_t) with the new weights over
    the unchanged cumulative surrogates. Both means are ``_pool_mean``s, and
    each score reads the logs of its mean's last Karcher step.
    ``experts`` is a state of ``roogd_init_rows``.
    """
    n = _require_pool(experts, weights)
    logs_bar = _pool_mean(manifold, experts, weights.w)
    if prev_grad_fn is None:
        optimism = np.zeros(n)
    else:
        optimism = manifold.inner(logs_bar.base, prev_grad_fn(logs_bar.base), logs_bar)
    w_new = _hedge_weights(beta, weights.cumulative_surrogate + optimism)
    return _pool_mean(manifold, experts, w_new), MetaWeights(w_new, weights.cumulative_surrogate)


def aoogd_update(
    manifold: Manifold,
    experts: OptimisticState,
    weights: MetaWeights,
    logs_play: TangentVector,
    grads: np.ndarray,
) -> tuple[OptimisticState, MetaWeights]:
    """The second half of a meta-expert round, after the loss is revealed.

    ``weights`` and ``logs_play`` (the experts' logs at x_play) are what
    ``aoogd_commit`` returned; ``grads`` holds the revealed loss's gradients
    at the experts' rows and, last, at x_play. Scores every expert by the
    surrogate <g_play, log_x_play(x_i)>, adds it to the cumulative
    surrogates, and advances the experts with their own step sizes as one
    ``roogd_step`` on their stacked state.
    """
    n = _require_pool(experts, weights)
    if len(grads) != n + 1:
        raise ValueError("grads must hold one row per expert and one at the played point")
    x_play = logs_play.base
    surrogate = manifold.inner(x_play, TangentVector(x_play, grads[-1]), logs_play)
    advanced = roogd_step(manifold, experts, TangentVector(experts.x_cur, grads[:-1]))
    return advanced, MetaWeights(weights.w, weights.cumulative_surrogate + surrogate)
