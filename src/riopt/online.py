"""Online learners on Riemannian manifolds and their regret accounting.

Contains the optimistic gradient learner (transported-memory form), the
corrected variant that replaces parallel transport by a base-point change,
the plain online gradient descent baseline, and the adaptive meta-expert
learner that hedges over a geometric grid of step sizes and combines expert
points through weighted Frechet means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import (
    GeometryError,
    Manifold,
    Point,
    TangentVector,
    weighted_frechet_mean,
)

GradFn = Callable[[Point], TangentVector]


@dataclass(frozen=True)
class OptimisticState:
    """Memory of the optimistic learner: last two points and last gradient.

    ``rounds`` counts completed updates; on the very first update the missing
    previous gradient is taken equal to the current one, which makes the first
    move a plain gradient step of length eta.
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


@dataclass(frozen=True)
class RegretLedger:
    """Cumulative losses and regularity measures of one online run."""

    cum_alg_loss: float = 0.0
    cum_comparator_loss: float = 0.0
    path_length: float = 0.0
    grad_variation: float = 0.0
    round: int = 0

    @property
    def regret(self) -> float:
        return self.cum_alg_loss - self.cum_comparator_loss


def roogd_init(manifold: Manifold, x0: Point, eta: float) -> OptimisticState:
    """Fresh optimistic learner state anchored at x0."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    return OptimisticState(
        x_prev=x0, x_cur=x0, grad_prev=manifold.zero_tangent(x0), step_size=eta, rounds=0
    )


def roogd_step(
    manifold: Manifold, state: OptimisticState, grad_cur: TangentVector
) -> OptimisticState:
    """One optimistic update: exp_x(-2 eta g_t + eta transported g_{t-1})."""
    manifold._require_base(state.x_cur, grad_cur)
    manifold._require_finite(grad_cur)
    eta = state.step_size
    if state.rounds == 0:
        prev_at_cur = grad_cur
    else:
        prev_at_cur = manifold.transport(state.x_prev, state.x_cur, state.grad_prev)
    step = -2.0 * eta * grad_cur + eta * prev_at_cur
    x_next = manifold.exp(state.x_cur, step)
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


@dataclass(frozen=True)
class AoogdDiagnostics:
    x_bar: Point
    optimism: np.ndarray
    surrogate_losses: np.ndarray
    g_play: TangentVector


def _hedge_weights(beta: float, scores: np.ndarray) -> np.ndarray:
    z = -beta * scores
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def _linear_scores(
    manifold: Manifold, x: Point, g: TangentVector, targets: np.ndarray
) -> np.ndarray:
    """<g, log_x(p_i)>_x for every stacked point p_i, logs from one log_many call."""
    logs = manifold.log_many(x, targets)
    return np.array([manifold.inner(x, g, TangentVector(x, v)) for v in logs])


def aoogd_round(
    manifold: Manifold,
    experts: Sequence[OptimisticState],
    weights: MetaWeights,
    beta: float,
    grad_fn: GradFn,
    prev_grad_fn: Optional[GradFn] = None,
) -> tuple[Point, list[OptimisticState], MetaWeights, AoogdDiagnostics]:
    """One meta-expert round.

    Combines expert points by a weighted Frechet mean under last round's
    weights, forms optimistic surrogates from the previous loss evaluated at
    that combined point (zero on the first round, when no previous loss
    exists), re-weights by hedge over cumulative surrogates plus optimism,
    plays the mean under the new weights, scores every expert against the
    revealed gradient, and advances each expert with its own step size.

    Optimism and surrogate scores each take their logs from one ``log_many``
    call; ``diag.g_play`` is the gradient at the played point.
    """
    n = len(experts)
    if weights.w.shape != (n,):
        raise ValueError("weights length must match the number of experts")
    xs = [s.x_cur for s in experts]
    stacked = np.stack([x.coords for x in xs])

    x_bar = weighted_frechet_mean(manifold, xs, weights.w)
    if prev_grad_fn is None:
        optimism = np.zeros(n)
    else:
        optimism = _linear_scores(manifold, x_bar, prev_grad_fn(x_bar), stacked)

    w_new = _hedge_weights(beta, weights.cumulative_surrogate + optimism)
    x_play = weighted_frechet_mean(manifold, xs, w_new)

    g_play = grad_fn(x_play)
    surrogate = _linear_scores(manifold, x_play, g_play, stacked)
    meta = MetaWeights(w_new, weights.cumulative_surrogate + surrogate)

    advanced = [roogd_step(manifold, s, grad_fn(s.x_cur)) for s in experts]
    diag = AoogdDiagnostics(
        x_bar=x_bar, optimism=optimism, surrogate_losses=surrogate, g_play=g_play
    )
    return x_play, advanced, meta, diag


def regret_update(
    ledger: RegretLedger,
    f_val_alg: float,
    f_val_comp: float,
    u_t: Point,
    u_prev: Optional[Point],
    grad_samples: Sequence[tuple[TangentVector, TangentVector]],
    manifold: Manifold,
) -> RegretLedger:
    """Fold one round into the ledger.

    ``grad_samples`` pairs the current and previous losses' gradients taken at
    identical probe points; the gradient-variation increment is the largest
    squared norm of their difference, a deterministic lower bound on the
    supremum over the feasible set.
    """
    hop = manifold.dist(u_t, u_prev) if u_prev is not None else 0.0
    vt = 0.0
    for g_now, g_before in grad_samples:
        diff = g_now - g_before
        vt = max(vt, manifold.norm(g_now.base, diff) ** 2)
    return RegretLedger(
        cum_alg_loss=ledger.cum_alg_loss + f_val_alg,
        cum_comparator_loss=ledger.cum_comparator_loss + f_val_comp,
        path_length=ledger.path_length + hop,
        grad_variation=ledger.grad_variation + vt,
        round=ledger.round + 1,
    )
