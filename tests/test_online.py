import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from riopt import (
    Euclidean,
    Hyperbolic,
    MetaWeights,
    StepSizePool,
    aoogd_commit,
    aoogd_configure,
    aoogd_update,
    rogd_step,
    roogd_corrected_init,
    roogd_corrected_step,
    roogd_init,
    roogd_init_rows,
    roogd_step,
)
from riopt.geometry import (
    GeometryError,
    Point,
    TangentVector,
    weighted_frechet_mean,
    zeta_constant,
)
from riopt.online import OptimisticState, _hedge_weights
from riopt.streams import FrechetMeanLoss, gen_frechet_stream

from agreement import assert_agree


def grad_at(state_point, values):
    return TangentVector(state_point, np.asarray(values, dtype=float))


# ----------------------------------------------------------------- R-OOGD
def test_roogd_init_contract():
    m = Euclidean(2)
    x0 = m.project([1.0, -1.0])
    s = roogd_init(m, x0, 0.5)
    assert s.x_cur is x0 and s.grad_prev.base is x0
    assert m.norm(x0, s.grad_prev) == 0.0
    with pytest.raises(ValueError):
        roogd_init(m, x0, 0.0)


def test_roogd_constant_gradient_hand_example():
    m = Euclidean(1)
    s = roogd_init(m, m.project([0.0]), 0.1)
    for expected in (-0.1, -0.2, -0.3):
        s = roogd_step(m, s, grad_at(s.x_cur, [1.0]))
        assert s.x_cur.coords[0] == pytest.approx(expected, abs=1e-15)


def test_roogd_zero_gradient_fixed_point(rng):
    m = Hyperbolic(2)
    x0 = m.random_point(rng)
    s = roogd_init(m, x0, 0.3)
    for _ in range(5):
        s = roogd_step(m, s, m.zero_tangent(s.x_cur))
        assert m.dist(s.x_cur, x0) < 1e-12


def test_roogd_rejects_nonfinite():
    m = Euclidean(1)
    s = roogd_init(m, m.project([0.0]), 0.1)
    with pytest.raises(Exception):
        roogd_step(m, s, grad_at(s.x_cur, [np.inf]))


def test_roogd_euclidean_closed_form(rng):
    m = Euclidean(4)
    x0 = m.random_point(rng)
    eta = 0.05
    s = roogd_init(m, x0, eta)
    z = x0.coords.copy()
    g_prev = None
    for _ in range(100):
        g = rng.standard_normal(4)
        s = roogd_step(m, s, grad_at(s.x_cur, g))
        gp = g if g_prev is None else g_prev
        z = z - 2 * eta * g + eta * gp
        g_prev = g
        assert np.abs(s.x_cur.coords - z).max() < 1e-12


# ----------------------------------------------------------- corrected variant
def test_corrected_equals_transported_on_flat(rng):
    m = Euclidean(3)
    x0 = m.random_point(rng)
    a = roogd_init(m, x0, 0.07)
    b = roogd_corrected_init(m, x0, 0.07)
    for _ in range(40):
        g = rng.standard_normal(3)
        a = roogd_step(m, a, grad_at(a.x_cur, g))
        b = roogd_corrected_step(m, b, grad_at(b.x_cur, g))
        assert np.allclose(a.x_cur.coords, b.x_cur.coords, atol=1e-13)


def test_corrected_fixed_point():
    m = Euclidean(2)
    x0 = m.project([0.3, -0.4])
    s = roogd_corrected_init(m, x0, 0.1)
    s = roogd_corrected_step(m, s, m.zero_tangent(s.x_cur))
    assert np.allclose(s.x_cur.coords, x0.coords)
    assert np.allclose(s.x_hat.coords, x0.coords)


def _variant_gap(eta, steps=8):
    h = Hyperbolic(2)
    rng = np.random.default_rng(2)
    base = h.base_point()
    targets = np.stack(
        [h.random_point(rng, center=base, radius=1.5).coords for _ in range(3)]
    )
    loss = FrechetMeanLoss(h, targets)
    x0 = h.exp(base, h.random_tangent(base, np.random.default_rng(9), norm=1.0))
    a = roogd_init(h, x0, eta)
    b = roogd_corrected_init(h, x0, eta)
    for _ in range(steps):
        a = roogd_step(h, a, loss.grad(a.x_cur))
        b = roogd_corrected_step(h, b, loss.grad(b.x_cur))
    return h.dist(a.x_cur, b.x_cur)


def test_corrected_vs_transported_cubic_scale_on_curved():
    # identical through two steps, then the variants separate at a rate
    # bounded by eta^3 per step (curvature distortion of the hat memory)
    d1, d2 = _variant_gap(0.02), _variant_gap(0.01)
    assert 0 < d1 < 10 * 0.02**3
    assert d1 / d2 > 6.0


# ------------------------------------------------------------------- R-OGD
def test_rogd_examples(rng):
    m = Euclidean(2)
    x = m.project([1.0, 1.0])
    assert np.allclose(rogd_step(m, x, m.zero_tangent(x), 0.5).coords, x.coords)
    g = grad_at(x, [1.0, -2.0])
    assert np.allclose(rogd_step(m, x, g, 0.1).coords, [0.9, 1.2])


def test_rogd_descent_on_frechet_loss(rng):
    h = Hyperbolic(3)
    base = h.base_point()
    targets = np.stack([h.random_point(rng, center=base, radius=1.0).coords for _ in range(6)])
    loss = FrechetMeanLoss(h, targets)
    x = h.random_point(rng, center=base, radius=1.0)
    L = zeta_constant(-1.0, 3.0)
    x2 = rogd_step(h, x, loss.grad(x), 1.0 / L)
    assert loss.value(x2) <= loss.value(x) + 1e-12


# ------------------------------------------------------------------ configure
def test_aoogd_configure_theorem_values():
    pool, beta = aoogd_configure(T=1024, D0=1, G=1, L=1, sigma0=1, zeta0=1, V_T_bound=1)
    assert pool.etas[0] == pytest.approx(1.0 / 128.0, abs=1e-15)
    assert pool.N == 6
    for a, b in zip(pool.etas, pool.etas[1:]):
        assert b == pytest.approx(2 * a, rel=1e-12)
    assert beta <= 1.0 / math.sqrt(13.0) + 1e-12
    with pytest.raises(ValueError):
        aoogd_configure(T=0, D0=1, G=1, L=1, sigma0=1, zeta0=1, V_T_bound=1)


def test_step_size_pool_validation():
    with pytest.raises(ValueError):
        StepSizePool((0.1, 0.3))
    assert StepSizePool((0.1, 0.2, 0.4)).N == 3


# ------------------------------------------------------------------ meta round
def log_grad(h, target):
    """Gradient of d^2(., target) / 2 at a point, or at each row of a stack."""
    return lambda x: -1.0 * h.log(x, target)


def aoogd_round(manifold, experts, weights, beta, grad_fn, prev_grad_fn=None):
    """A whole meta-expert round: commit x_play, then update from ``grad_fn``
    at the stack of the experts' points and x_play, as the frechet runner
    does (one call)."""
    logs_play, weights = aoogd_commit(manifold, experts, weights, beta, prev_grad_fn)
    rows = Point(np.vstack([experts.x_cur.coords, logs_play.base.coords]), manifold.manifold_id)
    experts, weights = aoogd_update(manifold, experts, weights, logs_play, grad_fn(rows).coords)
    return logs_play.base, experts, weights


def test_aoogd_round_single_expert(rng):
    h = Hyperbolic(2)
    x0 = h.random_point(rng)
    experts = roogd_init_rows(h, x0, [0.1])
    weights = MetaWeights.uniform(1)
    target = h.random_point(rng, center=x0, radius=1.0)
    x_play, experts2, weights2 = aoogd_round(h, experts, weights, 0.5, log_grad(h, target))
    assert h.dist(x_play, x0) < 1e-12
    assert weights2.w[0] == pytest.approx(1.0)
    assert experts2.rounds == 1


def test_aoogd_round_coincident_experts_and_symmetry(rng):
    h = Hyperbolic(2)
    x0 = h.random_point(rng)
    experts = roogd_init_rows(h, x0, [0.05, 0.1])
    weights = MetaWeights.uniform(2)
    target = h.random_point(rng, center=x0, radius=1.0)
    grad_fn = log_grad(h, target)
    logs_play, weights2 = aoogd_commit(h, experts, weights, 0.7, prev_grad_fn=grad_fn)
    assert h.dist(logs_play.base, x0) < 1e-12  # mean of coincident points
    assert not logs_play.coords.any()  # the logs at x_play of the experts there
    assert np.allclose(weights2.w, [0.5, 0.5], atol=1e-12)  # hedge symmetry
    # the optimism by its definition <g_{t-1}(x_bar), log_x_bar(x_i)>, with
    # x_bar the mean under the old weights: equal for coincident experts
    x_bar = weighted_frechet_mean(h, [x0, x0], weights.w)
    g = grad_fn(x_bar)
    xs = [Point(x, h.manifold_id) for x in experts.x_cur.coords]
    optimism = [h.inner(x_bar, g, h.log(x_bar, x)) for x in xs]
    assert np.allclose(optimism, optimism[0])
    assert_agree(weights2.w, _hedge_weights(0.7, weights.cumulative_surrogate + optimism))
    assert weights2.cumulative_surrogate is weights.cumulative_surrogate


def test_aoogd_halves_check_the_pool():
    h = Hyperbolic(2)
    x0 = h.base_point()
    experts = roogd_init_rows(h, x0, [0.05, 0.1])
    with pytest.raises(ValueError, match="weights length"):
        aoogd_commit(h, experts, MetaWeights.uniform(3), 0.5)
    logs_play, weights = aoogd_commit(h, experts, MetaWeights.uniform(2), 0.5)
    grads = np.zeros((3, 3))
    with pytest.raises(ValueError, match="weights length"):
        aoogd_update(h, experts, MetaWeights.uniform(3), logs_play, grads)
    with pytest.raises(ValueError, match="one row per expert"):
        aoogd_update(h, experts, weights, logs_play, grads[:2])
    # the experts' step checks its gradients
    with pytest.raises(GeometryError, match="non-finite"):
        aoogd_update(h, experts, weights, logs_play, np.full((3, 3), np.nan))


def test_meta_weights_normalized_over_rounds(rng):
    h = Hyperbolic(2)
    base = h.base_point()
    experts = roogd_init_rows(h, base, (0.02, 0.04, 0.08, 0.16))
    weights = MetaWeights.uniform(4)
    prev = None
    for t in range(30):
        target = h.random_point(rng, center=base, radius=1.0)
        grad_fn = log_grad(h, target)
        _, experts, weights = aoogd_round(h, experts, weights, 0.3, grad_fn, prev)
        prev = grad_fn
        assert weights.w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(weights.w >= 0)


def _bits(a):
    a = np.asarray(a, dtype=float)
    return a.shape, a.tobytes()


def _assert_pool_is(pool, experts):
    """The stacked pool state is the per-expert states: the rounds and step
    sizes bitwise, the points and gradients within the agreement bound."""
    assert pool.rounds == experts[0].rounds and all(s.rounds == pool.rounds for s in experts)
    assert _bits(pool.step_size[:, 0]) == _bits([s.step_size for s in experts])
    for field in ("x_cur", "grad_prev"):
        assert_agree(getattr(pool, field).coords, [getattr(s, field).coords for s in experts])


def _experts_of(pool):
    """The single learner states at the rows of a stacked pool."""
    m_id, out = pool.x_cur.manifold_id, []
    for c, g, eta in zip(pool.x_cur.coords, pool.grad_prev.coords, pool.step_size[:, 0]):
        x = Point(c, m_id)
        out.append(OptimisticState(x, TangentVector(x, g), float(eta), pool.rounds))
    return out


def test_roogd_step_rows_bitwise_equal_per_expert_steps():
    # doubling step sizes from round 0; in round 2 expert 1 takes half its
    # transported previous gradient, so its step is exactly zero and carries
    # a nonzero gradient from its point to itself. Each round steps
    # the single learners from the pool's rows: the largest step size
    # diverges, and over rounds it would amplify their rounding gap.
    h = Hyperbolic(3)
    base = h.base_point()
    etas = [0.05 * 2.0**i for i in range(5)]
    pool = roogd_init_rows(h, base, etas)
    _assert_pool_is(pool, [roogd_init(h, base, e) for e in etas])
    losses = gen_frechet_stream(h, T=7, n_points=6, S=3, seed=4).losses
    coincident_rounds = 0
    for t, loss in enumerate(losses):
        experts = _experts_of(pool) if t else [roogd_init(h, base, e) for e in etas]
        grads = [loss.grad(s.x_cur) for s in experts]
        if t == 2:
            grads[1] = 0.5 * experts[1].grad_prev
        stacked = TangentVector(pool.x_cur, np.stack([g.coords for g in grads]))
        before, pool = pool.x_cur.coords, roogd_step(h, pool, stacked)
        starts = [s.x_cur.coords for s in experts]
        experts = [roogd_step(h, s, g) for s, g in zip(experts, grads)]
        _assert_pool_is(pool, experts)
        same = [np.array_equal(a, s.x_cur.coords) for a, s in zip(starts, experts)]
        assert same == [np.array_equal(*r) for r in zip(before, pool.x_cur.coords)]
        if any(same):
            assert same == [False, True, False, False, False]
            assert experts[1].grad_prev.coords.any()
            coincident_rounds += 1
    assert coincident_rounds == 1


def _aoogd_round_reference(manifold, experts, weights, beta, grad_fn, prev_grad_fn):
    """One meta-expert round as a loop over the experts: single gradient
    calls and steps, and a single inner product per expert (the scores take
    their logs from one log call on the experts' cloud)."""
    xs = [s.x_cur for s in experts]
    stacked = np.stack([x.coords for x in xs])

    def scores(x, g):
        logs = manifold.log(x, Point(stacked, x.manifold_id)).coords
        return np.array([manifold.inner(x, g, TangentVector(x, v)) for v in logs])

    x_bar = weighted_frechet_mean(manifold, xs, weights.w)
    optimism = np.zeros(len(xs)) if prev_grad_fn is None else scores(x_bar, prev_grad_fn(x_bar))
    w_new = _hedge_weights(beta, weights.cumulative_surrogate + optimism)
    x_play = weighted_frechet_mean(manifold, xs, w_new)
    g_play = grad_fn(x_play)
    surrogate = scores(x_play, g_play)
    meta = MetaWeights(w_new, weights.cumulative_surrogate + surrogate)
    advanced = [roogd_step(manifold, s, grad_fn(s.x_cur)) for s in experts]
    return x_play, advanced, meta, (x_bar, optimism, surrogate, g_play)


@pytest.mark.parametrize("mode", ["abrupt", "drift"])
def test_aoogd_round_bitwise_equal_per_expert_reference(mode):
    # commit, then update from one grad call on the experts and x_play (the
    # runner's round), against the longhand round
    h = Hyperbolic(4)
    base = h.base_point()
    etas = [0.04 * 2.0**i for i in range(5)]
    experts = [roogd_init(h, base, e) for e in etas]
    pool = roogd_init_rows(h, base, etas)
    weights = ref_weights = MetaWeights.uniform(len(etas))
    losses = gen_frechet_stream(h, T=8, n_points=7, mode=mode, S=3, drift=0.3, seed=9).losses
    prev = None
    for loss in losses:
        prev_grad = None if prev is None else prev.grad
        cum = weights.cumulative_surrogate
        logs_play, committed = aoogd_commit(h, pool, weights, 0.6, prev_grad)
        x_play = logs_play.base
        # the committed weights are the new hedge weights over the old sums
        assert committed.cumulative_surrogate is cum
        rows = Point(np.vstack([pool.x_cur.coords, x_play.coords]), h.manifold_id)
        pool_logs = h.log(x_play, pool.x_cur)  # before the experts move
        pool, weights = aoogd_update(h, pool, committed, logs_play, loss.grad(rows).coords)
        ref = _aoogd_round_reference(h, experts, ref_weights, 0.6, loss.grad, prev_grad)
        x_ref, experts, ref_weights, (x_bar, optimism, surrogate, g_play) = ref
        assert_agree(x_play.coords, x_ref.coords)
        # the committed logs are the experts' logs at x_play, bit for bit
        assert _bits(logs_play.coords) == _bits(pool_logs.coords)
        assert_agree(committed.w, ref_weights.w)
        assert _bits(weights.w) == _bits(committed.w)
        assert_agree(weights.cumulative_surrogate, ref_weights.cumulative_surrogate)
        assert_agree(weights.cumulative_surrogate - cum, surrogate)
        _assert_pool_is(pool, experts)
        prev = loss
    # the hedge moved away from uniform, and the optimism term was live
    assert not np.allclose(weights.w, weights.w[0])
    assert optimism.any()


def test_roogd_init_rows_rejects_bad_step_sizes():
    h = Hyperbolic(2)
    for etas in ([], [0.1, 0.0], [-0.1]):
        with pytest.raises(ValueError):
            roogd_init_rows(h, h.base_point(), etas)


def test_meta_weights_validation():
    with pytest.raises(ValueError):
        MetaWeights(np.array([0.7, 0.7]), np.zeros(2))


class CountingHyperbolic(Hyperbolic):
    """H^n that counts its log and exp calls."""

    def __init__(self, n):
        super().__init__(n)
        self.calls = {"log": 0, "exp": 0}

    def log(self, x, y):
        self.calls["log"] += 1
        return super().log(x, y)

    def exp(self, x, v):
        self.calls["exp"] += 1
        return super().exp(x, v)


def tilt(h, c):
    """A gradient field that calls no log: the tangent part of the fixed
    ambient vector c, at a point or at each row of a stack."""
    return lambda x: h.to_tangent(x, np.broadcast_to(c, x.coords.shape))


def test_aoogd_round_logs_only_in_its_two_karcher_means(rng):
    # Each Karcher iteration takes one log and, but for the last, one exp.
    # So the commit's two means make exactly 2 logs more than exps, and no
    # other step of the round calls log: the optimism and the surrogate
    # read the logs of their mean's last Karcher step.
    h = CountingHyperbolic(3)
    pool = roogd_init_rows(h, h.base_point(), (0.1, 0.2, 0.4))
    weights = MetaWeights.uniform(3)
    prev, karcher_steps = None, 0
    for _ in range(5):
        grad_fn = tilt(h, rng.standard_normal(4))
        h.calls.update(log=0, exp=0)
        logs_play, committed = aoogd_commit(h, pool, weights, 0.5, prev)
        assert h.calls["log"] == h.calls["exp"] + 2
        karcher_steps += h.calls["exp"]
        rows = Point(np.vstack([pool.x_cur.coords, logs_play.base.coords]), h.manifold_id)
        h.calls.update(log=0, exp=0)
        pool, weights = aoogd_update(h, pool, committed, logs_play, grad_fn(rows).coords)
        assert h.calls["log"] == 0
        prev = grad_fn
    assert karcher_steps > 0  # the means iterated: the experts had spread


def test_an_expert_of_weight_zero_stays_in_the_pool_means(rng):
    # Expert 1 has weight exactly 0 under the old weights and, its large
    # surrogate sum underflowing the hedge, under the new ones. Each mean is
    # then weighted_frechet_mean's, which skips it, and its scores are still
    # the longhand <g, log_mean(x_1)>.
    h = Hyperbolic(3)
    base = h.base_point()
    pool = roogd_init_rows(h, base, (0.1, 0.2, 0.4))
    grad_fn = log_grad(h, h.random_point(rng, center=base, radius=1.0))
    _, pool, _ = aoogd_round(h, pool, MetaWeights.uniform(3), 0.5, grad_fn)
    xs = [Point(x, h.manifold_id) for x in pool.x_cur.coords]

    def scores(x, g):
        return [h.inner(x, g, h.log(x, p)) for p in xs]

    # the optimism at x_bar, which skips expert 1, moves its new weight
    weights = MetaWeights(np.array([0.5, 0.0, 0.5]), np.zeros(3))
    _, committed = aoogd_commit(h, pool, weights, 0.5, grad_fn)
    x_bar = weighted_frechet_mean(h, xs, weights.w)
    assert_agree(committed.w, _hedge_weights(0.5, np.array(scores(x_bar, grad_fn(x_bar)))))

    # a hedge rate of 20 underflows a surrogate lead of 50
    weights = MetaWeights(np.array([0.5, 0.0, 0.5]), np.array([0.0, 50.0, 0.0]))
    logs_play, committed = aoogd_commit(h, pool, weights, 20.0, grad_fn)
    assert committed.w[1] == 0.0 and np.all(committed.w[[0, 2]] > 0.0)
    x_play = weighted_frechet_mean(h, xs, committed.w)
    assert _bits(logs_play.base.coords) == _bits(x_play.coords)
    rows = Point(np.vstack([pool.x_cur.coords, x_play.coords]), h.manifold_id)
    grads = grad_fn(rows).coords
    _, updated = aoogd_update(h, pool, committed, logs_play, grads)
    surrogate = scores(x_play, TangentVector(x_play, grads[-1]))
    assert_agree(updated.cumulative_surrogate - committed.cumulative_surrogate, surrogate)


@given(st.lists(st.floats(-5, 5), min_size=2, max_size=6))
def test_hedge_weights_probability_vector(scores):
    from riopt.online import _hedge_weights

    w = _hedge_weights(0.4, np.asarray(scores))
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(w >= 0)


# ---------------------------------------------------------- step-size safety
def test_step_size_safety_frozen_stream():
    # frozen stationary stream (identical loss each round): distance to the
    # offline minimizer is non-increasing after burn-in, for the Theorem cap
    h = Hyperbolic(3)
    base = h.base_point()
    D0 = 3.0
    zeta0 = zeta_constant(-1.0, D0)
    eta = 1.0 / (4.0 * zeta0 * zeta0)  # sigma0 = 1 on negative curvature
    from riopt.geometry import frechet_mean

    for seed in range(20):
        rng = np.random.default_rng(seed)
        targets = np.stack(
            [h.random_point(rng, center=base, radius=1.0).coords for _ in range(15)]
        )
        loss = FrechetMeanLoss(h, targets)
        ustar = frechet_mean(h, [Point(row, h.manifold_id) for row in targets], tol=1e-11)
        x0 = h.exp(base, h.random_tangent(base, rng, norm=2.0))
        s = roogd_init(h, x0, eta)
        dists = []
        for _ in range(80):
            dists.append(h.dist(s.x_cur, ustar))
            s = roogd_step(h, s, loss.grad(s.x_cur))
        for a, b in zip(dists[10:], dists[11:]):
            assert b <= a + 1e-10
