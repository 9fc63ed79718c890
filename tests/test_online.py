import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from riopt import (
    Euclidean,
    Hyperbolic,
    MetaWeights,
    RegretLedger,
    StepSizePool,
    aoogd_configure,
    aoogd_round,
    grad_variation,
    regret_update,
    rogd_step,
    roogd_corrected_init,
    roogd_corrected_step,
    roogd_init,
    roogd_step,
)
from riopt.geometry import TangentVector, zeta_constant
from riopt.streams import FrechetMeanLoss


def grad_at(state_point, values):
    return TangentVector(state_point, np.asarray(values, dtype=float))


# ----------------------------------------------------------------- R-OOGD
def test_roogd_init_contract():
    m = Euclidean(2)
    x0 = m.project([1.0, -1.0])
    s = roogd_init(m, x0, 0.5)
    assert m.dist(s.x_prev, s.x_cur) == 0.0
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
def test_aoogd_round_single_expert(rng):
    h = Hyperbolic(2)
    x0 = h.random_point(rng)
    experts = [roogd_init(h, x0, 0.1)]
    weights = MetaWeights.uniform(1)
    target = h.random_point(rng, center=x0, radius=1.0)
    grad_fn = lambda x: -1.0 * h.log(x, target)
    x_play, experts2, weights2, _ = aoogd_round(h, experts, weights, 0.5, grad_fn)
    assert h.dist(x_play, x0) < 1e-12
    assert weights2.w[0] == pytest.approx(1.0)
    assert experts2[0].rounds == 1


def test_aoogd_round_coincident_experts_and_symmetry(rng):
    h = Hyperbolic(2)
    x0 = h.random_point(rng)
    experts = [roogd_init(h, x0, 0.05), roogd_init(h, x0, 0.1)]
    weights = MetaWeights.uniform(2)
    target = h.random_point(rng, center=x0, radius=1.0)
    grad_fn = lambda x: -1.0 * h.log(x, target)
    x_play, _, weights2, diag = aoogd_round(
        h, experts, weights, 0.7, grad_fn, prev_grad_fn=grad_fn
    )
    assert h.dist(x_play, x0) < 1e-12  # mean of coincident points
    assert np.allclose(weights2.w, [0.5, 0.5], atol=1e-12)  # hedge symmetry
    assert np.allclose(diag.optimism, diag.optimism[0])


def test_meta_weights_normalized_over_rounds(rng):
    h = Hyperbolic(2)
    base = h.base_point()
    experts = [roogd_init(h, base, e) for e in (0.02, 0.04, 0.08, 0.16)]
    weights = MetaWeights.uniform(4)
    prev = None
    for t in range(30):
        target = h.random_point(rng, center=base, radius=1.0)
        grad_fn = lambda x, target=target: -1.0 * h.log(x, target)
        _, experts, weights, _ = aoogd_round(h, experts, weights, 0.3, grad_fn, prev)
        prev = grad_fn
        assert weights.w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(weights.w >= 0)


def test_meta_weights_validation():
    with pytest.raises(ValueError):
        MetaWeights(np.array([0.7, 0.7]), np.zeros(2))


# -------------------------------------------------------------------- ledger
def test_regret_update_examples(rng):
    m = Hyperbolic(2)
    u1 = m.base_point()
    u2 = m.exp(u1, m.random_tangent(u1, rng, norm=1.0))
    led = regret_update(RegretLedger(), 1.0, 0.5, 0.0, grad_variation(m, []))
    assert led.path_length == 0.0
    assert led.grad_variation == 0.0
    g = m.random_tangent(u1, rng, norm=0.7)
    led = regret_update(led, 2.0, 0.5, m.dist(u2, u1), grad_variation(m, [(g, g)]))
    assert led.path_length == pytest.approx(1.0, abs=1e-10)
    assert led.grad_variation == 0.0  # identical gradients
    assert led.regret == pytest.approx((1.0 + 2.0) - (0.5 + 0.5))
    assert led.round == 2


def test_regret_update_vt_is_max_over_probes(rng):
    m = Euclidean(2)
    x = m.base_point()
    pairs = [
        (grad_at(x, [1.0, 0.0]), grad_at(x, [0.0, 0.0])),
        (grad_at(x, [3.0, 0.0]), grad_at(x, [0.0, 0.0])),
    ]
    assert grad_variation(m, pairs) == pytest.approx(9.0)
    # folding one pair onto the maximum of the others gives the same value
    assert grad_variation(m, pairs[:1], start=grad_variation(m, pairs[1:])) == pytest.approx(9.0)
    assert grad_variation(m, pairs, start=10.0) == 10.0
    led = regret_update(RegretLedger(), 0.0, 0.0, 0.0, grad_variation(m, pairs))
    assert led.grad_variation == pytest.approx(9.0)


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
    from riopt.geometry import frechet_mean, Point

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
