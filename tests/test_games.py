import math

import numpy as np
import pytest

from riopt import (
    Euclidean,
    Product,
    SPD,
    ZeroSumGame,
    geodesic_average,
    make_spd_dataset,
    ne_diagnostics,
    quad_duality_gap,
    quad_logdet_game,
    rceg_step,
    rgda_step,
    robust_pca_game,
    rogda_init,
    rogda_step,
)
from riopt.geometry import GeometryError, Point, TangentVector
from riopt.streams import child_rng
from riopt.verify import fd_gradient_check


def bilinear_game():
    space = Product([Euclidean(1), Euclidean(1)])

    def payoff(x, y):
        return float(x.coords[0] * y.coords[0])

    def gx(x, y):
        return TangentVector(x, np.array([y.coords[0]]))

    def gy(x, y):
        return TangentVector(y, np.array([x.coords[0]]))

    return ZeroSumGame(space=space, payoff=payoff, grad_x=gx, grad_y=gy, smoothness_L=1.0)


# ------------------------------------------------------------------ R-OGDA
def test_rogda_first_step_hand_example():
    g = bilinear_game()
    z0 = g.space.project(np.array([1.0, 0.0]))
    s = rogda_step(g, rogda_init(g, z0), 0.1)
    assert np.allclose(s.z_cur.coords, [1.0, 0.1], atol=1e-15)


def test_rogda_fixed_point_at_zero_field():
    g = bilinear_game()
    z0 = g.space.project(np.array([0.0, 0.0]))
    s = rogda_init(g, z0)
    for _ in range(3):
        s = rogda_step(g, s, 0.2)
        assert np.linalg.norm(s.z_cur.coords) < 1e-12


def test_rogda_fixed_point_quad_logdet_identity():
    game = quad_logdet_game(3, 1.0, 1.0)
    z0 = game.space.base_point()  # X = Y = I, logdets zero
    s = rogda_step(game, rogda_init(game, z0), 0.2)
    assert game.space.dist(s.z_cur, z0) < 1e-12


def test_rogda_euclidean_closed_form(rng):
    g = bilinear_game()
    z0 = g.space.project(np.array([0.8, -0.5]))
    eta = 0.07
    s = rogda_init(g, z0)
    F = lambda w: np.array([w[1], -w[0]])
    z, zp = z0.coords.copy(), None
    for _ in range(100):
        s = rogda_step(g, s, eta)
        Fc = F(z)
        Fp = Fc if zp is None else F(zp)
        znew = z - 2 * eta * Fc + eta * Fp
        zp, z = z, znew
        assert np.abs(s.z_cur.coords - z).max() < 1e-12


def test_bilinear_separation():
    # optimistic iterates contract while simultaneous descent-ascent spirals
    # out; the printed 500-round/1e-3 figure is too aggressive for the true
    # contraction factor |1 - h^2/2| = 0.995, so check 0.1 at 500 and 1e-3
    # by 2000 rounds
    g = bilinear_game()
    z0 = g.space.project(np.array([1.0, 0.0]))
    s = rogda_init(g, z0)
    norms = []
    for t in range(2000):
        s = rogda_step(g, s, 0.1)
        norms.append(np.linalg.norm(s.z_cur.coords))
    assert norms[499] < 0.1
    assert norms[-1] < 1e-3
    z = z0
    prev = 0.0
    for _ in range(500):
        nz = np.linalg.norm(z.coords)
        assert nz > prev - 1e-15
        prev = nz
        z = rgda_step(g, z, 0.1)
    assert prev > 1.0


def test_rgda_matches_first_round_rogda():
    # with the first-round convention (previous field = current), the
    # optimistic update -2 eta F + eta F collapses to the plain step
    g = bilinear_game()
    z0 = g.space.project(np.array([0.4, 0.9]))
    s = rogda_step(g, rogda_init(g, z0), 0.13)
    z1 = rgda_step(g, z0, 0.13)
    assert np.allclose(s.z_cur.coords, z1.coords, atol=1e-15)


# -------------------------------------------------------------- averaging
def test_geodesic_average_identities(rng):
    m = SPD(2)
    a = m.random_point(rng)
    assert m.dist(geodesic_average(m, a, a, 3), a) < 1e-12
    b = m.random_point(rng)
    mid = geodesic_average(m, a, b, 1)
    expected = m.exp(a, 0.5 * m.log(a, b))
    assert m.dist(mid, expected) < 1e-12
    with pytest.raises(ValueError):
        geodesic_average(m, a, b, 0)


def test_geodesic_average_euclidean_running_mean(rng):
    m = Euclidean(3)
    pts = [m.random_point(rng) for _ in range(12)]
    bar = pts[0]
    for k, p in enumerate(pts[1:], start=1):
        bar = geodesic_average(m, bar, p, k)
    arithmetic = np.mean([p.coords for p in pts], axis=0)
    assert np.abs(bar.coords - arithmetic).max() < 1e-12


def test_rogda_state_average_tracks_trajectory_mean():
    game = quad_logdet_game(4, 0.5, 1.0)
    spd = game.space.factors[0]
    z0 = game.join(spd.random_point(0), spd.random_point(1))
    s = rogda_init(game, z0)
    logdets = [game.residual(z0)]
    for _ in range(25):
        s = rogda_step(game, s, 0.004)
        logdets.append(game.residual(s.z_cur))
    # logdet of the geodesic average is the arithmetic mean of the logdets
    assert np.allclose(game.residual(s.z_bar), np.mean(logdets, axis=0), atol=1e-10)


# ------------------------------------------------------------------- RCEG
def test_rceg_fixed_point_and_flat_reduction():
    g = bilinear_game()
    z0 = g.space.project(np.array([0.0, 0.0]))
    assert np.linalg.norm(rceg_step(g, z0, 0.3).coords) < 1e-12
    z = g.space.project(np.array([1.0, 0.0]))
    zc = z.coords.copy()
    F = lambda w: np.array([w[1], -w[0]])
    for _ in range(60):
        z = rceg_step(g, z, 0.1)
        mid = zc - 0.1 * F(zc)
        zc = zc - 0.1 * F(mid)
        assert np.abs(z.coords - zc).max() < 1e-12


def test_rceg_converges_on_strongly_convex_quad():
    game = quad_logdet_game(6, 1.0, 1.0)
    spd = game.space.factors[0]
    z = game.join(spd.random_point(3), spd.random_point(4))
    g0 = game.space.norm(z, game.field(z))
    for _ in range(200):
        z = rceg_step(game, z, 0.2 / 36)
    g200 = game.space.norm(z, game.field(z))
    assert g200 < g0 / 10.0


# ------------------------------------------------------------- quad payoff
def test_quad_logdet_gradient_example():
    game = quad_logdet_game(2, 1.0, 1.0)
    spd = game.space.factors[0]
    X = spd.project(math.e * np.eye(2))  # logdet = 2
    Y = spd.base_point()
    gx = game.grad_x(X, Y)
    assert np.allclose(gx.coords, 4.0 * X.coords, atol=1e-12)


def test_quad_logdet_residual_and_mu():
    game = quad_logdet_game(5, 0.7, 1.3)
    assert game.mu == pytest.approx(2 * 0.7 * 5)
    z = game.space.base_point()
    assert np.allclose(game.residual(z), [0.0, 0.0])
    gx = game.field(z)
    assert game.space.norm(z, gx) < 1e-12


def test_quad_logdet_gradients_match_finite_differences():
    game = quad_logdet_game(4, 0.7, 1.3)
    spd = game.space.factors[0]
    z = game.join(spd.random_point(7), spd.random_point(8))
    rep = fd_gradient_check(game.space, game.value, game.gradient, z, n_dirs=10, seed=1)
    assert rep.max_violation < 1e-5


def test_quad_logdet_field_value_and_residual_share_each_logdet(monkeypatch):
    game = quad_logdet_game(4, 0.7, 1.3)
    spd = game.space.factors[0]
    z = game.join(spd.random_point(1), spd.random_point(2))
    fresh = (game.field(z.copy()).coords, game.value(z.copy()), game.residual(z.copy()))
    calls = []
    original = np.linalg.slogdet

    def counting_slogdet(M):
        calls.append(M)
        return original(M)

    monkeypatch.setattr(np.linalg, "slogdet", counting_slogdet)
    for _ in range(2):
        assert np.array_equal(game.field(z).coords, fresh[0])
        assert game.value(z) == fresh[1]
        assert np.array_equal(game.residual(z), fresh[2])
    # one logdet per factor point, shared through the factors Product.split keeps
    assert len(calls) == 2


def test_quad_logdet_non_pd_factor_raises_on_every_call():
    game = quad_logdet_game(2, 0.5, 1.0)
    z = Point(np.array([1.0, 0.0, 0.0, -1.0, 1.0, 0.0, 0.0, 1.0]), game.space.manifold_id)
    for _ in range(2):
        with pytest.raises(GeometryError):
            game.value(z)
        with pytest.raises(GeometryError):
            game.field(z)
    assert "logdet" not in game.space.split(z)[0].memo


# -------------------------------------------------------------- duality gap
def test_quad_duality_gap_values():
    game = quad_logdet_game(3, 1.0, 1.0)
    spd = game.space.factors[0]
    I = spd.base_point()
    assert quad_duality_gap(game, I, I) == 0.0
    Xu = spd.project(np.diag([math.e, 1.0, 1.0]))  # logdet 1
    assert quad_duality_gap(game, Xu, I) == pytest.approx(1.25, abs=1e-12)


def test_quad_duality_gap_grid_oracle():
    c1, c2 = 0.6, 1.4
    game = quad_logdet_game(2, c1, c2)
    spd = game.space.factors[0]
    u, v = 0.8, -0.3
    X = spd.project(np.diag([math.exp(u), 1.0]))
    Y = spd.project(np.diag([math.exp(v), 1.0]))
    got = quad_duality_gap(game, X, Y)
    grid = np.linspace(-8, 8, 400001)
    f = lambda a, b: c1 * a * a + c2 * a * b - c1 * b * b
    oracle = f(u, grid).max() - f(grid, v).min()
    assert got == pytest.approx(oracle, abs=1e-6)
    assert got >= 0.0


def test_quad_duality_gap_nonnegative_random(rng):
    game = quad_logdet_game(3, 0.5, 1.0)
    spd = game.space.factors[0]
    for seed in range(10):
        X, Y = spd.random_point(2 * seed), spd.random_point(2 * seed + 1)
        assert quad_duality_gap(game, X, Y) >= 0.0


def test_quad_duality_gap_rejects_c1_zero():
    game = quad_logdet_game(3, 0.0, 1.0)
    spd = game.space.factors[0]
    with pytest.raises(ValueError):
        quad_duality_gap(game, spd.base_point(), spd.base_point())


# --------------------------------------------------------------- robust pca
def test_robust_pca_eigenvector_stationarity():
    data = make_spd_dataset(4, 3, (0.2, 4.5), seed=5)
    game = robust_pca_game(data, alpha=1.0)
    spd, sphere = game.space.factors
    A = spd.project(np.diag([3.0, 2.0, 1.0, 0.5]))
    x = sphere.project(np.array([1.0, 0.0, 0.0, 0.0]))  # eigenvector of A
    gy = game.grad_y(A, x)
    assert game.space.factors[1].norm(x, gy) < 1e-12


def test_robust_pca_zero_subgradient_at_anchor():
    data = [np.diag([1.0, 2.0])]
    game = robust_pca_game(data, alpha=1.0)
    spd, sphere = game.space.factors
    A = spd.project(np.diag([1.0, 2.0]))
    x = sphere.project(np.array([0.6, 0.8]))
    g = game.grad_x(A, x)
    # only the quadratic term contributes; distance term gives subgradient 0
    expected = spd.to_tangent(A, A.coords @ np.outer(x.coords, x.coords) @ A.coords)
    assert np.allclose(g.coords, expected.coords, atol=1e-12)


def test_robust_pca_zero_subgradient_at_anchor_d10():
    # at d = 10 the rounding noise of dist(A, A) is larger than at d = 2
    data = make_spd_dataset(10, 1, (0.2, 4.5), seed=3)
    game = robust_pca_game(data, alpha=1.0)
    spd, sphere = game.space.factors
    A = spd.project(data[0])
    assert spd.dist(A, A) > 0.0  # the noise that must not count as a distance
    x = sphere.random_point(4)
    g = game.grad_x(A, x)
    expected = spd.to_tangent(A, A.coords @ np.outer(x.coords, x.coords) @ A.coords)
    assert np.allclose(g.coords, expected.coords, atol=1e-12)
    # away from the anchor the distance term still enters the gradient
    z = game.join(spd.random_point(21), x)
    rep = fd_gradient_check(game.space, game.value, game.gradient, z, n_dirs=8, seed=2)
    assert rep.max_violation < 1e-5


def test_robust_pca_gradients_match_finite_differences():
    data = make_spd_dataset(4, 5, (0.2, 4.5), seed=11)
    game = robust_pca_game(data, alpha=1.0)
    spd, sphere = game.space.factors
    z = game.join(spd.random_point(21), sphere.random_point(22))
    rep = fd_gradient_check(game.space, game.value, game.gradient, z, n_dirs=8, seed=2)
    assert rep.max_violation < 1e-5


# ------------------------------------------------------------- diagnostics
def test_ne_diagnostics_monotone_best(rng):
    game = quad_logdet_game(4, 1.0, 1.0)
    spd = game.space.factors[0]
    z0 = game.join(spd.random_point(child_rng(3, 1)), spd.random_point(child_rng(3, 2)))
    s = rogda_init(game, z0)
    diag = None
    best_seen = math.inf
    for _ in range(50):
        diag = ne_diagnostics(game, s, diag)
        assert diag.best_grad_norm <= best_seen + 1e-15
        assert diag.best_grad_norm <= diag.grad_norm + 1e-15
        best_seen = diag.best_grad_norm
        s = rogda_step(game, s, 0.002)
    assert diag.ne_residual.shape == (2,)


def test_ne_diagnostics_residual_at_identity():
    game = quad_logdet_game(3, 1.0, 1.0)
    s = rogda_init(game, game.space.base_point())
    diag = ne_diagnostics(game, s)
    assert np.allclose(diag.ne_residual, [0.0, 0.0])
    assert diag.grad_norm < 1e-12


def test_lemma1_boundedness_smoke():
    # full 10-seed version lives in the acceptance suite
    game = quad_logdet_game(6, 1.0, 1.0)
    spd = game.space.factors[0]
    D1 = 1.0
    rng = child_rng(0, 99)
    Xs = spd.random_point(rng)
    Xs = spd.project(Xs.coords / np.linalg.det(Xs.coords) ** (1 / 6))
    Ys = spd.random_point(rng)
    Ys = spd.project(Ys.coords / np.linalg.det(Ys.coords) ** (1 / 6))
    zstar = game.join(Xs, Ys)
    z0 = game.space.exp(zstar, game.space.random_tangent(zstar, rng, norm=D1))
    G = 2 * math.sqrt(5) * 6 * D1
    eta = min(1.0 / (2.2 * math.sqrt(5) * 6), D1 / (3 * G))
    s = rogda_init(game, z0)
    for _ in range(400):
        s = rogda_step(game, s, eta)
        assert game.space.dist(s.z_cur, zstar) <= 2 * D1 + 1e-6
