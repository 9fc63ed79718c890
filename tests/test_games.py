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
from riopt.games import _ANCHOR_TOL_FACTOR, _anchor_tols, play_round_rows
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
    # one logdet per factor point, shared through the factors Product.split
    # keeps, and both factors' from one call
    assert len(calls) == 1
    assert calls[0].shape == (2, 4, 4)


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


def _logdet_recursion(d, c1, c2, eta, w0, T):
    """The quad_logdet solvers in w = (logdet X, logdet Y): exp_X(s X) adds
    d s to logdet X, and the transport between two multiples of one point
    scales the field with the point. With g = (2 c1 u + c2 v, -(c2 u - 2 c1 v)):
    R-OGDA is w+ = w - d eta (2 g(w) - g(w_prev)) with g(w_-1) = g(w_0),
    RGDA is gradient descent-ascent w+ = w - d eta g(w), and RCEG is
    extragradient w+ = w - d eta g(w - d eta g(w)). Returns each solver's
    iterates w_1 .. w_T as a (T, 2) array."""

    def g(w):
        u, v = w
        return np.array([2.0 * c1 * u + c2 * v, -(c2 * u - 2.0 * c1 * v)])

    a = d * eta
    w = dict.fromkeys(("rogda", "rgda", "rceg"), np.asarray(w0, dtype=float))
    g_prev = g(w0)
    out = {name: [] for name in w}
    for _ in range(T):
        g_cur = g(w["rogda"])
        w = {
            "rogda": w["rogda"] - a * (2.0 * g_cur - g_prev),
            "rgda": w["rgda"] - a * g(w["rgda"]),
            "rceg": w["rceg"] - a * g(w["rceg"] - a * g(w["rceg"])),
        }
        g_prev = g_cur
        for name, wi in w.items():
            out[name].append(wi)
    return {name: np.array(ws) for name, ws in out.items()}


@pytest.mark.parametrize("c1", [0.0, 0.5])
@pytest.mark.parametrize("d", [2, 4, 10])
def test_quad_logdet_iterates_follow_the_scalar_logdet_recursion(d, c1):
    # Every iterate of the three solvers stays on the flat ray of its start,
    # so its logdets follow a recursion in two scalars. eta = 0.2 / d^2 is
    # the c1 >= 0.25 default; the c1 = 0 default 0.5 / d^2 makes RGDA
    # diverge at d = 2 (spectral radius 1.031) before round 300.
    # Measured: at most 2.0e-14 of max |w_0| (8.7e-14 through symmetric
    # square roots, before Cholesky whitening).
    c2, eta, T = 1.0, 0.2 / d**2, 300
    game = quad_logdet_game(d, c1, c2)
    spd = game.space.factors[0]
    z0 = game.join(spd.random_point(child_rng(0, 1, 0)), spd.random_point(child_rng(0, 1, 1)))

    def logdets(z):
        return [np.linalg.slogdet(p.coords)[1] for p in game.space.split(z)]

    w0 = np.array(logdets(z0))
    want = _logdet_recursion(d, c1, c2, eta, w0, T)
    etas = dict.fromkeys(want, eta)
    points, avg = dict.fromkeys(etas, z0), rogda_init(game, z0)
    got = {name: [] for name in etas}
    for _ in range(T):
        points, avg, _, _ = play_round_rows(game, etas, points, avg)
        for name in etas:
            got[name].append(logdets(points[name]))
    scale = np.abs(w0).max()
    for name in etas:
        err = np.abs(np.array(got[name]) - want[name]).max()
        assert err <= 1e-12 * scale, (name, err / scale)


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


def test_robust_pca_payoff_adds_its_anchor_distances_left_to_right(request):
    # 40 anchors and 60 stacked points: a compensated sum of the anchor
    # distances moves the last bit of many rows, so a payoff that took the
    # builtin sum would move with it
    data = make_spd_dataset(3, 40, (0.2, 4.5), seed=7)
    game = robust_pca_game(data, alpha=1.0)
    spd, sphere = game.space.factors
    pts = [game.join(spd.random_point(100 + i), sphere.random_point(200 + i)) for i in range(60)]
    z = game.space.stack(pts)
    before = [game.value(z), [game.value(p) for p in pts]]
    request.getfixturevalue("compensated_sum")
    after = [game.value(z), [game.value(p) for p in pts]]
    assert before[0].tobytes() == after[0].tobytes()
    assert np.array(before[1]).tobytes() == np.array(after[1]).tobytes()


# ------------------------------------------------------- stacked points
def _games_and_stacks():
    """Both game families at d = 4, each with 5 joint points stacked by
    ``space.stack``: one point twice and, for robust PCA, one at an anchor."""
    quad = quad_logdet_game(4, 0.7, 1.3)
    data = make_spd_dataset(4, 6, (0.2, 4.5), seed=2)
    pca = robust_pca_game(data, alpha=1.0)
    for game in (quad, pca):
        f0, f1 = game.space.factors
        pts = [game.join(f0.random_point(10 + i), f1.random_point(20 + i)) for i in range(4)]
        if game is pca:
            pts[2] = game.join(f0.project(data[3]), game.space.split(pts[2])[1])
        yield game, pts[:3] + [pts[1], pts[3]]


@pytest.mark.parametrize("k", [0, 1])
def test_field_rows_and_value_rows_are_bitwise_the_single_calls(k):
    game, pts = list(_games_and_stacks())[k]
    Z = game.space.stack(pts)
    F, vals = game.field(Z), game.value(Z)
    assert isinstance(vals, np.ndarray) and vals.shape == (len(pts),)
    for i, z in enumerate(pts):
        fresh = Point(z.coords.copy(), z.manifold_id)
        assert F.coords[i].tobytes() == game.field(fresh).coords.tobytes()
        assert vals[i] == game.value(fresh)
        assert type(game.value(fresh)) is float


def _round_by_step_functions(game, etas, points, avg):
    """The round of ``play_round_rows``, solver by solver through
    ``rogda_step``, ``rgda_step`` and ``rceg_step``."""
    new, vals, norms = {}, [], []
    for name, eta in etas.items():
        z_t = points[name]
        F = game.field(z_t)
        if name == "rogda":
            avg = rogda_step(game, avg, eta, F)
            new[name] = avg.z_cur
        else:
            new[name] = (rgda_step if name == "rgda" else rceg_step)(game, z_t, eta, F)
        vals.append(game.value(z_t))
        norms.append(game.space.norm(z_t, F))
    return new, avg, vals, norms


@pytest.mark.parametrize("c1", [0.0, 0.5])
def test_play_round_rows_is_bitwise_play_round(c1):
    # against the step functions, run solver by solver
    game = quad_logdet_game(10, c1, 1.0)
    spd = game.space.factors[0]
    z0 = game.join(spd.random_point(child_rng(7, 1)), spd.random_point(child_rng(7, 2)))
    etas = {"rogda": 0.01, "rgda": 0.02, "rceg": 0.01}
    # each side starts from its own copy of z0, so no memo is shared
    sides = []
    for play in (play_round_rows, _round_by_step_functions):
        z = z0.copy()
        sides.append([play, dict.fromkeys(etas, z), rogda_init(game, z)])
    for _ in range(12):
        outs = []
        for side in sides:
            play, points, avg = side
            points, avg, vals, norms = play(game, etas, points, avg)
            side[1:] = points, avg
            coords = [p.coords for p in points.values()]
            coords += [avg.z_cur.coords, avg.z_bar.coords, avg.grad_prev.coords]
            outs.append((np.stack(coords).tobytes(), vals, norms))
        assert outs[0] == outs[1]


def test_robust_pca_payoff_and_field_share_each_anchor_distance(linalg_calls):
    # the anchor distances and logs of a point come from one eigh, which the
    # payoff and the field share; the only eigvalsh is the game's, over its
    # 6 anchors at once
    game, pts = list(_games_and_stacks())[1]
    assert linalg_calls == [("eigvalsh", (6,))]
    z = pts[0]
    game.value(z), game.field(z), game.value(z)
    # the point's own Cholesky factor, then its 6 anchors, once
    assert linalg_calls[1:] == [("cholesky", ()), ("eigh", (6,))]
    Z = game.space.stack(pts[1:])
    game.field(Z), game.value(Z)
    # the 3 distinct points of the stack (one is there twice), in one call each
    assert linalg_calls[3:] == [("cholesky", (3,)), ("eigh", (3, 6))]


def test_robust_pca_anchor_tolerances_bitwise_equal_to_the_per_anchor_loop():
    data = make_spd_dataset(10, 40, (0.2, 4.5), seed=3)
    tols, lam_max = _anchor_tols(data)
    eps = np.finfo(float).eps
    eigs = [np.linalg.eigvalsh(A) for A in data]
    loop = np.array([_ANCHOR_TOL_FACTOR * 10 * (w[-1] / w[0]) * eps for w in eigs])
    assert tols.tobytes() == loop.tobytes()
    assert lam_max == max(float(w[-1]) for w in eigs)


@pytest.mark.parametrize(
    "d, n, eig_range, seeds",
    [(10, 40, (0.2, 4.5), range(64)), (5, 8, (0.2, 4.5), [0]), (30, 20, (1e-3, 1e3), [0, 1])],
    ids=["benchmark", "golden", "cond_1e6"],
)
def test_every_anchor_self_distance_stays_under_its_tolerance(d, n, eig_range, seeds):
    # the benchmark's robust_pca datasets (config seeds 0-63), the golden
    # one, and a wider spread up to d = 30 and cond 1e6: dist(A_i, A_i) as
    # the game computes it, through A_i's own Cholesky whitening, is
    # rounding noise below d * cond * eps, 1/64 of the anchor's tolerance
    spd = SPD(d)
    for seed in seeds:
        data = make_spd_dataset(d, n, eig_range, seed=seed)
        tols, _ = _anchor_tols(data)
        A = Point(np.stack(data), spd.manifold_id)
        self_dists = spd._log_dist(A, Point(A.coords.copy(), spd.manifold_id))[1]
        assert (self_dists < tols / _ANCHOR_TOL_FACTOR).all(), seed


def test_robust_pca_field_raises_at_an_indefinite_anchor():
    data = make_spd_dataset(3, 4, (0.5, 2.0), seed=1)
    data[2] = np.diag([1.0, 0.5, -0.25])
    game = robust_pca_game(data, alpha=1.0)
    spd, sphere = game.space.factors
    z = game.join(spd.random_point(5), sphere.random_point(6))
    with pytest.raises(GeometryError) as err:
        game.field(z)
    assert str(err.value) == "log undefined: a target is not positive definite"


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
