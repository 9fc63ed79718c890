import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riopt import (
    CurvatureBounds,
    Euclidean,
    FrechetMeanError,
    GeometryError,
    Hyperbolic,
    Product,
    SPD,
    Sphere,
    frechet_mean,
    frechet_mean_rows,
    gen_frechet_stream,
    sigma_constant,
    weighted_frechet_mean,
    zeta_constant,
)
from riopt.geometry import KARCHER_MAX_ITER, Point, TangentVector, ball_draws

from agreement import assert_agree


def all_manifolds():
    return [Euclidean(3), Sphere(2), Hyperbolic(2), SPD(2)]


# ---------------------------------------------------------------- constants
def test_sigma_flat_branch():
    assert sigma_constant(0.0, 5.0) == 1.0
    assert sigma_constant(-2.0, 5.0) == 1.0


def test_sigma_known_values():
    assert sigma_constant(1.0, math.pi / 4) == pytest.approx(math.pi / 4, abs=1e-12)
    # sqrt(4)*0.5 = 1 -> 1/tan(1)
    assert sigma_constant(4.0, 0.5) == pytest.approx(0.6420926159343306, abs=1e-12)


def test_sigma_domain_error():
    with pytest.raises(GeometryError):
        sigma_constant(1.0, math.pi / 2)
    with pytest.raises(GeometryError):
        sigma_constant(4.0, 10.0)


def test_sigma_continuous_at_zero_curvature():
    assert sigma_constant(1e-14, 1.0) == pytest.approx(1.0, abs=1e-9)
    assert sigma_constant(1.0, 1e-9) == pytest.approx(1.0, abs=1e-9)


def test_zeta_flat_branch_and_known_value():
    assert zeta_constant(0.5, 2.0) == 1.0
    assert zeta_constant(0.0, 2.0) == 1.0
    assert zeta_constant(-1.0, 1.0) == pytest.approx(1.3130352854993313, abs=1e-12)
    assert zeta_constant(-1.0, 2.0) == pytest.approx(2.0 / math.tanh(2.0))


def test_zeta_limit_small_distance():
    assert zeta_constant(-1.0, 1e-9) == pytest.approx(1.0, abs=1e-9)
    assert zeta_constant(-1.0, 0.0) == 1.0


def test_array_forms_of_the_constants_agree_with_the_float_forms():
    # the series branch, the formula and a zero distance, in one array
    D = np.array([0.0, 1e-9, 2e-7, 1e-3, 0.3, 0.7, 1.2, 1.5])
    for kappa in (-2.0, -0.5, 0.0, 0.5):
        got = zeta_constant(kappa, D)
        assert isinstance(got, np.ndarray) and got.shape == D.shape
        assert_agree(got, [zeta_constant(kappa, float(d)) for d in D])
    for K in (-1.0, 0.0, 0.25, 1.0):
        got = sigma_constant(K, D)
        assert isinstance(got, np.ndarray) and got.shape == D.shape
        assert_agree(got, [sigma_constant(K, float(d)) for d in D])
    # a float in, a float out
    assert type(zeta_constant(-1.0, 0.5)) is float and type(sigma_constant(1.0, 0.5)) is float


def test_array_forms_of_the_constants_raise_as_the_float_forms():
    with pytest.raises(GeometryError, match="sigma undefined"):
        sigma_constant(1.0, np.array([0.1, math.pi / 2, 0.2]))
    with pytest.raises(GeometryError, match="sigma undefined"):
        sigma_constant(4.0, np.array([[0.1], [0.8]]))
    for f, c in ((sigma_constant, 1.0), (zeta_constant, -1.0)):
        with pytest.raises(GeometryError, match="non-negative"):
            f(c, np.array([0.1, -1e-12]))


@given(K=st.floats(0.01, 20.0), D=st.floats(0.0, 1.0))
def test_sigma_range(K, D):
    if math.sqrt(K) * D >= math.pi / 2:
        return
    s = sigma_constant(K, D)
    assert 0.0 < s <= 1.0


@given(kappa=st.floats(-20.0, 0.0), D=st.floats(0.0, 5.0))
def test_zeta_range(kappa, D):
    assert zeta_constant(kappa, D) >= 1.0


def test_curvature_bounds_validation():
    b = CurvatureBounds(-1.0, 0.5)
    assert b.K_m == 1.0
    with pytest.raises(GeometryError):
        CurvatureBounds(1.0, 0.0)


# ------------------------------------------------------------ tangent algebra
def test_in_place_draws_have_the_bits_of_the_shaped_calls():
    # ball_draws, the triangle suite and the rectangle sampler rely on these
    # identities of numpy's Generator, interleaved on one generator
    ref, got = np.random.default_rng(11), np.random.default_rng(11)
    rows = {(3,): np.empty((4, 3)), (2, 2): np.empty((4, 2, 2))}
    for i in range(4):
        for shape, out in rows.items():
            want = ref.standard_normal(shape)
            got.standard_normal(out=out[i])
            assert out[i].tobytes() == want.tobytes()
            u = ref.uniform()
            assert type(u) is float
            assert np.float64(got.random()).tobytes() == np.float64(u).tobytes()


@pytest.mark.parametrize("shape", [(3,), (2, 2)])
def test_ball_draws_equal_random_points_draws(shape):
    # two generators, one recurring: each draws its rows in list order
    a, b = np.random.default_rng(1), np.random.default_rng(2)
    refs = {id(a): np.random.default_rng(1), id(b): np.random.default_rng(2)}
    rngs = [a, b, a, a, b]
    normals, uniforms = ball_draws(rngs, shape)
    assert normals.shape == (5,) + shape and uniforms.shape == (5,)
    for i, rng in enumerate(rngs):
        ref = refs[id(rng)]
        assert normals[i].tobytes() == ref.standard_normal(shape).tobytes()
        assert uniforms[i].tobytes() == np.float64(ref.uniform()).tobytes()


def test_tangent_vector_algebra():
    m = Euclidean(2)
    x = m.project([1.0, 2.0])
    u = TangentVector(x, np.array([1.0, 0.0]))
    v = TangentVector(x, np.array([0.0, 3.0]))
    w = 2.0 * u + v - u
    assert np.allclose(w.coords, [1.0, 3.0])
    assert np.allclose((-u).coords, [-1.0, 0.0])
    y = m.project([0.0, 0.0])
    z = TangentVector(y, np.array([1.0, 0.0]))
    with pytest.raises(GeometryError):
        _ = u + z


# ------------------------------------------------------- core invariants
def test_base_checks_compare_values_not_identity(rng):
    m = Hyperbolic(2)
    x = m.random_point(rng)
    twin = x.copy()  # equal coordinates, a distinct Point
    u = m.random_tangent(x, rng)
    v = m.random_tangent(twin, rng)
    assert m.dist(m.exp(x, v), m.exp(twin, v)) == 0.0
    assert np.array_equal((u + v).coords, u.coords + v.coords)
    assert np.array_equal((u - v).coords, u.coords - v.coords)
    elsewhere = m.random_tangent(m.random_point(rng), rng)
    renamed = TangentVector(Point(x.coords, "other"), v.coords)
    for bad in (elsewhere, renamed):
        with pytest.raises(GeometryError):
            m.exp(x, bad)
        with pytest.raises(GeometryError):
            u + bad
        with pytest.raises(GeometryError):
            u - bad


@pytest.mark.parametrize("m", all_manifolds(), ids=lambda m: m.manifold_id)
def test_roundtrip_isometry_distlog(m, rng):
    cap = (math.pi / 2 - 0.1) / 2 if isinstance(m, Sphere) else 0.9
    for _ in range(200):
        x = m.random_point(rng)
        y = m.random_point(rng, center=x, radius=cap)
        v = m.log(x, y)
        assert m.dist(m.exp(x, v), y) < 1e-8
        assert abs(m.dist(x, y) - m.norm(x, v)) < 1e-10
        u1 = m.random_tangent(x, rng, norm=1.3)
        u2 = m.random_tangent(x, rng, norm=0.6)
        t1 = m.transport(x, y, u1)
        t2 = m.transport(x, y, u2)
        assert abs(m.inner(y, t1, t2) - m.inner(x, u1, u2)) < 1e-10
        assert abs(m.norm(y, t1) - 1.3) < 1e-10


@pytest.mark.parametrize("m", all_manifolds(), ids=lambda m: m.manifold_id)
def test_exp_zero_and_transport_identity(m, rng):
    x = m.random_point(rng)
    assert m.dist(m.exp(x, m.zero_tangent(x)), x) < 1e-12
    v = m.random_tangent(x, rng, norm=0.8)
    w = m.transport(x, x, v)
    assert np.allclose(w.coords, v.coords, atol=1e-12)


def test_exp_rejects_nonfinite():
    m = Euclidean(2)
    x = m.base_point()
    with pytest.raises(GeometryError):
        m.exp(x, TangentVector(x, np.array([np.nan, 0.0])))


def test_inner_positive_definite(rng):
    for m in all_manifolds():
        x = m.random_point(rng)
        v = m.random_tangent(x, rng, norm=0.5)
        assert m.inner(x, v, v) > 0


# --------------------------------------------------------- frechet mean
def test_frechet_single_point(rng):
    m = Hyperbolic(2)
    p = m.random_point(rng)
    out = weighted_frechet_mean(m, [p], [1.0])
    assert m.dist(out, p) == 0.0


def test_frechet_midpoint_on_sphere(rng):
    m = Sphere(2)
    x = m.base_point()
    v = m.random_tangent(x, rng, norm=0.8)
    y = m.exp(x, v)
    mid = weighted_frechet_mean(m, [x, y], [0.5, 0.5])
    expected = m.exp(x, 0.5 * v)
    assert m.dist(mid, expected) < 1e-9


def test_frechet_stationarity_hyperbolic(rng):
    m = Hyperbolic(2)
    base = m.base_point()
    pts = [m.random_point(rng, center=base, radius=1.0) for _ in range(3)]
    w = [0.2, 0.3, 0.5]
    out = weighted_frechet_mean(m, pts, w, tol=1e-10)
    resid = np.zeros_like(out.coords)
    for wi, p in zip(w, pts):
        resid += wi * m.log(out, p).coords
    assert m.norm(out, TangentVector(out, resid)) < 1e-10


def _pointwise_frechet_mean(m, points, weights, tol=1e-9, max_iter=200):
    """The Karcher iteration with one log call per point, written out longhand."""
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    x = points[int(np.argmax(w))]
    for _ in range(max_iter):
        step = np.zeros_like(x.coords)
        for wi, p in zip(w, points):
            if wi != 0.0:
                step = step + wi * m.log(x, p).coords
        direction = TangentVector(x, step)
        if m.norm(x, direction) <= tol:
            return x
        x = m.exp(x, direction)
    raise AssertionError("the reference iteration did not converge")


def _weighted_cloud(m, seed, n=6):
    rng = np.random.default_rng(seed)
    center = m.random_point(rng)
    points = [m.random_point(rng, center=center, radius=0.8) for _ in range(n)]
    weights = rng.dirichlet(np.ones(n))
    weights[2] = 0.0  # a skipped point
    return points, weights / weights.sum()


@pytest.mark.parametrize(
    "m",
    [Sphere(3), SPD(3), Euclidean(4), Product([SPD(2), Sphere(2)])],
    ids=lambda m: m.manifold_id,
)
def test_frechet_mean_bitwise_equal_to_pointwise_loop(m):
    # the cloud's log gives the bits of log here (the sphere's kernel makes its
    # single body's calls row by row; SPD and Euclidean share one body), and the
    # weighted rows are summed in point order, so the batched iteration
    # retraces the pointwise one
    for seed in range(4):
        points, weights = _weighted_cloud(m, seed)
        got = weighted_frechet_mean(m, points, weights)
        want = _pointwise_frechet_mean(m, points, weights)
        assert np.array_equal(got.coords, want.coords)


def test_frechet_mean_hyperbolic_matches_pointwise_loop_and_is_stationary():
    # Hyperbolic's log of a cloud rounds differently from log: close, not bitwise
    m = Hyperbolic(4)
    for seed in range(4):
        points, weights = _weighted_cloud(m, seed)
        got = weighted_frechet_mean(m, points, weights, tol=1e-11)
        assert m.dist(got, _pointwise_frechet_mean(m, points, weights, tol=1e-11)) < 1e-12
        # stationary under the pointwise logs too, up to their rounding gap
        resid = sum(wi * m.log(got, p).coords for wi, p in zip(weights, points))
        assert m.norm(got, TangentVector(got, resid)) < 1e-10


def test_frechet_skips_zero_weight_points(monkeypatch, rng):
    m = Sphere(2)
    p = m.base_point()
    q = m.exp(p, m.random_tangent(p, rng, norm=0.5))
    antipode = Point(-p.coords, m.manifold_id)
    with pytest.raises(GeometryError):
        m.log(p, antipode)
    logged = []
    original = m.log

    def recording_log(x, y):
        logged.append(y.coords.copy())
        return original(x, y)

    monkeypatch.setattr(m, "log", recording_log)
    out = weighted_frechet_mean(m, [p, q, antipode], [0.5, 0.5, 0.0])
    assert logged and not any(np.array_equal(y, antipode.coords) for y in logged)
    assert np.array_equal(out.coords, weighted_frechet_mean(m, [p, q], [0.5, 0.5]).coords)


def test_frechet_permutation_invariance(rng):
    m = SPD(2)
    pts = [m.random_point(rng) for _ in range(4)]
    a = frechet_mean(m, pts, tol=1e-11)
    b = frechet_mean(m, pts[::-1], tol=1e-11)
    assert m.dist(a, b) < 1e-9


def test_frechet_weight_validation(rng):
    m = Euclidean(2)
    pts = [m.random_point(rng) for _ in range(2)]
    with pytest.raises(GeometryError):
        weighted_frechet_mean(m, pts, [0.5, 0.6])
    with pytest.raises(GeometryError):
        weighted_frechet_mean(m, [], [])


def test_frechet_nonconvergence_error(rng):
    m = Hyperbolic(2)
    base = m.base_point()
    pts = [m.random_point(rng, center=base, radius=1.0) for _ in range(4)]
    with pytest.raises(FrechetMeanError) as err:
        weighted_frechet_mean(m, pts, [0.25] * 4, tol=1e-16, max_iter=2)
    assert err.value.residual > 0
    assert err.value.last_iterate.manifold_id == m.manifold_id


# ------------------------------------------------ stacked frechet means
def _hyperbolic_clouds(h, radii, n, seed=0):
    """One cloud of n points per radius, each around its own center."""
    rng = np.random.default_rng(seed)
    base = h.base_point()
    clouds = []
    for r in radii:
        center = h.random_point(rng, center=base, radius=1.0)
        clouds.append([h.random_point(rng, center=center, radius=r).coords for _ in range(n)])
    return np.array(clouds)


def _single_means(h, clouds, **kwargs):
    """frechet_mean of each cloud, and the exp calls (iterations) each took."""
    means, iters = [], []
    for cloud in clouds:
        calls = []
        h.exp = lambda x, v, _calls=calls: _calls.append(1) or type(h).exp(h, x, v)
        try:
            means.append(frechet_mean(h, [Point(p, h.manifold_id) for p in cloud], **kwargs))
        finally:
            del h.exp
        iters.append(len(calls))
    return means, iters


@pytest.mark.parametrize("dim", [1, 3, 10])
def test_frechet_mean_rows_bitwise_equal_per_cloud_calls(dim):
    h = Hyperbolic(dim)
    clouds = _hyperbolic_clouds(h, [0.3, 1.5, 0.01, 2.5, 0.8, 1.0], n=7, seed=dim)
    clouds[4] = clouds[4][:1]  # every point at one place: converged at the start
    means, iters = _single_means(h, clouds)
    # H^1 is a line, where one step lands on the mean
    assert iters[4] == 0 and len(set(iters)) >= (2 if dim == 1 else 4)
    got = frechet_mean_rows(h, clouds)
    assert got.coords.shape == (len(clouds), dim + 1)
    assert_agree(got.coords, np.stack([m.coords for m in means]))
    # a single cloud, and clouds of one point (returned as they are)
    assert_agree(frechet_mean_rows(h, clouds[1:2]).coords, means[1].coords[None])
    ones = frechet_mean_rows(h, clouds[:, :1])
    assert ones.coords.tobytes() == clouds[:, 0].tobytes()
    assert ones.coords.tobytes() == np.stack(
        [m.coords for m in _single_means(h, clouds[:, :1])[0]]
    ).tobytes()


def _fails_like(rows_error, single_error):
    assert type(rows_error) is type(single_error)
    assert str(rows_error) == str(single_error)
    if isinstance(single_error, FrechetMeanError):
        assert_agree(rows_error.residual, single_error.residual)
        last = rows_error.last_iterate
        assert_agree(last.coords, single_error.last_iterate.coords)
        assert last.manifold_id == single_error.last_iterate.manifold_id


def _single_error(h, cloud):
    with pytest.raises((FrechetMeanError, GeometryError)) as single:
        frechet_mean(h, [Point(p, h.manifold_id) for p in cloud])
    return single.value


@pytest.mark.parametrize("seed, first, residual", [(0, 0, 1.72), (2, 8, 1.9e-05)])
def test_frechet_mean_rows_fails_like_the_lowest_failing_cloud(seed, first, residual):
    # the wide-cloud frechet config (dim 10, 20 points, ball_radius 3,
    # center_diam 6, T 20, S 5): some rounds' means do not converge in
    # KARCHER_MAX_ITER iterations, the first at round first + 1
    h = Hyperbolic(10)
    stream = gen_frechet_stream(
        h, T=20, n_points=20, S=5, ball_radius=3.0, center_diam=6.0, seed=seed
    )
    clouds = np.stack([loss.targets for loss in stream.losses])
    means, _ = _single_means(h, clouds[:first])
    single = _single_error(h, clouds[first])
    assert isinstance(single, FrechetMeanError) and f"{single.residual:.3g}" == f"{residual:.3g}"
    assert str(single) == f"no convergence after {KARCHER_MAX_ITER} iterations (residual {residual})"
    with pytest.raises(FrechetMeanError) as rows:
        frechet_mean_rows(h, clouds)
    _fails_like(rows.value, single)
    if first:
        got = frechet_mean_rows(h, clouds[:first])
        assert_agree(got.coords, np.stack([m.coords for m in means]))


def test_frechet_mean_rows_geometry_error_does_not_preempt_a_lower_cloud():
    # radius-8 clouds in H^2 run out of iterations, radius-12 ones leave the
    # hyperboloid within a few steps: cloud 3 fails early, cloud 1 only after
    # KARCHER_MAX_ITER iterations
    h = Hyperbolic(2)
    clouds = _hyperbolic_clouds(h, [0.3, 8.0, 0.5, 12.0, 12.0], n=5, seed=0)
    errors = [_single_error(h, clouds[i]) for i in (1, 3)]
    assert isinstance(errors[0], FrechetMeanError) and type(errors[1]) is GeometryError
    for order, want in (([0, 1, 2, 3, 4], errors[0]), ([0, 2, 3, 1], errors[1])):
        with pytest.raises((FrechetMeanError, GeometryError)) as rows:
            frechet_mean_rows(h, clouds[order])
        _fails_like(rows.value, want)


def test_frechet_mean_rows_rejects_an_empty_stack():
    h = Hyperbolic(2)
    for clouds in (np.empty((0, 3, 3)), np.empty((2, 0, 3)), np.ones((2, 3))):
        with pytest.raises(GeometryError):
            frechet_mean_rows(h, clouds)
