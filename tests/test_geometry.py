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
    GeometryParams,
    Hyperbolic,
    Product,
    SPD,
    Sphere,
    frechet_mean,
    sigma_constant,
    weighted_frechet_mean,
    zeta_constant,
)
from riopt.geometry import Point, TangentVector


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


def test_zeta_limit_small_distance():
    assert zeta_constant(-1.0, 1e-9) == pytest.approx(1.0, abs=1e-9)
    assert zeta_constant(-1.0, 0.0) == 1.0


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


def test_geometry_params_from_bounds():
    p = GeometryParams.from_bounds(CurvatureBounds(-1.0, -1.0), 2.0)
    assert p.sigma == 1.0
    assert p.zeta == pytest.approx(2.0 / math.tanh(2.0))
    with pytest.raises(GeometryError):
        GeometryParams.from_bounds(CurvatureBounds(1.0, 1.0), 2.0)
    with pytest.raises(GeometryError):
        GeometryParams(D=1.0, sigma=1.5, zeta=1.0)


# ------------------------------------------------------------ tangent algebra
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
    # log_many gives the bits of log here, and the weighted rows are summed
    # in point order, so the batched iteration retraces the pointwise one
    for seed in range(4):
        points, weights = _weighted_cloud(m, seed)
        got = weighted_frechet_mean(m, points, weights)
        want = _pointwise_frechet_mean(m, points, weights)
        assert np.array_equal(got.coords, want.coords)


def test_frechet_mean_hyperbolic_matches_pointwise_loop_and_is_stationary():
    # Hyperbolic.log_many rounds differently from log: close, not bitwise
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
