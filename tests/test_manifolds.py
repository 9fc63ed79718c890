import math

import numpy as np
import pytest

from riopt import (
    Euclidean,
    GeometryError,
    Hyperbolic,
    Product,
    SPD,
    Sphere,
    make_spd_dataset,
)
from riopt.geometry import Manifold, Point, TangentVector


@pytest.mark.parametrize("cls", [Euclidean, Sphere, Hyperbolic, SPD])
def test_constructors_reject_dimension_0(cls):
    with pytest.raises(GeometryError):
        cls(0)


def test_curvature_bounds_of_each_manifold():
    assert Euclidean(3).curvature.K == 0.0
    h = Hyperbolic(2)
    assert h.curvature.kappa == -1.0 and h.curvature.K == -1.0
    p = Product([SPD(2), Sphere(2)])
    assert (p.curvature.kappa, p.curvature.K) == (-0.5, 1.0)
    x = p.base_point()
    assert p.dist(x, x) == 0.0


def test_sphere_quarter_circle():
    s = Sphere(2)
    x = s.project([1.0, 0.0, 0.0])
    v = s.to_tangent(x, [0.0, math.pi / 2, 0.0])
    y = s.exp(x, v)
    assert np.allclose(y.coords, [0.0, 1.0, 0.0], atol=1e-12)
    back = s.log(x, s.project([0.0, 1.0, 0.0]))
    assert np.allclose(back.coords, [0.0, math.pi / 2, 0.0], atol=1e-12)


def test_sphere_antipodal_guard():
    s = Sphere(2)
    x = s.project([1.0, 0.0, 0.0])
    y = s.project([-1.0, 0.0, 0.0])
    with pytest.raises(GeometryError):
        s.log(x, y)


def test_euclidean_flat_addition():
    m = Euclidean(2)
    x = m.project([1.0, 0.0])
    y = m.exp(x, TangentVector(x, np.array([0.0, 2.0])))
    assert np.allclose(y.coords, [1.0, 2.0])
    v = m.random_tangent(x, 0, norm=1.0)
    w = m.transport(x, y, v)
    assert np.allclose(w.coords, v.coords)


def test_hyperbolic_example_and_distance_formula(rng):
    h = Hyperbolic(2)
    x = h.project([0.0, 0.0, 1.0])
    y = h.project([0.0, math.sinh(1.0), math.cosh(1.0)])
    assert h.dist(x, y) == pytest.approx(1.0, abs=1e-12)
    v = h.log(x, y)
    assert h.norm(x, v) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(v.coords, [0.0, 1.0, 0.0], atol=1e-12)
    # agrees with arccosh(-<x,y>_M) everywhere
    for _ in range(100):
        a = h.random_point(rng, center=h.base_point(), radius=2.0)
        b = h.random_point(rng, center=h.base_point(), radius=2.0)
        ref = math.acosh(max(-h.minkowski(a.coords, b.coords), 1.0))
        assert abs(h.dist(a, b) - ref) < 1e-10


def test_hyperbolic_tangent_metric_positive(rng):
    h = Hyperbolic(3)
    x = h.random_point(rng)
    for _ in range(20):
        v = h.random_tangent(x, rng, norm=rng.uniform(0.1, 2.0))
        assert h.inner(x, v, v) > 0


def test_spd_examples():
    m = SPD(2)
    X = m.base_point()
    Y = m.project(math.e * np.eye(2))
    assert m.dist(X, Y) == pytest.approx(math.sqrt(2.0), abs=1e-12)
    U = m.to_tangent(X, np.array([[1.0, 0.5], [0.5, 0.0]]))
    V = m.to_tangent(X, np.array([[0.0, 1.0], [1.0, 2.0]]))
    assert m.inner(X, U, V) == pytest.approx(np.trace(U.coords @ V.coords), abs=1e-12)


def test_spd_affine_invariance(rng):
    m = SPD(3)
    for _ in range(25):
        X = m.random_point(rng)
        Y = m.random_point(rng)
        A = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        Xc = m.project(A @ X.coords @ A.T)
        Yc = m.project(A @ Y.coords @ A.T)
        assert m.dist(Xc, Yc) == pytest.approx(m.dist(X, Y), abs=1e-8)


def _spd_dist_log_reference(X, Y):
    """The single-matrix affine-invariant dist and log, written out longhand."""
    w, V = np.linalg.eigh(0.5 * (X + X.T))
    S, Si = (V * np.sqrt(w)) @ V.T, (V / np.sqrt(w)) @ V.T
    M = Si @ Y @ Si
    M = 0.5 * (M + M.T)
    dist = float(np.linalg.norm(np.log(np.maximum(np.linalg.eigvalsh(M), 1e-300))))
    wm, Vm = np.linalg.eigh(M)
    L = S @ ((Vm * np.log(wm)) @ Vm.T) @ S
    return dist, 0.5 * (L + L.T)


def test_spd_batched_dist_log_bitwise_equal_to_single_calls():
    m = SPD(10)
    anchors = np.stack(make_spd_dataset(10, 40, (0.2, 4.5), seed=3))
    at_anchor = Point(anchors[7].copy(), m.manifold_id)
    for x in (m.random_point(11), at_anchor):
        dists = m.dist_many(x, anchors)
        logs = m.log_many(x, anchors)
        for i, A in enumerate(anchors):
            y = Point(A, m.manifold_id)
            ref_dist, ref_log = _spd_dist_log_reference(x.coords, A)
            assert dists[i] == m.dist(x, y) == ref_dist
            assert np.array_equal(logs[i], m.log(x, y).coords)
            assert np.array_equal(logs[i], ref_log)
    # the distance of an anchor to itself is rounding noise, not exactly 0
    assert m.dist_many(at_anchor, anchors)[7] < 1e-12


@pytest.mark.parametrize(
    "m",
    [Sphere(3), Euclidean(4), Product([SPD(2), Sphere(2), Hyperbolic(2)])],
    ids=lambda m: m.manifold_id,
)
def test_default_log_many_equals_stacked_single_calls(m):
    assert type(m).log_many is Manifold.log_many
    x = m.random_point(1)
    pts = [m.random_point(np.random.default_rng(i), center=x, radius=1.0) for i in range(5)]
    targets = np.stack([p.coords for p in pts])
    logs = m.log_many(x, targets)
    assert logs.shape == targets.shape
    assert np.array_equal(logs, np.stack([m.log(x, p).coords for p in pts]))


def test_spd_batched_shapes_and_non_pd_base():
    m = SPD(3)
    for n in (1, 5):
        targets = np.stack(make_spd_dataset(3, n, (0.5, 2.0), seed=0))
        x = m.random_point(1)
        assert m.dist_many(x, targets).shape == (n,)
        assert m.log_many(x, targets).shape == (n, 3, 3)
    bad = Point(np.diag([1.0, -1.0, 2.0]), m.manifold_id)
    with pytest.raises(GeometryError):
        m.dist_many(bad, targets)
    with pytest.raises(GeometryError):
        m.log_many(bad, targets)


def test_spd_reported_curvature():
    m = SPD(4)
    assert m.curvature.kappa == -0.5
    assert m.curvature.K == 0.0


def test_product_factorwise_exactness(rng):
    spd = SPD(2)
    sph = Sphere(2)
    p = Product([spd, sph])
    x = p.random_point(rng)
    v = p.random_tangent(x, rng, norm=0.7)
    xs = p.split(x)
    vs = p.split_tangent(v)
    joint = p.exp(x, v)
    parts = [spd.exp(xs[0], vs[0]), sph.exp(xs[1], vs[1])]
    assert np.array_equal(joint.coords, p.join(parts).coords)
    # squared distances add over factors
    y = p.random_point(rng, center=x, radius=0.5)
    ys = p.split(y)
    assert p.dist(x, y) ** 2 == pytest.approx(
        spd.dist(xs[0], ys[0]) ** 2 + sph.dist(xs[1], ys[1]) ** 2, abs=1e-12
    )


def test_product_curvature_envelope():
    p = Product([SPD(2), Sphere(2)])
    assert p.curvature.kappa == -0.5
    assert p.curvature.K == 1.0
    assert p.curvature.K_m == 1.0


def test_random_point_determinism():
    for m in (Euclidean(3), Sphere(2), Hyperbolic(2), SPD(2), Product([SPD(2), Sphere(2)])):
        a = m.random_point(42)
        b = m.random_point(42)
        assert np.array_equal(a.coords, b.coords)


def test_random_point_ball_contract(rng):
    h = Hyperbolic(2)
    c = h.base_point()
    for seed in range(30):
        p = h.random_point(seed, center=c, radius=1.0)
        assert h.dist(p, c) <= 1.0 + 1e-12


def test_random_spd_eigenvalue_range():
    m = SPD(4, eig_range=(0.3, 2.5))
    for seed in range(20):
        X = m.random_point(seed)
        w = np.linalg.eigvalsh(X.coords)
        assert w.min() >= 0.3 - 1e-12 and w.max() <= 2.5 + 1e-12


def test_random_tangent_contract(rng):
    for m in (Euclidean(3), Sphere(3), Hyperbolic(3), SPD(2)):
        x = m.random_point(rng)
        v = m.random_tangent(x, rng, norm=2.5)
        assert m.norm(x, v) == pytest.approx(2.5, abs=1e-10)
        assert m.tangent_defect(x, v.coords) < 1e-9
        z = m.random_tangent(x, rng, norm=0.0)
        assert m.norm(x, z) == 0.0


def test_sphere_tangent_orthogonality(rng):
    s = Sphere(4)
    x = s.random_point(rng)
    v = s.random_tangent(x, rng, norm=1.0)
    assert abs(np.dot(x.coords, v.coords)) < 1e-12


def test_point_checks():
    s = Sphere(2)
    p = s.base_point()
    s.check_point(p)
    bad = type(p)(np.array([1.0, 1.0, 0.0]), p.manifold_id)
    with pytest.raises(GeometryError):
        s.check_point(bad)
    h = Hyperbolic(2)
    with pytest.raises(GeometryError):
        h.check_point(s.base_point())
