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


def _spd_calls_at(m, x, y, v, anchors):
    """Every SPD operation that factors its base point, at base x."""
    return [
        m.exp(x, TangentVector(x, v)).coords,
        m.log(x, y).coords,
        m.transport(x, y, TangentVector(x, v)).coords,
        m.dist_many(x, anchors),
        m.log_many(x, anchors),
    ]


def test_spd_memoized_factor_gives_the_bits_of_a_fresh_point():
    m = SPD(6)
    anchors = np.stack(make_spd_dataset(6, 5, (0.2, 4.5), seed=2))
    x, y = m.random_point(4), m.random_point(5)
    v = m.random_tangent(x, 6, norm=0.8).coords
    _spd_calls_at(m, x, y, v, anchors)
    assert "spd_sqrt" in x.memo
    # every call now reads the stored square roots; the copy factors afresh
    stored = _spd_calls_at(m, x, y, v, anchors)
    fresh = _spd_calls_at(m, x.copy(), y, v, anchors)
    for a, b in zip(stored, fresh):
        assert np.array_equal(a, b)


def test_spd_non_pd_point_raises_on_every_call_and_stores_nothing():
    m = SPD(3)
    bad = Point(np.diag([1.0, -1.0, 2.0]), m.manifold_id)
    v = TangentVector(bad, np.eye(3))
    for _ in range(2):
        with pytest.raises(GeometryError):
            m.exp(bad, v)
        with pytest.raises(GeometryError):
            m.log(bad, m.base_point())
    assert bad.memo == {}


def test_spd_exp_past_float64_raises_geometry_error():
    m = SPD(2)
    x = m.base_point()
    with pytest.raises(GeometryError, match="exp overflows"):
        m.exp(x, TangentVector(x, np.diag([710.0, 0.0])))
    # a whitened eigenvalue just below log(float max) ~ 709.78 still works
    y = m.exp(x, TangentVector(x, np.diag([709.0, 0.0])))
    assert np.isfinite(y.coords).all()


def test_copy_and_project_start_with_an_empty_memo():
    m = SPD(3)
    x = m.random_point(0)
    m.log(x, m.base_point())
    assert x.memo
    assert x.copy().memo == {}
    assert m.project(x.coords).memo == {}
    p = Product([SPD(2), Sphere(2)])
    z = p.random_point(1)
    p.split(z)
    assert z.copy().memo == {} and p.project(z.coords).memo == {}


def test_product_split_returns_the_same_factor_points():
    p = Product([SPD(2), Sphere(2)])
    z = p.random_point(3)
    parts = p.split(z)
    assert isinstance(parts, tuple)
    assert all(a is b for a, b in zip(parts, p.split(z)))
    v = p.random_tangent(z, 4)
    assert all(vi.base is xi for vi, xi in zip(p.split_tangent(v), parts))
    # a factor's square root, stored through one joint operation, serves the next
    p.exp(z, v)
    assert "spd_sqrt" in parts[0].memo


def test_spd_and_product_norm_equal_inner_with_a_distinct_copy():
    for m in (SPD(4), Product([SPD(3), Sphere(2)])):
        x = m.random_point(7)
        v = m.random_tangent(x, 8, norm=1.3)
        w = TangentVector(x, v.coords.copy())
        assert m.inner(x, v, v) == m.inner(x, v, w)


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


# ------------------------------------------------------- row-paired forms
def _bits(a):
    a = np.asarray(a, dtype=float)
    return a.shape, a.tobytes()


def _row_cases(m, n=7, seed=11):
    """Stacked bases, targets and tangents with the edge rows of each form.

    Row 0 is the base point, row 1 has a zero tangent, row 2 a coincident
    target; the rest are random, with targets near their base.
    """
    rng = np.random.default_rng(seed)
    xs = [m.base_point()] + [m.random_point(rng, center=m.base_point(), radius=1.0)
                             for _ in range(n - 1)]
    ys = [m.random_point(rng, center=x, radius=0.8) for x in xs]
    ys[2] = Point(xs[2].coords.copy(), m.manifold_id)
    vs = [m.random_tangent(x, rng, norm=0.6) for x in xs]
    vs[1] = m.zero_tangent(xs[1])
    raw = rng.standard_normal((n,) + xs[0].coords.shape)
    return xs, ys, vs, raw


def _stack(m, pts):
    return Point(np.stack([p.coords for p in pts]), m.manifold_id)


ROW_MANIFOLDS = [Euclidean(3), Sphere(2), Hyperbolic(2), SPD(2), SPD(3)]
ROW_IDS = ["euclidean", "sphere", "hyperbolic", "spd2", "spd3"]


@pytest.mark.parametrize("m", ROW_MANIFOLDS, ids=ROW_IDS)
def test_row_forms_bitwise_equal_single_calls(m):
    xs, ys, vs, raw = _row_cases(m)
    X, Y = _stack(m, xs), _stack(m, ys)
    V = TangentVector(X, np.stack([v.coords for v in vs]))
    W = m.to_tangent_rows(X, raw)
    loop_W = [m.to_tangent(x, r) for x, r in zip(xs, raw)]
    assert _bits(W.coords) == _bits([w.coords for w in loop_W])
    assert _bits(m.inner_rows(X, V, V)) == _bits([m.inner(x, v, v) for x, v in zip(xs, vs)])
    assert _bits(m.inner_rows(X, V, W)) == _bits(
        [m.inner(x, v, w) for x, v, w in zip(xs, vs, loop_W)]
    )
    assert _bits(m.exp_rows(X, V).coords) == _bits(
        [m.exp(x, v).coords for x, v in zip(xs, vs)]
    )
    assert _bits(m.dist_rows(X, Y)) == _bits([m.dist(x, y) for x, y in zip(xs, ys)])
    assert _bits(m.log_rows(X, Y).coords) == _bits(
        [m.log(x, y).coords for x, y in zip(xs, ys)]
    )
    # zero tangent -> the base row; coincident target -> distance and log 0
    assert _bits(m.exp_rows(X, V).coords[1]) == _bits(m.exp(xs[1], vs[1]).coords)
    if not isinstance(m, SPD):
        assert np.array_equal(m.exp_rows(X, V).coords[1], xs[1].coords)
        assert m.dist_rows(X, Y)[2] == 0.0
        assert not m.log_rows(X, Y).coords[2].any()


@pytest.mark.parametrize("m", ROW_MANIFOLDS, ids=ROW_IDS)
def test_row_forms_broadcast_a_single_base(m):
    xs, ys, vs, raw = _row_cases(m)
    x = m.base_point()
    W = m.to_tangent_rows(x, raw)
    loop_W = [m.to_tangent(x, r) for r in raw]
    assert _bits(W.coords) == _bits([w.coords for w in loop_W])
    assert _bits(m.inner_rows(x, W, W)) == _bits([m.inner(x, w, w) for w in loop_W])
    step = TangentVector(x, 0.4 * W.coords)
    assert _bits(m.exp_rows(x, step).coords) == _bits(
        [m.exp(x, 0.4 * w).coords for w in loop_W]
    )
    Y = _stack(m, ys)
    assert _bits(m.dist_rows(x, Y)) == _bits([m.dist(x, y) for y in ys])
    assert _bits(m.log_rows(x, Y).coords) == _bits([m.log(x, y).coords for y in ys])


def test_sphere_rows_raise_at_an_antipodal_pair():
    m = Sphere(2)
    xs, ys, _, _ = _row_cases(m)
    ys[4] = Point(-xs[4].coords, m.manifold_id)
    with pytest.raises(GeometryError, match="antipodal"):
        m.log(xs[4], ys[4])
    with pytest.raises(GeometryError, match="antipodal"):
        m.log_rows(_stack(m, xs), _stack(m, ys))


def test_spd_rows_raise_on_a_non_pd_matrix():
    m = SPD(2)
    xs, ys, vs, _ = _row_cases(m)
    xs[3] = Point(np.diag([1.0, -0.5]), m.manifold_id)
    X, Y = _stack(m, xs), _stack(m, ys)
    V = TangentVector(X, np.stack([v.coords for v in vs]))
    for call in (
        lambda: m.exp_rows(X, V),
        lambda: m.log_rows(X, Y),
        lambda: m.dist_rows(X, Y),
        lambda: m.log(xs[3], ys[3]),
    ):
        with pytest.raises(GeometryError, match="positive definite"):
            call()
    assert X.memo == {}


@pytest.mark.parametrize("m", ROW_MANIFOLDS, ids=ROW_IDS)
def test_row_exp_rejects_a_non_finite_tangent(m):
    xs, _, vs, _ = _row_cases(m)
    coords = np.stack([v.coords for v in vs])
    coords[5].flat[0] = np.nan
    X = _stack(m, xs)
    with pytest.raises(GeometryError, match="non-finite"):
        m.exp(xs[5], TangentVector(xs[5], coords[5]))
    with pytest.raises(GeometryError, match="non-finite"):
        m.exp_rows(X, TangentVector(X, coords))


def test_hyperbolic_rows_raise_off_the_upper_hyperboloid():
    m = Hyperbolic(2)
    xs, _, vs, _ = _row_cases(m)
    # the lower sheet: exp stays there, so projection rejects the row
    xs[3] = Point(-xs[3].coords, m.manifold_id)
    vs[3] = TangentVector(xs[3], -vs[3].coords)
    X = _stack(m, xs)
    V = TangentVector(X, np.stack([v.coords for v in vs]))
    with pytest.raises(GeometryError, match="hyperboloid"):
        m.exp(xs[3], vs[3])
    with pytest.raises(GeometryError, match="hyperboloid"):
        m.exp_rows(X, V)


def test_spd_exp_counts_the_scale_of_the_base_point():
    # whitened eigenvalue 709 is below log(float max), but diag(100, 1) scales
    # e^709 past float64; this used to return inf coordinates
    m = SPD(2)
    x = m.project(np.diag([100.0, 1.0]))
    v = TangentVector(x, np.diag([70900.0, 0.0]))
    with pytest.raises(GeometryError, match="exp overflows"):
        m.exp(x, v)
    X = Point(np.stack([np.eye(2), x.coords]), m.manifold_id)
    with pytest.raises(GeometryError, match="exp overflows"):
        m.exp_rows(X, TangentVector(X, np.stack([np.zeros((2, 2)), v.coords])))
