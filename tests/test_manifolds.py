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
from riopt.geometry import Point, TangentVector

from agreement import assert_agree


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


def _spd_dist_log_cholesky(X, Y):
    """The single-matrix affine-invariant dist and log, written out longhand
    as SPD whitens: by the Cholesky factor L of X and its inverse."""
    L = np.linalg.cholesky(0.5 * (X + X.T))
    Li = np.linalg.inv(L)
    M = Li @ Y @ Li.T
    M = 0.5 * (M + M.T)
    dist = float(np.linalg.norm(np.log(np.maximum(np.linalg.eigvalsh(M), 1e-300))))
    wm, Vm = np.linalg.eigh(M)
    G = L @ ((Vm * np.log(wm)) @ Vm.T) @ L.T
    return dist, 0.5 * (G + G.T)


# The textbook forms through the symmetric square root X^(1/2), a second
# reference that shares no factorization with SPD's kernels.
def _spd_sqrt_pair(X):
    w, V = np.linalg.eigh(0.5 * (X + X.T))
    return (V * np.sqrt(w)) @ V.T, (V / np.sqrt(w)) @ V.T


def _spd_dist_log_reference(X, Y):
    """The single-matrix affine-invariant dist and log, written out longhand."""
    S, Si = _spd_sqrt_pair(X)
    M = Si @ Y @ Si
    M = 0.5 * (M + M.T)
    dist = float(np.linalg.norm(np.log(np.maximum(np.linalg.eigvalsh(M), 1e-300))))
    wm, Vm = np.linalg.eigh(M)
    L = S @ ((Vm * np.log(wm)) @ Vm.T) @ S
    return dist, 0.5 * (L + L.T)


def _spd_exp_reference(X, V):
    S, Si = _spd_sqrt_pair(X)
    w, Q = np.linalg.eigh(0.5 * (Si @ V @ Si + (Si @ V @ Si).T))
    E = S @ ((Q * np.exp(w)) @ Q.T) @ S
    return 0.5 * (E + E.T)


def _spd_transport_reference(X, Y, V):
    """(Y X^-1)^(1/2) V (Y X^-1)^(T/2), the root as X^(1/2) M^(1/2) X^(-1/2)."""
    S, Si = _spd_sqrt_pair(X)
    w, Q = np.linalg.eigh(0.5 * (Si @ Y @ Si + (Si @ Y @ Si).T))
    E = S @ ((Q * np.sqrt(w)) @ Q.T) @ Si
    return 0.5 * (E @ V @ E.T + (E @ V @ E.T).T)


def _spd_inner_reference(X, U, V):
    return float(np.trace(np.linalg.solve(X, U) @ np.linalg.solve(X, V)))


def test_spd_batched_dist_log_bitwise_equal_to_single_calls():
    m = SPD(10)
    anchors = np.stack(make_spd_dataset(10, 40, (0.2, 4.5), seed=3))
    at_anchor = Point(anchors[7].copy(), m.manifold_id)
    cloud = Point(anchors, m.manifold_id)
    for x in (m.random_point(11), at_anchor):
        dists = m.dist(x, cloud)
        logs = m.log(x, cloud).coords
        for i, A in enumerate(anchors):
            y = Point(A, m.manifold_id)
            ref_dist, ref_log = _spd_dist_log_cholesky(x.coords, A)
            assert dists[i] == m.dist(x, y) == ref_dist
            assert np.array_equal(logs[i], m.log(x, y).coords)
            assert np.array_equal(logs[i], ref_log)
    # the distance of an anchor to itself is rounding noise, not exactly 0
    assert m.dist(at_anchor, cloud)[7] < 1e-12


@pytest.mark.parametrize("d", [2, 5, 10])
def test_spd_cholesky_whitening_agrees_with_the_symmetric_root_forms(d):
    # the closed forms are invariant under congruence, so whitening by the
    # Cholesky factor gives the textbook X^(1/2) forms up to rounding
    m = SPD(d, eig_range=(0.2, 4.5))
    rng = np.random.default_rng(d)
    for _ in range(5):
        x, y = m.random_point(rng), m.random_point(rng)
        u, v = (m.random_tangent(x, rng, norm=0.8) for _ in range(2))
        X, Y = x.coords, y.coords
        ref_dist, ref_log = _spd_dist_log_reference(X, Y)
        assert_agree(m.dist(x, y), ref_dist, "dist")
        assert_agree(m.log(x, y).coords, ref_log, "log")
        assert_agree(m.exp(x, v).coords, _spd_exp_reference(X, v.coords), "exp")
        moved = m.transport(x, y, v).coords
        assert_agree(moved, _spd_transport_reference(X, Y, v.coords), "transport")
        assert_agree(m.inner(x, u, v), _spd_inner_reference(X, u.coords, v.coords), "inner")


def test_spd_log_dist_takes_log_and_dist_from_one_eigh(linalg_calls):
    m = SPD(10)
    anchors = np.stack(make_spd_dataset(10, 40, (0.2, 4.5), seed=3))
    cloud = Point(anchors, m.manifold_id)
    for x in (m.random_point(11), Point(anchors[7].copy(), m.manifold_id)):
        logs, dists = m._log_dist(x, cloud)
        # the base's Cholesky factor, then one eigh over the whitened cloud
        assert linalg_calls[-2:] == [("cholesky", ()), ("eigh", (40,))]
        # log is _log_dist's first half; dist takes eigvalsh, whose eigenvalues
        # round differently from eigh's
        assert np.array_equal(logs, m.log(x, cloud).coords)
        assert_agree(dists, m.dist(x, cloud))
    # at the anchor: rounding noise, far below the anchor tolerance
    assert dists[7] < 1e-12


@pytest.mark.parametrize(
    "m",
    [Sphere(3), Euclidean(4), Product([SPD(2), Sphere(2), Hyperbolic(2)])],
    ids=lambda m: m.manifold_id,
)
def test_default_log_many_equals_stacked_single_calls(m):
    # the log of a cloud at a single base gives the bits of the single calls:
    # the sphere's kernel makes its single body's calls row by row
    x = m.random_point(1)
    pts = [m.random_point(np.random.default_rng(i), center=x, radius=1.0) for i in range(5)]
    targets = np.stack([p.coords for p in pts])
    logs = m.log(x, Point(targets, m.manifold_id)).coords
    assert logs.shape == targets.shape
    assert np.array_equal(logs, np.stack([m.log(x, p).coords for p in pts]))


def _hyperbolic_cloud_log_dist_longhand(xc, targets):
    """log and dist of a cloud at a single base, written out: one gemv per base."""
    mdot = targets[:, :-1] @ xc[:-1] - targets[:, -1] * xc[-1]
    diff = targets - xc[None, :]
    q = np.maximum(np.sum(diff[:, :-1] ** 2, axis=1) - diff[:, -1] ** 2, 0.0)
    d = 2.0 * np.arcsinh(0.5 * np.sqrt(q))
    u = targets + mdot[:, None] * xc[None, :]
    nu = np.sqrt(np.maximum(np.sum(u[:, :-1] ** 2, axis=1) - u[:, -1] ** 2, 0.0))
    return u * np.where(nu > 0, d / np.where(nu > 0, nu, 1.0), 0.0)[:, None], d


@pytest.mark.parametrize("dim", [1, 2, 10])
def test_hyperbolic_stacked_base_log_many_bitwise_equal_per_base_calls(dim):
    h = Hyperbolic(dim)
    rng = np.random.default_rng(dim)
    base = h.base_point()
    pts = [h.random_point(rng, center=base, radius=1.5).coords for _ in range(20)]
    pts[7] = pts[6].copy()  # coincident targets
    targets = np.stack(pts)
    xs = [h.random_point(rng, center=base, radius=1.5) for _ in range(14)]
    xs[2] = Point(targets[6].copy(), h.manifold_id)  # a base on a target
    cloud = Point(targets, h.manifold_id)
    for bases in (xs, xs[:1]):  # m = 14 and m = 1
        X = Point(np.stack([x.coords for x in bases]), h.manifold_id)
        # the shared cloud, broadcast over the bases or on a length-1 axis
        Y = Point(np.broadcast_to(targets, (len(bases),) + targets.shape), h.manifold_id)
        logs, dists = h.log(X, Y).coords, h.dist(X, Y)
        Y1 = Point(targets[None], h.manifold_id)
        assert _bits(h.log(X, Y1).coords) == _bits(logs) and _bits(h.dist(X, Y1)) == _bits(dists)
        assert logs.shape == (len(bases),) + targets.shape
        assert dists.shape == (len(bases), len(targets))
        want = [_hyperbolic_cloud_log_dist_longhand(x.coords, targets) for x in bases]
        assert_agree(logs, np.stack([w[0] for w in want]))
        assert_agree(dists, np.stack([w[1] for w in want]))
        for x, (log_x, dist_x) in zip(bases, want):
            assert_agree(h.log(x, cloud).coords, log_x)
            assert_agree(h.dist(x, cloud), dist_x)
    assert h.dist(xs[2], cloud)[6] == 0.0
    assert not h.log(xs[2], cloud).coords[[6, 7]].any()


@pytest.mark.parametrize("dim, n", [(2, 3), (2, 5), (10, 20)])
def test_hyperbolic_row_paired_targets_log_many_bitwise_equal_per_row_calls(dim, n):
    # n == ambient (dim 2, n 3) is the shape where indexing the time
    # coordinate along the wrong axis goes unnoticed by broadcasting
    h = Hyperbolic(dim)
    rng = np.random.default_rng(n)
    base = h.base_point()
    xs = [h.random_point(rng, center=base, radius=1.5) for _ in range(6)]
    clouds = np.stack(
        [[h.random_point(rng, center=x, radius=1.0).coords for _ in range(n)] for x in xs]
    )
    clouds[3, 1] = xs[3].coords  # a target on its base
    X, Y = Point(np.stack([x.coords for x in xs]), h.manifold_id), Point(clouds, h.manifold_id)
    logs, dists = h.log(X, Y).coords, h.dist(X, Y)
    assert logs.shape == clouds.shape and dists.shape == clouds.shape[:2]
    per_row = [Point(c, h.manifold_id) for c in clouds]
    assert_agree(logs, np.stack([h.log(x, c).coords for x, c in zip(xs, per_row)]))
    assert_agree(dists, np.stack([h.dist(x, c) for x, c in zip(xs, per_row)]))
    want = [_hyperbolic_cloud_log_dist_longhand(x.coords, c) for x, c in zip(xs, clouds)]
    assert_agree(logs, np.stack([w[0] for w in want]))
    assert dists[3, 1] == 0.0 and not logs[3, 1].any()


def test_spd_batched_shapes_and_non_pd_base():
    m = SPD(3)
    for n in (1, 5):
        targets = Point(np.stack(make_spd_dataset(3, n, (0.5, 2.0), seed=0)), m.manifold_id)
        x = m.random_point(1)
        assert m.dist(x, targets).shape == (n,)
        assert m.log(x, targets).coords.shape == (n, 3, 3)
    bad = Point(np.diag([1.0, -1.0, 2.0]), m.manifold_id)
    with pytest.raises(GeometryError):
        m.dist(bad, targets)
    with pytest.raises(GeometryError):
        m.log(bad, targets)


def _spd_calls_at(m, x, y, v, anchors):
    """Every SPD operation that factors its base point, at base x."""
    return [
        m.exp(x, TangentVector(x, v)).coords,
        m.log(x, y).coords,
        m.transport(x, y, TangentVector(x, v)).coords,
        m.dist(x, Point(anchors, m.manifold_id)),
        m.log(x, Point(anchors, m.manifold_id)).coords,
    ]


def test_spd_memoized_factor_gives_the_bits_of_a_fresh_point():
    m = SPD(6)
    anchors = np.stack(make_spd_dataset(6, 5, (0.2, 4.5), seed=2))
    x, y = m.random_point(4), m.random_point(5)
    v = m.random_tangent(x, 6, norm=0.8).coords
    _spd_calls_at(m, x, y, v, anchors)
    assert "spd_chol" in x.memo
    # every call now reads the stored factors; the copy factors afresh
    stored = _spd_calls_at(m, x, y, v, anchors)
    fresh = _spd_calls_at(m, x.copy(), y, v, anchors)
    for a, b in zip(stored, fresh):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("d", [2, 3])
def test_spd_transport_on_a_stacked_base_bitwise_equal_per_row_calls(d):
    m = SPD(d)
    xs, ys, vs, _ = _row_cases(m)
    X, Y = _stack(m, xs), _stack(m, ys)
    V = TangentVector(X, np.stack([v.coords for v in vs]))
    moved = m.transport(X, Y, V)
    assert moved.base is Y
    loop = [m.transport(x, y, v).coords for x, y, v in zip(xs, ys, vs)]
    assert _bits(moved.coords) == _bits(loop)


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
    # a factor's Cholesky factor, stored through one joint operation, serves the next
    p.exp(z, v)
    assert "spd_chol" in parts[0].memo


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


def test_product_sums_over_factors_add_left_to_right(request):
    # a single dist or inner sums one float per factor; over six factors a
    # compensated sum moves the last bit of some, so a product that took
    # the builtin sum would move with it
    p = Product([Hyperbolic(2), Sphere(2), SPD(2), Euclidean(2), Sphere(3), Hyperbolic(3)])
    rng = np.random.default_rng(3)
    xs = [p.random_point(rng) for _ in range(40)]
    ys = [p.random_point(rng, center=x, radius=1.0) for x in xs]
    vs = [p.random_tangent(x, rng) for x in xs]

    def values():
        return np.array([[p.dist(x, y), p.inner(x, v, p.log(x, y))]
                         for x, y, v in zip(xs, ys, vs)])

    before = values()
    request.getfixturevalue("compensated_sum")
    assert before.tobytes() == values().tobytes()


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
        # v is tangent at x: projecting it onto the tangent space keeps it
        np.testing.assert_allclose(m.to_tangent(x, v.coords).coords, v.coords, rtol=0, atol=1e-9)
        z = m.random_tangent(x, rng, norm=0.0)
        assert m.norm(x, z) == 0.0


def test_sphere_tangent_orthogonality(rng):
    s = Sphere(4)
    x = s.random_point(rng)
    v = s.random_tangent(x, rng, norm=1.0)
    assert abs(np.dot(x.coords, v.coords)) < 1e-12


# ----------------------------------------------- stacked operands, by rows
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


ROW_MANIFOLDS = [
    Euclidean(3),
    Sphere(2),
    Hyperbolic(2),
    SPD(2),
    SPD(3),
    Product([SPD(2), SPD(2)]),  # one manifold: the stacks fold
    Product([SPD(2), Sphere(2)]),  # mixed: one call per factor
]
ROW_IDS = ["euclidean", "sphere", "hyperbolic", "spd2", "spd3", "spd2x2", "spd_sphere"]


def _has_spd(m):
    return any(isinstance(f, SPD) for f in getattr(m, "factors", [m]))


def _assert_rows_match(m, got, want):
    """Bitwise where each operation is one body over single points and
    stacks; on Hyperbolic, whose exp and inner keep a scalar single-point
    body, within the agreement bound."""
    if isinstance(m, Hyperbolic):
        assert_agree(got, want)
    else:
        assert _bits(got) == _bits(want)


@pytest.mark.parametrize("m", ROW_MANIFOLDS, ids=ROW_IDS)
def test_row_forms_bitwise_equal_single_calls(m):
    # stacked operands against single points at each row: bitwise where
    # the operation is one body (to_tangent, inner; every manifold but
    # Hyperbolic throughout), else within the agreement bound
    xs, ys, vs, raw = _row_cases(m)
    X, Y = _stack(m, xs), _stack(m, ys)
    V = TangentVector(X, np.stack([v.coords for v in vs]))
    W = m.to_tangent(X, raw)
    loop_W = [m.to_tangent(x, r) for x, r in zip(xs, raw)]
    assert _bits(W.coords) == _bits([w.coords for w in loop_W])
    assert _bits(m.inner(X, V, V)) == _bits([m.inner(x, v, v) for x, v in zip(xs, vs)])
    assert _bits(m.inner(X, V, W)) == _bits(
        [m.inner(x, v, w) for x, v, w in zip(xs, vs, loop_W)]
    )
    _assert_rows_match(m, m.exp(X, V).coords, [m.exp(x, v).coords for x, v in zip(xs, vs)])
    _assert_rows_match(m, m.dist(X, Y), [m.dist(x, y) for x, y in zip(xs, ys)])
    _assert_rows_match(m, m.log(X, Y).coords, [m.log(x, y).coords for x, y in zip(xs, ys)])
    # zero tangent -> the base row; coincident target -> distance and log 0
    assert _bits(m.exp(X, V).coords[1]) == _bits(m.exp(xs[1], vs[1]).coords)
    if not _has_spd(m):
        assert np.array_equal(m.exp(X, V).coords[1], xs[1].coords)
        assert m.dist(X, Y)[2] == 0.0
        assert not m.log(X, Y).coords[2].any()


@pytest.mark.parametrize("m", ROW_MANIFOLDS, ids=ROW_IDS)
def test_cloud_dist_and_log_agree_with_single_calls(m):
    # a y with one more leading axis than x: an (n, ...) cloud at a single
    # base, an (m, n, ...) cloud per row of a stacked base
    xs = _row_cases(m)[0]
    rng = np.random.default_rng(5)
    clouds = [[m.random_point(rng, center=x, radius=0.8) for _ in range(3)] for x in xs]
    clouds[2][1] = Point(xs[2].coords.copy(), m.manifold_id)  # a cloud point on its base
    want_d = [[m.dist(x, p) for p in c] for x, c in zip(xs, clouds)]
    want_log = [[m.log(x, p).coords for p in c] for x, c in zip(xs, clouds)]
    for x, c, d, log in zip(xs, clouds, want_d, want_log):
        cloud = _stack(m, c)
        assert_agree(m.dist(x, cloud), d)
        assert_agree(m.log(x, cloud).coords, log)
    X, Y = _stack(m, xs), Point(np.stack([_stack(m, c).coords for c in clouds]), m.manifold_id)
    assert_agree(m.dist(X, Y), want_d)
    assert_agree(m.log(X, Y).coords, want_log)
    if not _has_spd(m):
        assert m.dist(X, Y)[2, 1] == 0.0 and not m.log(X, Y).coords[2, 1].any()


def test_sphere_cloud_dist_and_log_bitwise_equal_to_single_calls():
    # one kernel serves the single calls, the clouds and the stacked clouds,
    # so each row makes the single call's ufunc calls (numpy's arctan2 among
    # them) and gets its bits
    m = Sphere(3)
    rng = np.random.default_rng(0)
    xs = [m.random_point(rng) for _ in range(4)]
    clouds = [[m.random_point(rng, center=x, radius=3.0) for _ in range(100)] for x in xs]
    X, Y = _stack(m, xs), Point(np.stack([_stack(m, c).coords for c in clouds]), m.manifold_id)
    stacked_d, stacked_log = m.dist(X, Y), m.log(X, Y).coords
    for x, c, d, log in zip(xs, clouds, stacked_d, stacked_log):
        cloud = _stack(m, c)
        for row_d, row_log in ((m.dist(x, cloud), m.log(x, cloud).coords), (d, log)):
            assert _bits(row_d) == _bits([m.dist(x, p) for p in c])
            assert _bits(row_log) == _bits([m.log(x, p).coords for p in c])


@pytest.mark.parametrize("m", ROW_MANIFOLDS, ids=ROW_IDS)
def test_row_forms_broadcast_a_single_base(m):
    xs, ys, vs, raw = _row_cases(m)
    x = m.base_point()
    W = m.to_tangent(x, raw)
    loop_W = [m.to_tangent(x, r) for r in raw]
    assert _bits(W.coords) == _bits([w.coords for w in loop_W])
    assert _bits(m.inner(x, W, W)) == _bits([m.inner(x, w, w) for w in loop_W])
    step = TangentVector(x, 0.4 * W.coords)
    _assert_rows_match(m, m.exp(x, step).coords, [m.exp(x, 0.4 * w).coords for w in loop_W])
    Y = _stack(m, ys)
    _assert_rows_match(m, m.dist(x, Y), [m.dist(x, y) for y in ys])
    _assert_rows_match(m, m.log(x, Y).coords, [m.log(x, y).coords for y in ys])


@pytest.mark.parametrize("m", ROW_MANIFOLDS, ids=ROW_IDS)
def test_dist_and_log_rows_take_single_points_as_one_row(m):
    # single points agree with the one-row stacks of them
    xs, ys, _, _ = _row_cases(m)
    for x, y in zip(xs, ys):  # with the base point and a coincident pair
        X1, Y1 = _stack(m, [x]), _stack(m, [y])
        assert_agree(m.dist(X1, Y1), [m.dist(x, y)])
        assert_agree(m.log(X1, Y1).coords, [m.log(x, y).coords])


@pytest.mark.parametrize("dim", [1, 2, 10])
def test_hyperbolic_transport_rows_bitwise_equal_transport(dim):
    # row 2 is coincident (x == y, v kept); row 1 moves the zero tangent
    m = Hyperbolic(dim)
    xs, ys, vs, _ = _row_cases(m, seed=dim)
    X, Y = _stack(m, xs), _stack(m, ys)
    V = TangentVector(X, np.stack([v.coords for v in vs]))
    rows = m.transport(X, Y, V).coords
    loop = [m.transport(x, y, v).coords for x, y, v in zip(xs, ys, vs)]
    assert _bits(rows) == _bits(loop)
    assert _bits(rows[2]) == _bits(vs[2].coords) and vs[2].coords.any()
    # every row coincident, and a single base that broadcasts
    assert _bits(m.transport(X, X, V).coords) == _bits(V.coords)
    x = m.base_point()
    W = TangentVector(x, m.to_tangent(x, 0.3 * V.coords).coords)
    assert _bits(m.transport(x, Y, W).coords) == _bits(
        [m.transport(x, y, TangentVector(x, w)).coords for y, w in zip(ys, W.coords)]
    )


def test_hyperbolic_transport_rows_squares_each_distance_as_transport_does():
    # 2,000 stacked rows against the single call at each
    m = Hyperbolic(2)
    rng = np.random.default_rng(0)
    n = 2000
    X = m.random_point_rows(m.base_point(), rng.standard_normal((n, 3)), rng.uniform(size=n), 2.0)
    Y = m.random_point_rows(X, rng.standard_normal((n, 3)), rng.uniform(size=n), 1.0)
    V = m.to_tangent(X, rng.standard_normal((n, 3)))
    xs, ys = ([Point(row, m.manifold_id) for row in P.coords] for P in (X, Y))
    loop = [m.transport(x, y, TangentVector(x, v)).coords for x, y, v in zip(xs, ys, V.coords)]
    assert_agree(m.transport(X, Y, V).coords, loop)


def test_hyperbolic_transport_stays_exact_as_the_points_coincide():
    # y = cosh(d) x + sinh(d) e for a unit tangent e at x; the transport of v
    # adds <e, v> ((cosh d - 1) e + sinh d x), with cosh d - 1 = 2 sinh^2(d/2)
    # so that no digits cancel. On these rows a reflection through the log
    # directions was off by 0.14 |v| at d = 1e-15 and 2e-6 |v| at d = 1e-12.
    m = Hyperbolic(3)
    rng = np.random.default_rng(10)
    ds = np.array([0.0, 1e-15, 1e-12, 1e-8, 1e-4, 0.5, 2.0])
    n = len(ds)
    X = m.random_point_rows(m.base_point(), rng.standard_normal((n, 4)), rng.uniform(size=n), 2.0)
    E = m.to_tangent(X, rng.standard_normal((n, 4)))
    E = TangentVector(X, E.coords / m.norm(X, E)[:, None])
    V = m.to_tangent(X, rng.standard_normal((n, 4)))
    d = ds[:, None]
    Y = Point(np.cosh(d) * X.coords + np.sinh(d) * E.coords, m.manifold_id)
    a = m.inner(X, E, V)[:, None]
    want = V.coords + a * (2.0 * np.sinh(d / 2.0) ** 2 * E.coords + np.sinh(d) * X.coords)
    got = m.transport(X, Y, V).coords
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(V.coords).max())
    assert _bits(got[0]) == _bits(V.coords[0])  # d = 0: v as it is
    for i in range(n):
        x, y = (Point(P.coords[i], m.manifold_id) for P in (X, Y))
        single = m.transport(x, y, TangentVector(x, V.coords[i])).coords
        np.testing.assert_allclose(single, want[i], rtol=0, atol=1e-13 * np.abs(V.coords).max())
    # a zero tangent stays zero
    assert not m.transport(X, Y, m.zero_tangent(X)).coords.any()


def test_sphere_rows_raise_at_an_antipodal_pair():
    m = Sphere(2)
    xs, ys, _, _ = _row_cases(m)
    ys[4] = Point(-xs[4].coords, m.manifold_id)
    with pytest.raises(GeometryError, match="antipodal"):
        m.log(xs[4], ys[4])
    with pytest.raises(GeometryError, match="antipodal"):
        m.log(_stack(m, xs), _stack(m, ys))


def test_spd_rows_raise_on_a_non_pd_matrix():
    m = SPD(2)
    xs, ys, vs, _ = _row_cases(m)
    xs[3] = Point(np.diag([1.0, -0.5]), m.manifold_id)
    X, Y = _stack(m, xs), _stack(m, ys)
    V = TangentVector(X, np.stack([v.coords for v in vs]))
    for call in (
        lambda: m.exp(X, V),
        lambda: m.log(X, Y),
        lambda: m.dist(X, Y),
        lambda: m.log(xs[3], ys[3]),
    ):
        with pytest.raises(GeometryError, match="positive definite"):
            call()
    assert X.memo == {}


@pytest.mark.parametrize("eig", [0.0, -1e-3])
def test_spd_log_of_a_target_not_positive_definite_raises_one_error(eig):
    # its whitened eigenvalue is eig: numpy's log of it used to warn and
    # return non-finite coordinates
    m = SPD(2)
    x, y = m.base_point(), Point(np.diag([1.0, eig]), m.manifold_id)
    for call in (
        lambda: m.log(x, y),
        lambda: m.log(_stack(m, [x, x]), _stack(m, [x, y])),
        lambda: m.log(x, Point(np.stack([x.coords, y.coords]), m.manifold_id)),
    ):
        with pytest.raises(GeometryError, match="log undefined"):
            call()


@pytest.mark.parametrize("eig", [0.0, -1.0])
def test_spd_dist_and_transport_to_a_target_not_positive_definite_raise(eig):
    # dist clamped the whitened eigenvalues at 1e-300 and returned 690.78 for
    # diag(1, -1); transport took their square roots, which warned and gave
    # NaN coordinates below 0
    m = SPD(2)
    x, y = m.base_point(), Point(np.diag([1.0, eig]), m.manifold_id)
    X, Y = _stack(m, [x, x]), _stack(m, [x, y])
    v, V = TangentVector(x, 0.1 * np.eye(2)), TangentVector(X, np.stack([0.1 * np.eye(2)] * 2))
    for op, call in (
        ("dist", lambda: m.dist(x, y)),
        ("dist", lambda: m.dist(X, Y)),
        ("dist", lambda: m.dist(x, Point(np.stack([x.coords, y.coords]), m.manifold_id))),
        ("transport", lambda: m.transport(x, y, v)),
        ("transport", lambda: m.transport(X, Y, V)),
    ):
        with pytest.raises(GeometryError, match=f"{op} undefined: a target is not positive"):
            call()


@pytest.mark.parametrize("m", ROW_MANIFOLDS, ids=ROW_IDS)
def test_row_exp_rejects_a_non_finite_tangent(m):
    xs, _, vs, _ = _row_cases(m)
    coords = np.stack([v.coords for v in vs])
    coords[5].flat[0] = np.nan
    X = _stack(m, xs)
    with pytest.raises(GeometryError, match="non-finite"):
        m.exp(xs[5], TangentVector(xs[5], coords[5]))
    with pytest.raises(GeometryError, match="non-finite"):
        m.exp(X, TangentVector(X, coords))


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
        m.exp(X, V)


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
        m.exp(X, TangentVector(X, np.stack([np.zeros((2, 2)), v.coords])))


def test_spd_exp_cap_reads_the_largest_diagonal_entry():
    # max diag X = 1 < lambda_max(X) = 1.9: the cap on a whitened eigenvalue
    # is log(float max) - log(2 * 1), above the old log(2 * 1.9) bound
    m = SPD(2)
    x = m.project(np.array([[1.0, 0.9], [0.9, 1.0]]))
    L = np.linalg.cholesky(x.coords)
    cap = math.log(np.finfo(float).max) - math.log(2.0)
    assert cap > math.log(np.finfo(float).max) - math.log(2.0 * 1.9)

    def step(c):
        # whitened by L^-1, this step is diag(c, 0)
        return TangentVector(x, L @ np.diag([c, 0.0]) @ L.T)

    y = m.exp(x, step(cap - 0.01))
    assert np.isfinite(y.coords).all()
    with pytest.raises(GeometryError, match="exp overflows"):
        m.exp(x, step(cap + 0.01))


def _non_pd_bases():
    inf_off_diagonal = np.eye(3)
    inf_off_diagonal[0, 1] = inf_off_diagonal[1, 0] = np.inf
    return {
        "indefinite": np.diag([1.0, -1.0, 2.0]),
        "zero": np.zeros((3, 3)),
        "nan": np.diag([1.0, np.nan, 2.0]),
        "inf": np.diag([1.0, np.inf, 2.0]),
        "inf_off_diagonal": inf_off_diagonal,
    }


@pytest.mark.parametrize("kind", list(_non_pd_bases()))
@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
def test_spd_non_pd_or_non_finite_base_raises_and_never_returns_nan(kind, stacked):
    m = SPD(3)
    coords = _non_pd_bases()[kind]
    if stacked:
        coords = np.stack([np.eye(3), coords])
    bad = Point(coords, m.manifold_id)
    y = Point(np.broadcast_to(2.0 * np.eye(3), coords.shape).copy(), m.manifold_id)
    v = TangentVector(bad, np.broadcast_to(0.1 * np.eye(3), coords.shape).copy())
    for call in (
        lambda: m.exp(bad, v),
        lambda: m.log(bad, y),
        lambda: m.dist(bad, y),
        lambda: m.transport(bad, y, v),
        lambda: m.inner(bad, v, v),
    ):
        with pytest.raises(GeometryError, match="matrix is not positive definite"):
            call()
    assert bad.memo == {}


# ------------------------------------------------- stacked kernels, stacks
@pytest.mark.parametrize("d", [2, 4, 10])
def test_numpy_stacked_kernels_give_each_matrix_the_bits_of_a_single_call(d):
    # Every stacked SPD call rests on this: numpy runs a stack of matrices
    # through the same LAPACK/BLAS call per matrix as a single matrix.
    rng = np.random.default_rng(d)
    n = 6
    A = rng.standard_normal((n, d, d))
    A = A @ A.mT + d * np.eye(d)
    B = rng.standard_normal((n, d, d))
    x = rng.standard_normal((n, d))
    w, V = np.linalg.eigh(A)
    sign, logdet = np.linalg.slogdet(A)
    for i in range(n):
        wi, Vi = np.linalg.eigh(A[i])
        assert _bits(w[i]) == _bits(wi) and _bits(V[i]) == _bits(Vi)
        assert _bits(np.linalg.eigvalsh(A)[i]) == _bits(np.linalg.eigvalsh(A[i]))
        assert (sign[i], logdet[i]) == np.linalg.slogdet(A[i])
        assert _bits(np.linalg.cholesky(A)[i]) == _bits(np.linalg.cholesky(A[i]))
        assert _bits(np.linalg.inv(A)[i]) == _bits(np.linalg.inv(A[i]))
        assert _bits(np.linalg.solve(A, B)[i]) == _bits(np.linalg.solve(A[i], B[i]))
        assert _bits((A @ B)[i]) == _bits(A[i] @ B[i])
        # a matrix against a stack, as a single base against its targets
        assert _bits((A[:, None] @ B)[i]) == _bits(A[i] @ B)
        # quadratic forms and matrix-vector products on rows
        quad = (x[:, None, :] @ A @ x[:, :, None])[:, 0, 0]
        assert _bits(quad[i]) == _bits(x[i] @ A[i] @ x[i])
        assert _bits(((2.0 * A) @ x[..., None])[i, :, 0]) == _bits(2.0 * A[i] @ x[i])


def test_a_stack_shares_each_factorization_with_its_rows(monkeypatch):
    m = SPD(3)
    rng = np.random.default_rng(1)
    a, b, c = (m.random_point(rng) for _ in range(3))
    m._factor(a)  # a is factored before it joins a stack
    calls = _count(monkeypatch, "cholesky")
    pair = m._factor(m.stack([a, b, b, c]))
    # only b and c are factored, b once, in one call
    assert calls == [2]
    for row, p in zip(pair[0], (a, b, b, c)):
        assert _bits(row) == _bits(m._factor(p)[0])
    assert _bits(pair[0][1]) == _bits(m._factor(b.copy())[0])
    assert calls == [2, 1]  # b.copy() is a new point
    # the rows now hold their factors: a new stack of them factors nothing
    m._factor(m.stack([c, b]))
    assert calls == [2, 1]


def test_product_rows_forms_bitwise_equal_single_calls():
    p = Product([SPD(2), Sphere(2)])
    rng = np.random.default_rng(4)
    xs = [p.random_point(rng) for _ in range(4)]
    ys = [p.random_point(rng, center=x, radius=0.5) for x in xs]
    vs = [p.random_tangent(x, rng, norm=0.4) for x in xs]
    X, Y = p.stack(xs), p.stack(ys)
    V = TangentVector(X, np.stack([v.coords for v in vs]))
    assert _bits(p.join(p.split(X)).coords) == _bits(X.coords)
    assert [f.coords.shape for f in p.split(X)] == [(4, 2, 2), (4, 3)]
    assert _bits(p.exp(X, V).coords) == _bits([p.exp(x, v).coords for x, v in zip(xs, vs)])
    assert _bits(p.log(X, Y).coords) == _bits([p.log(x, y).coords for x, y in zip(xs, ys)])
    assert _bits(p.inner(X, V, V)) == _bits([p.inner(x, v, v) for x, v in zip(xs, vs)])
    # a single base broadcasts over the rows of a tangent stack
    x = xs[0]
    W = TangentVector(x, np.stack([v.coords for v in vs]) * 0.5)
    assert _bits(p.exp(x, W).coords) == _bits(
        [p.exp(x, TangentVector(x, w)).coords for w in W.coords]
    )


FOLD_PRODUCTS = [
    Product([SPD(3), SPD(3)]),
    Product([SPD(2), SPD(2), SPD(2)]),
    Product([Hyperbolic(2), Hyperbolic(2)]),
    Product([Sphere(2), Sphere(2)]),
    Product([Euclidean(3), Euclidean(3)]),
    Product([SPD(2), Sphere(2)]),  # mixed: one call per factor
]
FOLD_IDS = ["spd3x2", "spd2x3", "hyperbolic2x2", "sphere2x2", "euclidean3x2", "spd_sphere"]


def _factorwise(p, X, Y, V, W):
    """Each stacked operation of p, run factor by factor on copies that share no memo."""
    x, y = (Point(a.coords.copy(), p.manifold_id) for a in (X, Y))
    xs, ys = p.split(x), p.split(y)
    vs, ws = (p.split_tangent(TangentVector(x, t.coords)) for t in (V, W))
    fs = p.factors
    return {
        "exp": p.join([f.exp(*a) for f, *a in zip(fs, xs, vs)]).coords,
        "log": p.join_tangent(x, [f.log(*a) for f, *a in zip(fs, xs, ys)]).coords,
        "inner": sum(f.inner(*a) for f, *a in zip(fs, xs, vs, ws)),
        "norm": sum(f.inner(*a) for f, *a in zip(fs, xs, vs, vs)),
        "transport": p.join_tangent(
            y, [f.transport(*a) for f, *a in zip(fs, xs, ys, vs)]
        ).coords,
    }


@pytest.mark.parametrize("p", FOLD_PRODUCTS, ids=FOLD_IDS)
def test_product_row_forms_bitwise_equal_the_factorwise_path_and_single_calls(p):
    xs, ys, vs, raw = _row_cases(p)
    ws = [p.to_tangent(x, r) for x, r in zip(xs, raw)]
    X, Y = p.stack(xs), p.stack(ys)
    V, W = (TangentVector(X, np.stack([t.coords for t in ts])) for ts in (vs, ws))
    rows = {
        "exp": p.exp(X, V).coords,
        "log": p.log(X, Y).coords,
        "inner": p.inner(X, V, W),
        "norm": p.inner(X, V, V),
        "transport": p.transport(X, Y, V).coords,
    }
    reference = _factorwise(p, X, Y, V, W)
    single = {
        "exp": [p.exp(x, v).coords for x, v in zip(xs, vs)],
        "log": [p.log(x, y).coords for x, y in zip(xs, ys)],
        "inner": [p.inner(x, v, w) for x, v, w in zip(xs, vs, ws)],
        "norm": [p.inner(x, v, v) for x, v in zip(xs, vs)],
        "transport": [p.transport(x, y, v).coords for x, y, v in zip(xs, ys, vs)],
    }
    for form, got in rows.items():
        assert _bits(got) == _bits(reference[form]), form
        assert_agree(got, single[form], form)
    # a one-row stack agrees with the single call; a single base broadcasts
    # over stacked rows
    x, y, v = xs[3], ys[3], vs[3]
    X1 = p.stack([x])
    V1 = TangentVector(X1, v.coords[None])
    assert_agree(p.transport(X1, p.stack([y]), V1).coords, [single["transport"][3]])
    assert_agree(p.exp(X1, V1).coords, [single["exp"][3]])
    U = TangentVector(x, 0.5 * V.coords)
    assert_agree(p.exp(x, U).coords, [p.exp(x, TangentVector(x, u)).coords for u in U.coords])
    assert_agree(p.log(x, Y).coords, [p.log(x, y).coords for y in ys])


def _count(monkeypatch, name):
    """The number of matrices in each np.linalg.<name> call, as calls happen."""
    calls = []
    original = getattr(np.linalg, name)

    def counting(M, *args, **kwargs):
        calls.append(int(np.prod(np.shape(M)[:-2])))
        return original(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


def test_folded_rows_share_square_roots_with_their_single_points(monkeypatch):
    p = Product([SPD(3), SPD(3)])
    rng = np.random.default_rng(5)
    a, b = (p.random_point(rng) for _ in range(2))
    # drawn at copies: a norm factors its base
    va, vb = (p.random_tangent(z.copy(), rng, norm=0.3) for z in (a, b))
    p.exp(a, va)  # factors a's two matrices, one by one
    chol, eigh = _count(monkeypatch, "cholesky"), _count(monkeypatch, "eigh")
    X = p.stack([a, b])
    p.exp(X, TangentVector(X, np.stack([va.coords, vb.coords])))
    # b's two Cholesky factors in one call (a keeps its own), then one exp
    # call over all four matrices
    assert chol == [2] and eigh == [4]
    p.exp(b, vb)  # b's factors hold their Cholesky factors: only the exps
    assert chol == [2] and eigh == [4, 1, 1]
    # a one-row tangent at single points folds too: one call over both factors
    p.transport(a, b, TangentVector(a, va.coords[None]))
    assert chol == [2] and eigh == [4, 1, 1, 2]


def test_single_product_calls_make_one_eigh_per_matrix(monkeypatch):
    # The single exp, log and transport stay per factor: perfbench reads
    # kernel.eigh.matrices == kernel.eigh.calls on single game steps
    p = Product([SPD(2), SPD(2)])
    rng = np.random.default_rng(6)
    x, y = (p.random_point(rng) for _ in range(2))
    v = p.random_tangent(x, rng, norm=0.3)
    calls = _count(monkeypatch, "eigh")
    p.exp(x, v), p.log(x, y), p.transport(x, y, v), p.exp(y, p.log(y, x))
    assert len(calls) > 0 and set(calls) == {1}


def test_hyperbolic_exp_past_float64_raises_geometry_error():
    # cosh(400) is finite, but the result's coordinates, squared by the
    # projection, are not; beyond ~710 math.cosh itself overflows
    m = Hyperbolic(2)
    x = m.base_point()
    for length in (400.0, 1e6):
        v = TangentVector(x, np.array([length, 0.0, 0.0]))
        with pytest.raises(GeometryError, match="exp overflows"):
            m.exp(x, v)
        X = _stack(m, [x, x])
        V = TangentVector(X, np.stack([np.zeros(3), v.coords]))
        with pytest.raises(GeometryError, match="exp overflows"):
            m.exp(X, V)
    # a long step that stays in range still works
    assert np.isfinite(m.exp(x, TangentVector(x, np.array([300.0, 0.0, 0.0]))).coords).all()


@pytest.mark.parametrize("m", [Sphere(3), Hyperbolic(3)], ids=["sphere", "hyperbolic"])
def test_row_kernels_edge_cases_raise_no_floating_point_error(m):
    xs, ys, vs, _ = _row_cases(m)
    X, Y = _stack(m, xs), _stack(m, ys)
    V = TangentVector(X, np.stack([v.coords for v in vs]))
    x, n = xs[3], len(xs)
    x1 = _stack(m, [x])
    with np.errstate(all="raise"):
        # a zero step returns the base bitwise, from a stacked, a one-row or
        # a single base
        for base in (X, x1, x):
            assert _bits(m.exp(base, m.zero_tangent(base)).coords) == _bits(base.coords)
        # coincident rows: distance and log exactly 0, transport keeps v
        for P in (X, x1, x):
            assert not np.any(m.dist(P, P)) and not m.log(P, P).coords.any()
        assert _bits(m.transport(X, X, V).coords) == _bits(V.coords)
        # a single base broadcasts over stacked rows; single points give a
        # single result
        assert m.dist(x, Y).shape == (n,) and m.log(x, Y).coords.shape == Y.coords.shape
        assert m.exp(x, TangentVector(x, V.coords)).coords.shape == V.coords.shape
        assert m.transport(x, ys[3], m.to_tangent(x, V.coords)).coords.shape == V.coords.shape
        assert type(m.dist(x, ys[3])) is float
        assert m.log(x, ys[3]).coords.shape == x.coords.shape
        moved = m.transport(x, ys[3], vs[3])
        assert moved.base is ys[3] and moved.coords.shape == x.coords.shape
        # a cloud at a single base, and one per row of a stacked base
        clouds = _stack(m, [Y] * n)
        assert m.dist(X, clouds).shape == clouds.coords.shape[:2]
        assert m.log(X, clouds).coords.shape == clouds.coords.shape
        assert not np.diagonal(m.dist(X, _stack(m, [X] * n))).any()


def test_hyperbolic_exp_past_the_cap_raises_only_geometry_error():
    m = Hyperbolic(3)
    xs, _, _, raw = _row_cases(m)
    X = _stack(m, xs)
    unit = m.to_tangent(X, raw).coords / m.norm(X, m.to_tangent(X, raw))[:, None]
    cap = m._exp_cap(X.coords)
    with np.errstate(all="raise"):
        # just past the cap, far past it, and so far that the norm's square
        # overflows (to inf, or inf - inf off the base point)
        for lengths in (cap + 1.0, np.full(len(xs), 1e6), np.full(len(xs), 1e200)):
            step = lengths[:, None] * unit
            with pytest.raises(GeometryError, match="exp overflows"):
                m.exp(X, TangentVector(X, step))
            for x, v in zip(xs, step):
                with pytest.raises(GeometryError, match="exp overflows"):
                    m.exp(x, TangentVector(x, v))


@pytest.mark.parametrize("m", ROW_MANIFOLDS, ids=ROW_IDS)
def test_single_operands_give_floats_and_stacks_give_arrays(m):
    xs, ys, vs, _ = _row_cases(m)
    X, Y = _stack(m, xs), _stack(m, ys)
    V = TangentVector(X, np.stack([v.coords for v in vs]))
    x, y, v = xs[3], ys[3], vs[3]
    for got in (m.inner(x, v, v), m.dist(x, y), m.norm(x, v)):
        assert type(got) is float
    for got in (m.inner(X, V, V), m.dist(X, Y), m.norm(X, V), m.dist(x, Y)):
        assert isinstance(got, np.ndarray) and got.shape == (len(xs),)
