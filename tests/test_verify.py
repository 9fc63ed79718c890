import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from riopt import (
    Euclidean,
    Hyperbolic,
    SPD,
    Sphere,
    correction_blowup_trace,
    fd_gradient_check,
    holonomy_probe,
    random_small_rectangles,
    triangle_comparison_suite,
)
from riopt.bench import ExperimentConfig, run_verification
from riopt.geometry import GeometryError, TangentVector, as_rng, sigma_constant, zeta_constant
from riopt.verify import ProbeReport
from riopt.streams import TAG_INIT, FrechetMeanLoss, child_rng

from agreement import assert_agree


# ------------------------------------------------------------- fd checking
def test_fd_frechet_loss_hyperbolic(rng):
    h = Hyperbolic(3)
    base = h.base_point()
    pts = np.stack([h.random_point(rng, center=base, radius=1.0).coords for _ in range(5)])
    loss = FrechetMeanLoss(h, pts)
    x = h.random_point(rng, center=base, radius=1.0)
    rep = fd_gradient_check(h, loss.value, loss.grad, x, n_dirs=10, h=1e-4, seed=3)
    assert rep.max_violation < 1e-5
    assert rep.samples == 10


def test_fd_linear_function_euclidean(rng):
    m = Euclidean(4)
    c = rng.standard_normal(4)
    f = lambda p: float(np.dot(c, p.coords))
    grad = lambda p: TangentVector(p, c.copy())
    rep = fd_gradient_check(m, f, grad, m.random_point(rng), n_dirs=6, seed=0)
    assert rep.max_violation < 1e-10


def test_fd_constant_function(rng):
    m = Sphere(2)
    f = lambda p: 1.5
    grad = lambda p: m.zero_tangent(p)
    rep = fd_gradient_check(m, f, grad, m.random_point(rng), n_dirs=4, seed=0)
    assert rep.max_violation == 0.0


def test_fd_requires_positive_step(rng):
    m = Euclidean(2)
    with pytest.raises(ValueError):
        fd_gradient_check(m, lambda p: 0.0, lambda p: m.zero_tangent(p), m.base_point(), h=0.0)


def test_fd_deterministic(rng):
    m = Euclidean(3)
    c = np.array([1.0, -2.0, 0.5])
    f = lambda p: float(np.dot(c, p.coords)) ** 2
    grad = lambda p: TangentVector(p, 2 * float(np.dot(c, p.coords)) * c)
    x = m.random_point(rng)
    a = fd_gradient_check(m, f, grad, x, n_dirs=5, seed=7)
    b = fd_gradient_check(m, f, grad, x, n_dirs=5, seed=7)
    assert a == b


# ----------------------------------------------------------- triangle suite
def test_triangles_flat_equality():
    rep = triangle_comparison_suite(Euclidean(3), 300, 2.0, seed=0)
    assert abs(rep.max_violation) < 1e-10


@pytest.mark.parametrize(
    "manifold,diam",
    [(Sphere(2), math.pi / 2 - 0.1), (Hyperbolic(2), 1.5), (SPD(2), 1.5)],
    ids=["sphere", "hyperbolic", "spd"],
)
def test_triangles_curved(manifold, diam):
    rep = triangle_comparison_suite(manifold, 1000, diam, seed=0)
    assert rep.max_violation <= 1e-8
    assert rep.samples == 1000


def _triangle_suite_longhand(manifold, n_triangles, max_diam, seed):
    """The per-triangle evaluation with single calls: the suite's reference."""
    rng = np.random.default_rng(seed)
    kappa, K = manifold.curvature.kappa, manifold.curvature.K
    worst = -math.inf
    worst_case = {}
    base = manifold.base_point()
    for k in range(n_triangles):
        A = manifold.random_point(rng, center=base, radius=max_diam)
        B = manifold.random_point(rng, center=A, radius=max_diam / 2.0)
        C = manifold.random_point(rng, center=A, radius=max_diam / 2.0)
        dAB, dAC, dBC = manifold.dist(A, B), manifold.dist(A, C), manifold.dist(B, C)
        diam = max(dAB, dAC, dBC)
        lhs = 2.0 * manifold.inner(A, manifold.log(A, C), manifold.log(A, B))
        upper = dAB**2 + zeta_constant(kappa, dAB) * dAC**2 - dBC**2
        lower = dAB**2 + sigma_constant(K, diam) * dAC**2 - dBC**2
        violation = max(lhs - upper, lower - lhs)
        if violation > worst:
            worst = violation
            worst_case = {
                "triangle_index": k,
                "d_AB": dAB,
                "d_AC": dAC,
                "d_BC": dBC,
                "lhs": lhs,
                "upper": upper,
                "lower": lower,
            }
    return ProbeReport(
        name=f"triangle_comparison[{manifold.manifold_id}]",
        max_violation=worst,
        samples=n_triangles,
        worst_case=worst_case,
    )


# the manifolds and diameters of `bench verify`
VERIFY_MANIFOLDS = [
    (Euclidean(3), 2.0),
    (Sphere(2), math.pi / 2 - 0.1),
    (Hyperbolic(2), 1.5),
    (SPD(2), 1.5),
]


@pytest.mark.parametrize("n", [50, 1000])
@pytest.mark.parametrize(
    "manifold,diam", VERIFY_MANIFOLDS, ids=["euclidean", "sphere", "hyperbolic", "spd"]
)
def test_triangle_suite_equals_the_per_triangle_evaluation(manifold, diam, n):
    for seed in range(8):
        got = triangle_comparison_suite(manifold, n, diam, seed=seed)
        want = _triangle_suite_longhand(manifold, n, diam, seed)
        assert (got.name, got.samples) == (want.name, want.samples)
        assert got.worst_case.keys() == want.worst_case.keys()
        index = "triangle_index"
        assert got.worst_case[index] == want.worst_case[index], seed
        values = [(got.max_violation, want.max_violation)] + [
            (got.worst_case[k], want.worst_case[k]) for k in want.worst_case if k != index
        ]
        assert_agree(*zip(*values), err_msg=f"seed {seed}")


@pytest.mark.parametrize("n", [0, -3])
def test_triangle_suite_rejects_no_triangles(n):
    with pytest.raises(ValueError, match="n_triangles"):
        triangle_comparison_suite(Euclidean(2), n, 1.0)


def test_triangle_suite_raises_on_a_non_finite_distance():
    class NanDistance(Euclidean):
        def dist(self, x, y):
            return np.where(x.coords[..., 0] > 0.5, math.nan, super().dist(x, y))

    with pytest.raises(GeometryError, match="non-finite"):
        triangle_comparison_suite(NanDistance(3), 50, 2.0, seed=0)


def test_triangle_suite_deterministic():
    a = triangle_comparison_suite(Hyperbolic(2), 50, 1.0, seed=4)
    b = triangle_comparison_suite(Hyperbolic(2), 50, 1.0, seed=4)
    assert a == b


# ---------------------------------------------------------------- holonomy
def test_holonomy_flat_vanishes(rng):
    m = Euclidean(3)
    corners, z = random_small_rectangles(m, rng, 20, scale=0.4)
    defect, bound = holonomy_probe(m, corners, z)
    assert defect.shape == bound.shape == (20,)
    assert np.all(defect < 1e-12)
    assert np.all(bound == 0.0)


def _equator_square(s, eps):
    p = s.base_point()
    e1 = s.to_tangent(p, np.array([0.0, 1.0, 0.0]))
    e2 = s.to_tangent(p, np.array([0.0, 0.0, 1.0]))
    c0 = p
    c1 = s.exp(p, eps * e1)
    c3 = s.exp(p, eps * e2)
    c2 = s.exp(c1, eps * s.transport(p, c1, e2))
    return [c0, c1, c2, c3]


def test_holonomy_sphere_small_square_excess():
    s = Sphere(2)
    for eps in (0.05, 0.01):
        corners = _equator_square(s, eps)
        z = s.random_tangent(corners[0], np.random.default_rng(3), norm=1.0)
        defect, bound = holonomy_probe(s, corners, z)
        assert defect <= bound
        assert defect / eps**2 == pytest.approx(1.0, rel=0.02)


def test_holonomy_degenerate_rectangle():
    s = Sphere(2)
    p = s.base_point()
    q = s.exp(p, 0.3 * s.to_tangent(p, np.array([0.0, 1.0, 0.0])))
    z = s.random_tangent(p, np.random.default_rng(5), norm=1.0)
    defect, _ = holonomy_probe(s, [p, q, q, p], z)
    assert defect < 1e-10


def _rectangle_longhand(manifold, rng, scale, raw_draws=None):
    """One rectangle from single calls, each draw made as ``random_point`` and
    ``random_tangent`` make it: the stacked sampler's reference. Appends the
    number of raw draws to ``raw_draws`` if given."""
    rng = as_rng(rng)
    p = manifold.random_point(rng)
    e1 = manifold.random_tangent(p, rng, norm=1.0)
    e2 = None
    for k in range(32):
        raw = manifold.random_tangent(p, rng, norm=1.0)
        cand = raw - manifold.inner(p, raw, e1) * e1
        n = manifold.norm(p, cand)
        if n > 1e-3:
            e2 = (1.0 / n) * cand
            break
    if e2 is None:
        raise GeometryError("could not draw two independent tangent directions")
    if raw_draws is not None:
        raw_draws.append(k + 1)
    a = scale * (0.5 + rng.uniform())
    b = scale * (0.5 + rng.uniform())
    c0 = p
    c1 = manifold.exp(p, a * e1)
    c3 = manifold.exp(p, b * e2)
    c2 = manifold.exp(c1, b * manifold.transport(p, c1, e2))
    z = manifold.random_tangent(c0, rng, norm=1.0)
    return [c0, c1, c2, c3], z


# seed -> e2 redraws among run_verification's 200 rectangles
@pytest.mark.parametrize("seed,redraws", [(0, 0), (3, 0), (7, 1), (39, 2)])
def test_stacked_rectangles_bitwise_equal_the_per_rectangle_longhand(seed, redraws):
    s = Sphere(2)
    rng = child_rng(seed, TAG_INIT, 7)
    raw_draws = []
    rects = [_rectangle_longhand(s, rng, 0.01, raw_draws) for _ in range(200)]
    assert sum(raw_draws) - len(raw_draws) == redraws

    corners, z = random_small_rectangles(s, child_rng(seed, TAG_INIT, 7), 200, 0.01)
    assert len(corners) == 4
    for k, corner in enumerate(corners):
        assert corner.coords.tobytes() == np.stack([c[k].coords for c, _ in rects]).tobytes()
    assert z.base is corners[0]
    assert z.coords.tobytes() == np.stack([w.coords for _, w in rects]).tobytes()


def test_rectangles_need_two_independent_directions():
    # on a line every raw direction is parallel to e1
    with pytest.raises(GeometryError, match="independent"):
        random_small_rectangles(Euclidean(1), 0, 3)
    with pytest.raises(ValueError, match="n must be"):
        random_small_rectangles(Sphere(2), 0, 0)


@pytest.mark.parametrize("seed", [0, 3])
def test_stacked_holonomy_probe_bitwise_equal_per_rectangle_loop(seed):
    # the rectangles of run_verification, drawn one at a time with single calls
    s = Sphere(2)
    rng = child_rng(seed, TAG_INIT, 7)
    rects = [_rectangle_longhand(s, rng, 0.01) for _ in range(200)]
    # the reference: one probe per rectangle, on single points
    loop = [holonomy_probe(s, corners, z) for corners, z in rects]
    assert all(type(d) is float and type(b) is float for d, b in loop)
    passed, worst = True, 0.0
    for d, b in loop:
        passed &= d <= b
        if b > 0:
            worst = max(worst, d / b)

    corners = [s.stack([c[k] for c, _ in rects]) for k in range(4)]
    z = TangentVector(corners[0], np.stack([z.coords for _, z in rects]))
    defect, bound = holonomy_probe(s, corners, z)
    assert defect.shape == bound.shape == (200,)
    assert defect.tobytes() == np.array([d for d, _ in loop]).tobytes()
    assert bound.tobytes() == np.array([b for _, b in loop]).tobytes()

    cfg = ExperimentConfig(experiment="verify", seed=seed, n_triangles=10)
    entry = run_verification(cfg)["checks"]["holonomy_sphere"]
    assert entry == {"passed": passed, "worst_defect_to_bound": worst}
    assert type(entry["worst_defect_to_bound"]) is float


def test_holonomy_requires_four_corners():
    s = Sphere(2)
    p = s.base_point()
    z = s.random_tangent(p, 0, norm=1.0)
    with pytest.raises(ValueError):
        holonomy_probe(s, [p, p, p], z)


# ----------------------------------------------------------- blowup trace
def test_blowup_first_values():
    trace = correction_blowup_trace(0.1, 1.0, 5)
    assert trace.values[0] == pytest.approx(0.075, abs=1e-12)
    assert trace.values[2] == pytest.approx(0.306, abs=5e-4)
    assert trace.diverged_at is None


def test_blowup_divergence_and_monotonicity():
    trace = correction_blowup_trace(0.1, 1.0, 50)
    assert np.all(np.diff(trace.values) > 0)
    assert trace.values.max() > 1e3
    assert trace.diverged_at is not None
    assert trace.diverged_at < 20  # escapes to infinity well before round 20
    assert len(trace.values) == trace.diverged_at - 1


def test_blowup_flat_case():
    trace = correction_blowup_trace(0.1, 0.0, 10)
    assert np.all(trace.values == 0.0)
    assert trace.diverged_at is None


# In a = A / etaG the recursion is a <- c (5 + 2a)^2 (3 + a) with
# c = K_m etaG^2. It escapes to infinity iff c > C_STAR, the largest c for
# which a fixed point exists; the double fixed point there is A_STAR.
A_STAR = (math.sqrt(69.0) - 3.0) / 4.0
C_STAR = A_STAR / ((5.0 + 2.0 * A_STAR) ** 2 * (3.0 + A_STAR))


def _smallest_fixed_point(c):
    """Smallest positive root of 4c a^3 + 32c a^2 + (85c - 1) a + 75c, c <= C_STAR.

    h(a) = c (5 + 2a)^2 (3 + a) - a is convex with h(0) > 0 >= h(A_STAR), so
    the root is the one sign change in [0, A_STAR]; bisect to the last bit.
    """
    lo, hi = 0.0, A_STAR
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if c * (5.0 + 2.0 * mid) ** 2 * (3.0 + mid) > mid:
            lo = mid
        else:
            hi = mid


def test_blowup_oracle_threshold():
    assert C_STAR == pytest.approx(5.2349e-3, rel=1e-4)
    assert math.sqrt(C_STAR) == pytest.approx(0.072353, rel=1e-5)
    a = _smallest_fixed_point(1e-3)
    assert 4e-3 * a**3 + 32e-3 * a**2 + (85e-3 - 1.0) * a + 75e-3 == pytest.approx(
        0.0, abs=1e-15
    )


@example(etaG=0.015625, Km=1.0)  # converges: the trace levels off at 2.9221e-4
@example(etaG=0.1, Km=1.0)  # escapes to infinity
@given(etaG=st.floats(0.01, 0.2), Km=st.floats(0.1, 2.0))
def test_blowup_strictly_increasing_once_positive(etaG, Km):
    trace = correction_blowup_trace(etaG, Km, 12)
    vals = trace.values
    # every operation of the recursion is monotone under rounding, so the
    # computed trace never decreases, in either regime
    assert vals[0] > 0
    assert np.all(np.diff(vals) >= 0)
    c = Km * etaG**2
    if c > C_STAR * (1.0 + 1e-9):
        # escaping regime: each step gains more than one ulp
        assert np.all(np.diff(vals) > 0)
    elif c <= C_STAR:
        # converging regime: the trace rises to the smallest fixed point and
        # may reach it to the last bit, after which steps are exactly 0
        assert trace.diverged_at is None
        assert vals.max() <= _smallest_fixed_point(c) * etaG * (1.0 + 1e-12)


def test_blowup_rejects_bad_horizon():
    with pytest.raises(ValueError):
        correction_blowup_trace(0.1, 1.0, 0)


def test_probe_report_serializes():
    rep = triangle_comparison_suite(Euclidean(2), 10, 1.0, seed=0)
    d = rep.to_dict()
    assert d["samples"] == 10
    assert "max_violation" in d and "worst_case" in d
