"""Independent numerical oracles for the geometry and the gradient fields.

Finite-difference gradient checks, geodesic-triangle comparison-inequality
sweeps, a holonomy probe around geodesic rectangles, and the distortion
recursion that shows why the corrected-memory variant blows up. Every probe
is deterministic for a fixed seed and serializes to JSON for the CLI.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import GeometryError, Manifold, Point, TangentVector, as_rng, ball_draws

# Central differences at h = 1e-4 balance truncation against rounding for
# doubles; probes compare at a matching relative tolerance of 1e-4.
FD_STEP_DEFAULT = 1e-4
FD_RTOL_DEFAULT = 1e-4


@dataclass(frozen=True)
class ProbeReport:
    """Worst violation observed over a fixed number of sampled checks."""

    name: str
    max_violation: float
    samples: int
    worst_case: dict

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def fd_gradient_check(
    manifold: Manifold,
    f: Callable[[Point], float],
    grad: Callable[[Point], TangentVector],
    x: Point,
    n_dirs: int = 8,
    h: float = FD_STEP_DEFAULT,
    seed: int = 0,
) -> ProbeReport:
    """Compare <grad f(x), v> with central differences of f along exp_x(t v).

    Relative error uses max(|analytic|, |numeric|, 1e-8) as denominator so
    constant functions report zero error.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    rng = as_rng(seed)
    g = grad(x)
    worst = -1.0
    worst_case: dict = {}
    for k in range(n_dirs):
        v = manifold.random_tangent(x, rng, norm=1.0)
        analytic = manifold.inner(x, g, v)
        fd = (f(manifold.exp(x, h * v)) - f(manifold.exp(x, -h * v))) / (2.0 * h)
        err = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-8)
        if err > worst:
            worst = err
            worst_case = {
                "direction_index": k,
                "analytic": analytic,
                "finite_difference": fd,
            }
    return ProbeReport(
        name="fd_gradient_check",
        max_violation=worst,
        samples=n_dirs,
        worst_case=worst_case,
    )


def triangle_comparison_suite(
    manifold: Manifold,
    n_triangles: int = 1000,
    max_diam: float = 1.0,
    seed: int = 0,
) -> ProbeReport:
    """Law-of-cosines distortion bounds on random geodesic triangles.

    For each triangle ABC with diameter <= max_diam checks both
        2 <log_A C, log_A B>  <=  d^2(A,B) + zeta(kappa, d(A,B)) d^2(A,C) - d^2(B,C)
        2 <log_A C, log_A B>  >=  d^2(A,B) + sigma(K,   diam   ) d^2(A,C) - d^2(B,C)
    and reports the worst signed violation (positive = inequality broken).
    On flat space both hold with equality.

    The lower bound's distortion constant must be evaluated at the triangle
    diameter: evaluating it at the side d(A,B) admits counterexamples on the
    sphere (isoceles right triangles with legs ~0.7 violate it by ~2e-3 even
    under the pi/2 diameter cap), because the Hessian of half the squared
    distance to the opposite vertex is controlled by the distance to that
    vertex, not by the side being expanded.

    Draw order: triangle k samples A within max_diam of the base point, then
    B and C within max_diam / 2 of A, each as ``random_point(rng, center,
    radius)`` does: ``standard_normal(shape)`` for the direction, then
    ``uniform()`` for the radius. The geometry fixes only the shape of a draw,
    so all draws come first, made in place by ``ball_draws`` with the same
    bits, and the triangles are evaluated on stacks, with
    ``random_point_rows`` and one ``dist``, ``log`` or ``inner`` call per
    quantity on the stacked vertices; the bounds take the array forms of
    ``zeta_constant`` and ``sigma_constant``. The report agrees to rounding
    with evaluating the triangles one at a time with single points. A
    non-finite distance or inner product raises GeometryError.
    """
    from .geometry import sigma_constant, zeta_constant

    if n_triangles < 1:
        raise ValueError("n_triangles must be >= 1")
    base = manifold.base_point()
    shape = base.coords.shape
    normals, uniforms = ball_draws([as_rng(seed)] * (3 * n_triangles), shape)
    normals = normals.reshape((n_triangles, 3) + shape)
    uniforms = uniforms.reshape(n_triangles, 3)
    A = manifold.random_point_rows(base, normals[:, 0], uniforms[:, 0], max_diam)
    B = manifold.random_point_rows(A, normals[:, 1], uniforms[:, 1], max_diam / 2.0)
    C = manifold.random_point_rows(A, normals[:, 2], uniforms[:, 2], max_diam / 2.0)
    sides = [manifold.dist(A, B), manifold.dist(A, C), manifold.dist(B, C)]
    lhs = 2.0 * manifold.inner(A, manifold.log(A, C), manifold.log(A, B))
    table = np.stack(sides + [lhs], axis=1)  # one row (dAB, dAC, dBC, lhs) per triangle
    if not np.isfinite(table).all():
        raise GeometryError("a triangle has a non-finite distance or inner product")

    dAB, dAC, dBC, lhs = table.T
    diam = table[:, :3].max(axis=1)
    upper = dAB**2 + zeta_constant(manifold.curvature.kappa, dAB) * dAC**2 - dBC**2
    lower = dAB**2 + sigma_constant(manifold.curvature.K, diam) * dAC**2 - dBC**2
    violation = np.maximum(lhs - upper, lower - lhs)
    k = int(np.argmax(violation))  # the first worst triangle
    columns = {"d_AB": dAB, "d_AC": dAC, "d_BC": dBC, "lhs": lhs, "upper": upper, "lower": lower}
    worst_case = {"triangle_index": k, **{key: float(c[k]) for key, c in columns.items()}}
    return ProbeReport(
        name=f"triangle_comparison[{manifold.manifold_id}]",
        max_violation=float(violation[k]),
        samples=n_triangles,
        worst_case=worst_case,
    )


def random_small_rectangles(
    manifold: Manifold, rng, n: int, scale: float = 0.01
) -> tuple[list[Point], TangentVector]:
    """n near-square geodesic rectangles with sides ~scale, and a unit probe
    vector at each one's first corner.

    A rectangle's corners are p, exp_p(a e1), the far corner reached by
    transporting e2 along the first edge, and exp_p(b e2), with unit e1
    perpendicular to unit e2. Returns the corners as ``holonomy_probe``
    takes them, four stacks of n points (corner k of rectangle i is row i
    of ``corners[k]``), and the (n,) stack of unit z at ``corners[0]``.

    Draw order: rectangle i makes all its draws before rectangle i + 1:
    p = ``random_point(rng)``, e1 = ``random_tangent(p, rng)``, then
    raw = ``random_tangent(p, rng)``, redrawn while its part perpendicular
    to e1 has norm <= 1e-3 (at most 32 draws), a and b from ``uniform()``,
    and z's ``standard_normal``. Only the redraw test needs a rectangle's
    geometry, so it runs in the loop on single points; the corners and z
    then take one call per quantity on the stacks, with each row bitwise
    the single call's where the manifold's operations are one body.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = as_rng(rng)
    P, E1, E2 = [], [], []
    ab = np.empty((n, 2))
    z_normals = np.empty((n,) + manifold.base_point().coords.shape)
    for i in range(n):
        p = manifold.random_point(rng)
        e1 = manifold.random_tangent(p, rng, norm=1.0)
        for _ in range(32):
            raw = manifold.random_tangent(p, rng, norm=1.0)
            cand = raw - manifold.inner(p, raw, e1) * e1
            norm = manifold.norm(p, cand)
            if norm > 1e-3:
                break
        else:
            raise GeometryError("could not draw two independent tangent directions")
        ab[i] = rng.random(), rng.random()  # uniform()'s bits (see ball_draws)
        rng.standard_normal(out=z_normals[i])
        P.append(p)
        E1.append(e1.coords)
        E2.append((1.0 / norm) * cand.coords)
    p = manifold.stack(P)
    e1, e2 = TangentVector(p, np.stack(E1)), TangentVector(p, np.stack(E2))
    a, b = (scale * (0.5 + ab.T)).reshape((2, n) + (1,) * (p.coords.ndim - 1))
    # a TangentVector scales by an array from the right only
    c1 = manifold.exp(p, e1 * a)
    c3 = manifold.exp(p, e2 * b)
    c2 = manifold.exp(c1, manifold.transport(p, c1, e2) * b)
    return [p, c1, c2, c3], manifold._unit_tangents(p, z_normals)


def holonomy_suite(manifold: Manifold, n_rectangles: int, scale: float, seed) -> dict:
    """``holonomy_probe`` on ``random_small_rectangles(manifold, seed,
    n_rectangles, scale)``, in one call on the stacks.

    ``passed``: every defect is within its bound. ``worst_defect_to_bound``:
    the largest defect / bound over the rectangles with a positive bound, 0
    if there are none.
    """
    corners, z = random_small_rectangles(manifold, seed, n_rectangles, scale)
    defect, bound = holonomy_probe(manifold, corners, z)
    ratio = defect[bound > 0] / bound[bound > 0]
    return {
        "passed": bool(np.all(defect <= bound)),
        "worst_defect_to_bound": float(ratio.max(initial=0.0)),
    }


def holonomy_probe(
    manifold: Manifold,
    rect_corners: Sequence[Point],
    z: TangentVector,
) -> tuple[float, float]:
    """Transport z around a geodesic rectangle; defect against the area bound.

    Returns (defect, bound) where defect is the norm of the loop-transported
    vector minus the original and bound = 12 K_m ||z|| (area estimate). The
    area estimate is the product of the mean opposite-side lengths, an upper
    surrogate for the patch integral at small scales.

    The corners and z are single points and a tangent at c0, giving two
    floats, or stacks of n rectangles (corner k of each in the stack
    ``rect_corners[k]``, z based at that stack ``c0``), giving (n,) arrays:
    each operation is one call on the stacks.
    """
    if len(rect_corners) != 4:
        raise ValueError("need exactly 4 corners")
    c0, c1, c2, c3 = rect_corners
    manifold._require_base(c0, z)
    v = z
    for a, b in ((c0, c1), (c1, c2), (c2, c3), (c3, c0)):
        v = manifold.transport(a, b, v)
    defect = manifold.norm(c0, v - z)
    e01 = manifold.dist(c0, c1)
    e12 = manifold.dist(c1, c2)
    e23 = manifold.dist(c2, c3)
    e30 = manifold.dist(c3, c0)
    area = 0.5 * (e01 + e23) * 0.5 * (e12 + e30)
    bound = 12.0 * manifold.curvature.K_m * manifold.norm(c0, z) * area
    return defect, bound


@dataclass(frozen=True)
class BlowupTrace:
    """Finite prefix of the corrected-variant distortion recursion.

    ``values[t-1]`` holds A_t; if the recursion overflowed, ``diverged_at``
    is the 1-based round where the first non-finite value appeared and the
    trace stops just before it.
    """

    values: np.ndarray
    diverged_at: Optional[int]


def correction_blowup_trace(etaG: float, K_m: float, T: int) -> BlowupTrace:
    """Iterate A_t = K_m (5 etaG + 2 A_{t-1})^2 (3 etaG + A_{t-1}) from A_0 = 0.

    This is the distortion recursion of the corrected-memory variant; for the
    worst case etaG = 0.1, K_m = 1 it is strictly increasing and escapes to
    infinity, which is why the shipped learner transports gradients instead.

    The trace is non-decreasing for all inputs, since every operation of the
    recursion is monotone under rounding. In a = A / etaG the recursion reads
    a <- c (5 + 2a)^2 (3 + a) with c = K_m etaG^2, so the regime depends on c
    alone: with a* = (sqrt(69) - 3) / 4, it escapes to infinity iff
    c > c* = a* / ((5 + 2a*)^2 (3 + a*)) ~= 5.2349e-3 (etaG ~= 0.072353 at
    K_m = 1). Below the threshold it converges to the smallest fixed point,
    etaG times the smallest positive root of
    4c a^3 + 32c a^2 + (85c - 1) a + 75c, and may reach it to the last bit,
    after which the trace is constant.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    values = []
    A = np.float64(0.0)
    diverged_at = None
    # np.float64 arithmetic saturates to inf instead of raising OverflowError.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, T + 1):
            A = np.float64(K_m) * (5.0 * etaG + 2.0 * A) ** 2 * (3.0 * etaG + A)
            if not np.isfinite(A):
                diverged_at = t
                break
            values.append(float(A))
    return BlowupTrace(values=np.array(values), diverged_at=diverged_at)
