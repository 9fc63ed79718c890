"""Synthetic loss streams for the online experiments.

The hyperbolic Frechet-mean stream samples a point cloud around a moving
center each round; the center either stays fixed within a window and jumps
when the window ends (abrupt mode) or drifts a fixed distance every round
(drift mode). All randomness flows through named child streams of the root
seed, one per (purpose, round, sample index), so a config and seed fully
determine the stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Manifold, Point, TangentVector
from .manifolds import Hyperbolic

# Stream-splitting tags: child_rng(seed, TAG, ...) keys every random draw.
TAG_CENTER = 1
TAG_DRIFT = 2
TAG_SAMPLE = 3
TAG_PROBE = 4
TAG_INIT = 5
TAG_DATA = 6


def child_rng(seed: int, *path: int) -> np.random.Generator:
    """Deterministic child generator addressed by an integer path."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, path)]))


class FrechetMeanLoss:
    """f(x) = 1/(2N) sum_i d^2(x, A_i); gradient -1/N sum_i log_x(A_i).

    ``targets`` stacks the A_i along the axis before a point's coordinates;
    value and gradient each make one ``dist_many`` / ``log_many`` call
    (Hyperbolic and SPD have ``dist_many``). Hyperbolic targets of shape
    (m, N, ambient) stack m losses, loss i paired with row i of a stacked
    point in ``value_rows`` and ``grad_rows``.

    In a frechet round the learners commit their points before the loss is
    touched; each stack of points then takes its gradients from one
    ``grad_rows`` call (R-AOOGD's experts with its played point, and the
    other learners' points), and the learners' values from one
    ``value_rows`` call.
    """

    def __init__(self, manifold: Manifold, targets: np.ndarray):
        self.manifold = manifold
        self.targets = np.asarray(targets, dtype=float)
        self.n = self.targets.shape[-1 - manifold.base_point().coords.ndim]

    def value(self, x: Point) -> float:
        return float(self.value_rows(x))

    def value_rows(self, x: Point) -> np.ndarray:
        """The value at each row of a stacked point (at a single point, a
        0-d array), from one ``dist_many``; row i is bitwise ``value`` there."""
        d = self.manifold.dist_many(x, self.targets)
        return np.sum(d * d, axis=-1) / (2.0 * self.n)

    def grad(self, x: Point) -> TangentVector:
        logs = self.manifold.log_many(x, self.targets)
        return self.manifold.to_tangent(x, -logs.sum(axis=0) / self.n)

    def grad_rows(self, x: Point) -> TangentVector:
        """The gradient at each row of a stacked point, from one ``log_many``.

        Row i is bitwise ``grad`` at row i (of loss i, if the targets are
        stacked too): the logs of a stacked base sum along the target axis
        in the same order, and ``to_tangent_rows`` repeats ``to_tangent``.
        Needs a manifold whose ``log_many`` takes a stacked base (Hyperbolic).
        """
        logs = self.manifold.log_many(x, self.targets)
        return self.manifold.to_tangent_rows(x, -logs.sum(axis=-2) / self.n)


@dataclass(frozen=True)
class FrechetStream:
    """One realized stream: per-round losses and the centers they came from."""

    manifold: Hyperbolic
    losses: list
    centers: list
    anchor: Point


def gen_frechet_stream(
    manifold: Hyperbolic,
    T: int,
    n_points: int,
    mode: str = "abrupt",
    S: int = 250,
    drift: float = 0.1,
    ball_radius: float = 1.0,
    center_diam: float = 1.0,
    seed: int = 0,
) -> FrechetStream:
    """Generate the moving Frechet-mean stream.

    abrupt: the center is re-sampled inside a set of diameter center_diam
    around the anchor every S rounds and held fixed in between. drift: the
    center moves `drift` along a fresh random geodesic every round and is
    re-sampled every S rounds. Each round's cloud is n_points samples from
    the ball of radius ball_radius around the center.

    Draw order: sample i of round t draws from its own generator
    ``child_rng(seed, TAG_SAMPLE, t, i)``, ``standard_normal(shape)`` then
    ``uniform()``, as ``random_point(rng, center, ball_radius)`` does. The
    round's samples are then evaluated on one stack (``random_point_rows``),
    bitwise the per-sample ``random_point`` calls.
    """
    if mode not in ("abrupt", "drift"):
        raise ValueError(f"unknown stream mode: {mode!r}")
    if T < 1 or n_points < 1 or S < 1:
        raise ValueError("T, n_points and S must be >= 1")
    anchor = manifold.base_point()
    centers: list[Point] = []
    losses: list[FrechetMeanLoss] = []
    center = None
    n_select = 0
    for t in range(1, T + 1):
        if (t - 1) % S == 0:
            rng = child_rng(seed, TAG_CENTER, n_select)
            center = manifold.random_point(rng, center=anchor, radius=center_diam / 2.0)
            n_select += 1
        elif mode == "drift":
            rng = child_rng(seed, TAG_DRIFT, t)
            direction = manifold.random_tangent(center, rng, norm=1.0)
            center = manifold.exp(center, drift * direction)
        centers.append(center)
        rngs = [child_rng(seed, TAG_SAMPLE, t, i) for i in range(n_points)]
        losses.append(FrechetMeanLoss(manifold, _ball_rows(manifold, center, ball_radius, rngs)))
    return FrechetStream(manifold=manifold, losses=losses, centers=centers, anchor=anchor)


def fixed_probe_points(
    manifold: Manifold, anchor: Point, radius: float, count: int, seed: int
) -> list[Point]:
    """The never-refreshed probe set used to lower-bound the gradient variation.

    Probe i is ``random_point(child_rng(seed, TAG_PROBE, i), anchor, radius)``.
    """
    rngs = [child_rng(seed, TAG_PROBE, i) for i in range(count)]
    return [Point(row, manifold.manifold_id) for row in _ball_rows(manifold, anchor, radius, rngs)]


def _ball_rows(manifold: Manifold, center: Point, radius: float, rngs: list) -> np.ndarray:
    """Coordinates of ``random_point(rng, center, radius)`` for each generator.

    Each generator makes its two draws in ``random_point``'s order; the
    geometry then runs once on the stack.
    """
    shape = center.coords.shape
    normals = np.empty((len(rngs),) + shape)
    uniforms = np.empty(len(rngs))
    for i, rng in enumerate(rngs):
        normals[i] = rng.standard_normal(shape)
        uniforms[i] = rng.uniform()
    return manifold.random_point_rows(center, normals, uniforms, radius).coords
