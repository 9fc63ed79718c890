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

    ``targets`` stacks the A_i along axis 0; value and gradient each make one
    ``dist_many`` / ``log_many`` call (Hyperbolic and SPD have ``dist_many``).
    """

    def __init__(self, manifold: Manifold, targets: np.ndarray):
        self.manifold = manifold
        self.targets = np.asarray(targets, dtype=float)
        self.n = len(self.targets)

    def value(self, x: Point) -> float:
        d = self.manifold.dist_many(x, self.targets)
        return float(np.sum(d * d)) / (2.0 * self.n)

    def grad(self, x: Point) -> TangentVector:
        logs = self.manifold.log_many(x, self.targets)
        return self.manifold.to_tangent(x, -logs.sum(axis=0) / self.n)

    def point_list(self) -> list[Point]:
        return [Point(row.copy(), self.manifold.manifold_id) for row in self.targets]


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
        rows = np.empty((n_points, manifold.ambient))
        for i in range(n_points):
            rng = child_rng(seed, TAG_SAMPLE, t, i)
            rows[i] = manifold.random_point(rng, center=center, radius=ball_radius).coords
        losses.append(FrechetMeanLoss(manifold, rows))
    return FrechetStream(manifold=manifold, losses=losses, centers=centers, anchor=anchor)


def fixed_probe_points(
    manifold: Manifold, anchor: Point, radius: float, count: int, seed: int
) -> list[Point]:
    """The never-refreshed probe set used to lower-bound the gradient variation."""
    return [
        manifold.random_point(child_rng(seed, TAG_PROBE, i), center=anchor, radius=radius)
        for i in range(count)
    ]
