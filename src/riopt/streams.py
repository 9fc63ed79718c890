"""Synthetic loss streams for the online experiments.

The Frechet-mean stream samples a point cloud around a moving center each
round, on any manifold; the center either stays fixed within a window and
jumps when the window ends (abrupt mode) or drifts a fixed distance every
round (drift mode). All randomness flows through named child streams of the
root seed, one per (purpose, round, sample index), so a config and seed
fully determine the stream.

A child stream is ``child_rng(seed, *path)``, numpy's ``SeedSequence`` of
the path feeding a ``PCG64``. Where a stream needs many children at once
(the samples, the probes, the drift directions), ``seed_states`` runs the
``SeedSequence`` hash once over all their paths as uint32 array arithmetic,
and ``state_rng`` builds each generator from its row: the same generators,
draw for draw, without one ``SeedSequence`` object per path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .geometry import Manifold, Point, TangentVector, ball_draws

# Stream-splitting tags: child_rng(seed, TAG, ...) keys every random draw.
TAG_CENTER = 1
TAG_DRIFT = 2
TAG_SAMPLE = 3
TAG_PROBE = 4
TAG_INIT = 5
TAG_DATA = 6


# Keys per block of rounds whose sample generators the stream seeds in one pass.
_SEED_BLOCK = 1024

# numpy's SeedSequence (random/bit_generator.pyx): a pool of 4 uint32 words,
# its hash multipliers and mixing constants. tests/test_streams.py checks
# seed_states against SeedSequence itself.
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def child_rng(seed: int, *path: int) -> np.random.Generator:
    """Deterministic child generator addressed by an integer path.

    The reference definition of every child stream: ``state_rng`` of the
    matching ``seed_states`` row makes the same draws.
    """
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, path)]))


def seed_states(seed: int, *path) -> np.ndarray:
    """``SeedSequence([seed, *key]).generate_state(4, np.uint64)`` for many keys.

    Each entry of ``path`` is an int or a 1-D array of ints; the keys are
    the product of the entries in C order, so row ``j * n + i`` of
    ``seed_states(seed, TAG, ts, np.arange(n))`` belongs to the key
    ``(TAG, ts[j], i)``. Returns a C-contiguous (keys, 4) uint64 array.

    An int is one uint32 entropy word per 32 bits (0 is one word). Array
    entries in [0, 2**32) are one word each, so every key has the same
    entropy length and the hash runs once over all keys; otherwise each key
    is hashed by its own ``SeedSequence``. A negative int raises
    ``ValueError``, as ``SeedSequence`` does.
    """
    entries = [np.asarray(p) for p in (seed, *path)]
    axes = [a for a in entries if a.ndim]
    n = math.prod(a.size for a in axes)
    if any(a.size and (a.min() < 0 or a.max() > _MASK32) for a in axes):
        keys = itertools.product(*(a.reshape(-1).tolist() for a in entries))
        states = [np.random.SeedSequence(list(k)).generate_state(4, np.uint64) for k in keys]
        return np.array(states, dtype=np.uint64).reshape(n, 4)
    grids = iter(np.meshgrid(*axes, indexing="ij"))
    entropy = []
    for a in entries:
        if a.ndim:
            entropy.append(next(grids).astype(np.uint32).ravel())
        else:
            entropy.extend(np.full(n, w, dtype=np.uint32) for w in _words(int(a)))
    return _hash_states(entropy)


def _words(n: int) -> list[int]:
    """The uint32 entropy words of a non-negative int, least significant first."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hash_states(entropy: list) -> np.ndarray:
    """``SeedSequence``'s ``mix_entropy`` and ``generate_state(4, np.uint64)``,
    step for step, on uint32 arrays holding one entropy word of every key.

    The hash multipliers evolve the same way for every key, so they stay
    Python ints; the keys' words wrap modulo 2**32 as arrays.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = _MIX_L * x - _MIX_R * y
        return result ^ (result >> 16)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[k] if k < len(entropy) else zero) for k in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:  # entropy beyond the pool
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    state = np.empty((len(zero), 2 * _POOL_SIZE), dtype=np.uint32)
    for k in range(2 * _POOL_SIZE):
        value = pool[k % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state[:, k] = value ^ (value >> 16)
    # pairs of words are little-endian uint64s, as in generate_state
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _PresetSeed(ISeedSequence):
    """A seed sequence whose ``generate_state`` is already computed."""

    def __init__(self, state: np.ndarray):
        if state.dtype != np.uint64 or state.shape != (4,) or not state.flags.c_contiguous:
            raise ValueError("a PCG64 state is a C-contiguous uint64 array of 4 words")
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def state_rng(state: np.ndarray) -> np.random.Generator:
    """The generator of one ``seed_states`` row: ``state_rng(seed_states(seed,
    *path)[0])`` draws as ``child_rng(seed, *path)``. ``PCG64`` reads its 4
    words through a raw pointer, so the row must be C-contiguous uint64."""
    return np.random.Generator(np.random.PCG64(_PresetSeed(state)))


class FrechetMeanLoss:
    """f(x) = 1/(2N) sum_i d^2(x, A_i); gradient -1/N sum_i log_x(A_i).

    ``targets`` stacks the A_i along the axis before a point's coordinates;
    value and gradient each make one ``dist`` / ``log`` call with the A_i as
    a cloud (see ``Manifold``). Both take a single point or a stacked point:
    then they give the value (an array) or gradient at each row. Targets of
    shape (m, N, ...) stack m losses, loss i paired with row i of a stacked
    point.

    In a frechet round every learner commits its rows (its played point,
    after R-AOOGD's experts) before the loss is touched; one ``grad`` call on
    the fixed probes and all those rows then gives every gradient the round
    takes under this loss, and one ``value`` call the learners' values.
    """

    def __init__(self, manifold: Manifold, targets: np.ndarray):
        self.manifold = manifold
        self.targets = np.asarray(targets, dtype=float)
        # the axis of the A_i, before a point's coordinates
        self._axis = -1 - manifold.point_ndim
        self.n = self.targets.shape[self._axis]
        # the A_i as the cloud of x (by x.coords.ndim >= targets.ndim): one per
        # row, or one a stacked x's rows share on a leading axis of length 1
        t = self.targets
        self._clouds = (Point(t, manifold.manifold_id), Point(t[None], manifold.manifold_id))

    def value(self, x: Point) -> float:
        d = self.manifold.dist(x, self._clouds[x.coords.ndim >= self.targets.ndim])
        v = np.sum(d * d, axis=-1) / (2.0 * self.n)
        return v if v.ndim else float(v)

    def grad(self, x: Point) -> TangentVector:
        """On Hyperbolic, row i of a stacked point's gradient is bitwise
        ``grad`` at row i (of loss i, if the targets are stacked too): the
        logs of a stacked base sum along the target axis in the same order,
        and ``to_tangent`` agrees bitwise with its single-point body."""
        logs = self.manifold.log(x, self._clouds[x.coords.ndim >= self.targets.ndim]).coords
        return self.manifold.to_tangent(x, -logs.sum(axis=self._axis) / self.n)


@dataclass(frozen=True)
class FrechetStream:
    """One realized stream: per-round losses and the centers they came from."""

    manifold: Manifold
    losses: list
    centers: list
    anchor: Point


def gen_frechet_stream(
    manifold: Manifold,
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

    Draw order: sample i of round t draws from its own generator, the one
    ``child_rng(seed, TAG_SAMPLE, t, i)`` makes, ``standard_normal(shape)``
    then ``uniform()``, as ``random_point(rng, center, ball_radius)`` does;
    ``ball_draws`` makes them in place, with the same bits. A drift step of
    round t draws from ``child_rng(seed, TAG_DRIFT, t)``. The generators of
    a block of rounds (about ``_SEED_BLOCK`` samples) come from one
    ``seed_states`` pass. The round's samples are then evaluated on one
    stack (``random_point_rows``), which agrees with the per-sample
    ``random_point`` calls to rounding.
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
    block = max(1, _SEED_BLOCK // n_points)
    for t in range(1, T + 1):
        j = (t - 1) % block
        if j == 0:
            ts = np.arange(t, min(t + block, T + 1))
            sample_states = seed_states(seed, TAG_SAMPLE, ts, np.arange(n_points))
            if mode == "drift":
                drift_states = seed_states(seed, TAG_DRIFT, ts)
        if (t - 1) % S == 0:
            rng = child_rng(seed, TAG_CENTER, n_select)
            center = manifold.random_point(rng, center=anchor, radius=center_diam / 2.0)
            n_select += 1
        elif mode == "drift":
            direction = manifold.random_tangent(center, state_rng(drift_states[j]), norm=1.0)
            center = manifold.exp(center, drift * direction)
        centers.append(center)
        rngs = [state_rng(s) for s in sample_states[j * n_points : (j + 1) * n_points]]
        losses.append(FrechetMeanLoss(manifold, _ball_rows(manifold, center, ball_radius, rngs)))
    return FrechetStream(manifold=manifold, losses=losses, centers=centers, anchor=anchor)


def fixed_probe_points(
    manifold: Manifold, anchor: Point, radius: float, count: int, seed: int
) -> list[Point]:
    """The never-refreshed probe set used to lower-bound the gradient variation.

    Probe i is ``random_point(child_rng(seed, TAG_PROBE, i), anchor, radius)``,
    its generator seeded by one ``seed_states`` pass over all probes.
    """
    rngs = [state_rng(s) for s in seed_states(seed, TAG_PROBE, np.arange(count))]
    return [Point(row, manifold.manifold_id) for row in _ball_rows(manifold, anchor, radius, rngs)]


def _ball_rows(manifold: Manifold, center: Point, radius: float, rngs: list) -> np.ndarray:
    """Coordinates of ``random_point(rng, center, radius)`` for each generator.

    Each generator makes its two draws in ``random_point``'s order
    (``ball_draws``); the geometry then runs once on the stack.
    """
    normals, uniforms = ball_draws(rngs, center.coords.shape)
    return manifold.random_point_rows(center, normals, uniforms, radius).coords
