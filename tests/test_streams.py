"""The stacked stream sampler agrees with the per-sample calls it replaces,
within the agreement bound; the stacked gradients keep the bits of the
per-point calls. The stream and its losses run on every manifold."""

import numpy as np
import pytest

from riopt import SPD, Euclidean, Hyperbolic, Sphere, frechet_mean_rows, streams
from riopt.geometry import KARCHER_TOL, GeometryError, Point
from riopt.streams import (
    TAG_CENTER,
    TAG_DRIFT,
    TAG_PROBE,
    TAG_SAMPLE,
    FrechetMeanLoss,
    child_rng,
    fixed_probe_points,
    gen_frechet_stream,
    seed_states,
    state_rng,
)

from agreement import assert_agree

# seeds of one, two and three entropy words
SEEDS = [*range(8), 2**32 - 1, 2**32, 2**40, 2**64 + 3]


def _stream_targets_longhand(manifold, T, n_points, mode, S, drift, ball_radius, center_diam, seed):
    """The stream's target clouds, one ``random_point`` call per sample."""
    anchor = manifold.base_point()
    clouds, center, n_select = [], None, 0
    for t in range(1, T + 1):
        if (t - 1) % S == 0:
            rng = child_rng(seed, TAG_CENTER, n_select)
            center = manifold.random_point(rng, center=anchor, radius=center_diam / 2.0)
            n_select += 1
        elif mode == "drift":
            direction = manifold.random_tangent(center, child_rng(seed, TAG_DRIFT, t), norm=1.0)
            center = manifold.exp(center, drift * direction)
        clouds.append(
            np.stack(
                [
                    manifold.random_point(
                        child_rng(seed, TAG_SAMPLE, t, i), center=center, radius=ball_radius
                    ).coords
                    for i in range(n_points)
                ]
            )
        )
    return clouds


def _bits(arrays):
    return [(a.shape, a.tobytes()) for a in arrays]


@pytest.mark.parametrize("mode", ["abrupt", "drift"])
@pytest.mark.parametrize("dim", [1, 2, 10])
@pytest.mark.parametrize("n_points", [1, 20])
def test_stream_targets_bitwise_equal_per_sample_random_point(mode, dim, n_points):
    h = Hyperbolic(dim)
    args = dict(T=6, n_points=n_points, mode=mode, S=4, drift=0.3, center_diam=2.0)
    for seed in SEEDS:
        for ball_radius in (1.5, 0.0):
            stream = gen_frechet_stream(h, ball_radius=ball_radius, seed=seed, **args)
            want = _stream_targets_longhand(h, ball_radius=ball_radius, seed=seed, **args)
            assert_agree([loss.targets for loss in stream.losses], want)


@pytest.mark.parametrize("block", [1, 5, 7])
def test_stream_seeded_in_blocks_equals_longhand(monkeypatch, block):
    # a block of 5 keys holds 5 rounds of one sample or 1 round of three
    monkeypatch.setattr(streams, "_SEED_BLOCK", block)
    h = Hyperbolic(2)
    for mode in ("abrupt", "drift"):
        for n_points in (1, 3):
            args = dict(T=11, n_points=n_points, mode=mode, S=4, drift=0.3, ball_radius=1.5)
            stream = gen_frechet_stream(h, seed=5, **args)
            want = _stream_targets_longhand(h, center_diam=1.0, seed=5, **args)
            assert_agree([loss.targets for loss in stream.losses], want)


def test_zero_radius_stream_samples_are_the_center():
    h = Hyperbolic(3)
    stream = gen_frechet_stream(h, T=3, n_points=4, ball_radius=0.0, seed=2)
    for loss, center in zip(stream.losses, stream.centers):
        assert all(np.array_equal(row, center.coords) for row in loss.targets)


@pytest.mark.parametrize("dim", [1, 2, 10])
def test_fixed_probes_bitwise_equal_per_probe_random_point(dim):
    h = Hyperbolic(dim)
    anchor = h.base_point()
    for seed in SEEDS:
        probes = fixed_probe_points(h, anchor, 1.5, 14, seed)
        want = [
            h.random_point(child_rng(seed, TAG_PROBE, i), center=anchor, radius=1.5).coords
            for i in range(14)
        ]
        assert_agree([p.coords for p in probes], want)


# A canary on numpy's SeedSequence: seed_states repeats its hash, so a
# numpy that changed the hash fails here before any stream moves.
@pytest.mark.parametrize("seed", [0, 63, 2**32 - 1, 2**32, 2**40])
def test_seed_states_equal_seed_sequence_states_and_draws(seed):
    keys = np.array([0, 1, 7, 2**32 - 1])
    paths = [
        ((TAG_PROBE, keys), [(TAG_PROBE, k) for k in keys]),  # 3 words
        (  # 4 words, the last varying fastest
            (TAG_SAMPLE, keys, keys[::-1]),
            [(TAG_SAMPLE, t, i) for t in keys for i in keys[::-1]],
        ),
        ((TAG_PROBE, np.array([2**32, 3])), [(TAG_PROBE, 2**32), (TAG_PROBE, 3)]),  # a 2-word key
        ((TAG_CENTER, 2), [(TAG_CENTER, 2)]),  # no array: one key
    ]
    for path, want_keys in paths:
        states = seed_states(seed, *path)
        assert states.shape == (len(want_keys), 4) and states.dtype == np.uint64
        for state, key in zip(states, want_keys):
            want = np.random.SeedSequence([seed, *map(int, key)]).generate_state(4, np.uint64)
            assert state.tobytes() == want.tobytes()
            got, ref = state_rng(state), child_rng(seed, *key)
            assert got.standard_normal(5).tobytes() == ref.standard_normal(5).tobytes()
            assert got.uniform() == ref.uniform()


def test_seed_states_of_no_keys_and_of_negative_ints():
    h = Hyperbolic(2)
    assert seed_states(3, TAG_PROBE, np.arange(0)).shape == (0, 4)
    assert fixed_probe_points(h, h.base_point(), 1.5, 0, 3) == []
    for call in (
        lambda: child_rng(-1, TAG_PROBE, 0),
        lambda: seed_states(-1, TAG_PROBE, np.arange(3)),
        lambda: seed_states(0, TAG_PROBE, np.array([2, -1])),
        lambda: fixed_probe_points(h, h.base_point(), 1.5, 14, -1),
        lambda: gen_frechet_stream(h, T=3, n_points=2, seed=-1),
    ):
        with pytest.raises(ValueError, match="non-negative"):
            call()


def test_state_rng_takes_only_a_contiguous_row_of_four_uint64_words():
    states = seed_states(0, TAG_PROBE, np.arange(3))
    for bad in (states.ravel()[::3], states[0, :3], states[0].astype(np.uint32), states[:2]):
        with pytest.raises(ValueError, match="C-contiguous uint64"):
            state_rng(bad)


@pytest.mark.parametrize("dim", [1, 2, 10])
def test_grad_rows_bitwise_equal_grad_at_each_row(dim):
    h = Hyperbolic(dim)
    rng = np.random.default_rng(dim)
    base = h.base_point()
    targets = np.stack([h.random_point(rng, center=base, radius=1.2).coords for _ in range(20)])
    loss = FrechetMeanLoss(h, targets)
    xs = [h.random_point(rng, center=base, radius=1.5) for _ in range(14)]
    xs[3] = Point(targets[5].copy(), h.manifold_id)  # a probe on a target
    X = Point(np.stack([x.coords for x in xs]), h.manifold_id)
    rows = loss.grad(X)
    assert rows.base is X
    assert _bits([rows.coords]) == _bits([np.stack([loss.grad(x).coords for x in xs])])
    single = loss.grad(Point(xs[0].coords[None, :], h.manifold_id)).coords
    assert _bits([single]) == _bits([loss.grad(xs[0]).coords[None, :]])
    # a single point's value is a float, a stack's an array over its rows
    assert type(loss.value(xs[0])) is float
    assert isinstance(loss.value(X), np.ndarray) and loss.value(X).shape == (len(xs),)


@pytest.mark.parametrize("dim", [1, 2, 10])
def test_stacked_losses_give_each_loss_at_its_row(dim):
    # m losses stacked as (m, n, ambient) targets, loss i paired with row i
    h = Hyperbolic(dim)
    stream = gen_frechet_stream(h, T=9, n_points=6, S=3, seed=dim)
    losses = stream.losses
    stacked = FrechetMeanLoss(h, np.stack([loss.targets for loss in losses]))
    assert stacked.n == losses[0].n == 6
    rng = np.random.default_rng(dim)
    xs = [h.random_point(rng, center=c, radius=0.5) for c in stream.centers]
    xs[4] = Point(losses[4].targets[2].copy(), h.manifold_id)  # a row on a target
    X = Point(np.stack([x.coords for x in xs]), h.manifold_id)
    values = stacked.value(X)
    assert _bits([values]) == _bits([np.array([f.value(x) for f, x in zip(losses, xs)])])
    assert _bits([stacked.grad(X).coords]) == _bits(
        [np.stack([f.grad(x).coords for f, x in zip(losses, xs)])]
    )
    # one loss, many rows: value on the stack is value at each row
    single = losses[0].value(X)
    assert _bits([single]) == _bits([np.array([losses[0].value(x) for x in xs])])


@pytest.mark.parametrize("m", [Sphere(3), SPD(3), Euclidean(3)], ids=lambda m: m.manifold_id)
def test_frechet_stream_loss_and_means_run_off_hyperbolic(m):
    stream = gen_frechet_stream(m, T=6, n_points=5, S=2, ball_radius=0.5, center_diam=0.5, seed=3)
    shape = m.base_point().coords.shape
    assert [loss.targets.shape for loss in stream.losses] == [(5,) + shape] * 6
    # one loss at a stacked point: the targets broadcast over its rows
    loss = stream.losses[0]
    xs = stream.centers[:3]
    X = Point(np.stack([x.coords for x in xs]), m.manifold_id)
    assert type(loss.value(xs[0])) is float
    assert_agree(loss.value(X), [loss.value(x) for x in xs])
    assert_agree(loss.grad(X).coords, [loss.grad(x).coords for x in xs])
    # every round's Karcher mean as one stack, where its loss is stationary
    clouds = np.stack([loss.targets for loss in stream.losses])
    means = frechet_mean_rows(m, clouds)
    assert means.coords.shape == (6,) + shape
    grads = FrechetMeanLoss(m, clouds).grad(means)
    assert np.all(m.norm(means, grads) <= KARCHER_TOL)
    # one cloud is not a stack of them, whatever a point's ndim
    with pytest.raises(GeometryError, match="clouds must be"):
        frechet_mean_rows(m, clouds[0])


def test_spd_loss_counts_its_matrices():
    # a point's coordinates are a matrix: N is the axis before them
    m = SPD(3)
    rng = np.random.default_rng(0)
    pts = [m.random_point(rng) for _ in range(5)]
    loss = FrechetMeanLoss(m, np.stack([p.coords for p in pts]))
    x = m.random_point(rng)
    assert loss.n == 5
    assert loss.value(x) == pytest.approx(sum(m.dist(x, p) ** 2 for p in pts) / 10, rel=1e-12)
    want = -sum(m.log(x, p).coords for p in pts) / 5
    assert np.allclose(loss.grad(x).coords, want, rtol=1e-12, atol=1e-14)
