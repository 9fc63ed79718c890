"""Each operation has one name, which takes single points and stacks alike."""

import dataclasses
import inspect

from riopt import manifolds, online
from riopt.bench import ExperimentConfig
from riopt.games import ZeroSumGame
from riopt.geometry import Manifold
from riopt.streams import FrechetMeanLoss

# names whose inputs are not points: draws, clouds, step sizes, and the
# round that is replayed solver by solver when a stacked stage fails
KEPT = {"random_point_rows", "frechet_mean_rows", "roogd_init_rows", "play_round_rows"}


def _names_ending(suffix):
    owners = [Manifold, FrechetMeanLoss, ZeroSumGame, online]
    owners += [c for _, c in inspect.getmembers(manifolds, inspect.isclass)
               if issubclass(c, Manifold)]
    return [
        f"{owner.__name__}.{name}"
        for owner in owners
        for name in dir(owner)
        if name.endswith(suffix)
    ]


def test_no_operation_has_a_rows_twin():
    twins = [name for name in _names_ending("_rows") if name.split(".")[-1] not in KEPT]
    assert twins == []


def test_no_operation_has_a_cloud_twin_and_no_curvature_knob():
    # a cloud is one more leading axis on the second point of dist and log
    assert _names_ending("_many") == []
    # the frechet constants read the curvature of the space
    assert "curvature_mag" not in {f.name for f in dataclasses.fields(ExperimentConfig)}
