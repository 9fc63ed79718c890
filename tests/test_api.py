"""Each operation has one name, which takes single points and stacks alike."""

import inspect

from riopt import manifolds, online
from riopt.games import ZeroSumGame
from riopt.geometry import Manifold
from riopt.streams import FrechetMeanLoss

# names whose inputs are not points: draws, clouds, step sizes, and the
# round that is replayed solver by solver when a stacked stage fails
KEPT = {"random_point_rows", "frechet_mean_rows", "roogd_init_rows", "play_round_rows"}


def test_no_operation_has_a_rows_twin():
    owners = [Manifold, FrechetMeanLoss, ZeroSumGame, online]
    owners += [c for _, c in inspect.getmembers(manifolds, inspect.isclass)
               if issubclass(c, Manifold)]
    twins = [
        f"{owner.__name__}.{name}"
        for owner in owners
        for name in dir(owner)
        if name.endswith("_rows") and name not in KEPT
    ]
    assert twins == []
