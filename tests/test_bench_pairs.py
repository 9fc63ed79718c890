"""The summary of tools/bench_pairs.py on fixed numbers."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_summarize_fixed_pairs():
    pairs = [(1.0, 0.8), (1.2, 0.9), (1.1, 1.15), (0.9, 0.7), (1.0, 0.85)]
    s = bench_pairs.summarize(pairs)
    assert s["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.1, "n": 5}
    assert s["change"] == {"median": 0.85, "q1": 0.8, "q3": 0.9, "n": 5}
    assert s["change_wins"] == "4/5"
    assert s["parent_iqr"] == 0.1
    assert s["median_change_rel"] == -0.15
    assert s["clears_gate"] is False  # 4/5 wins is below 9 in 10
    assert s["pairs"] == [list(p) for p in pairs]


def test_summarize_gate_needs_nine_wins_in_ten_and_a_gap_above_the_parent_spread():
    parent = [1.0 + 0.01 * i for i in range(10)]
    wide = bench_pairs.summarize(list(zip(parent, [0.5] * 9 + [2.0])))
    assert wide["change_wins"] == "9/10" and wide["clears_gate"] is True
    narrow = bench_pairs.summarize(list(zip(parent, [p - 0.02 for p in parent])))
    assert narrow["change_wins"] == "10/10"
    assert narrow["parent_iqr"] == 0.045 and narrow["clears_gate"] is False


def test_summarize_quartiles_are_numpy_linear_percentiles():
    values = np.random.default_rng(0).uniform(0.3, 0.5, size=(7, 2))
    s = bench_pairs.summarize([tuple(v) for v in values.tolist()])
    for i, side in enumerate(("parent", "change")):
        q1, med, q3 = np.percentile(values[:, i], [25, 50, 75])
        assert [s[side]["q1"], s[side]["median"], s[side]["q3"]] == [
            round(float(q), 6) for q in (q1, med, q3)
        ]


def test_summarize_rejects_fewer_than_two_pairs():
    with pytest.raises(ValueError):
        bench_pairs.summarize([(1.0, 0.9)])
