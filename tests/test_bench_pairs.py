"""tools/bench_pairs.py: its summary on fixed numbers, and its batch loop with
git and perfbench stubbed out."""

import importlib.util
import json
import subprocess
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


def _fake_batch(monkeypatch, fail=()):
    """Stub out git and perfbench: each run reads 1 (parent) or 0.5 (change),
    plus the pair's index; the (pair, workload, side) runs in ``fail`` exit 1."""
    calls = []
    monkeypatch.setattr(bench_pairs, "export", lambda rev, into: into)

    def run_once(checkout, workload, seed, seconds):
        side = checkout.name
        pair = sum(1 for c in calls if c[1:] == (workload, side))
        calls.append((pair, workload, side))
        if (pair, workload, side) in fail:
            return {"failed": "BenchError: worker failed", "returncode": 1}
        value = (1.0 if side == "parent" else 0.5) + pair
        return {"metrics": dict.fromkeys(bench_pairs.METRICS, value), "correct": True,
                "output_rel_err": 0.0}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    return calls


def test_main_runs_every_workload_in_each_pair_alternating_sides(monkeypatch, tmp_path):
    calls = _fake_batch(monkeypatch)
    out = tmp_path / "report.json"
    argv = ["A", "B", "--workload", "frechet", "--workload", "verify", "--pairs", "3",
            "--seconds", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    assert calls == [
        (0, "frechet", "parent"), (0, "frechet", "change"),
        (0, "verify", "parent"), (0, "verify", "change"),
        (1, "frechet", "change"), (1, "frechet", "parent"),
        (1, "verify", "change"), (1, "verify", "parent"),
        (2, "frechet", "parent"), (2, "frechet", "change"),
        (2, "verify", "parent"), (2, "verify", "change"),
    ]
    report = json.loads(out.read_text(encoding="utf-8"))
    assert list(report["workloads"]) == ["frechet", "verify"]
    for entry in report["workloads"].values():
        assert entry["wall_ref_s"]["change_wins"] == "3/3"
        assert entry["failed_runs"] == [] and entry["all_runs_correct"] is True


def test_main_records_a_failed_run_and_finishes_the_batch(monkeypatch, tmp_path):
    _fake_batch(monkeypatch, fail={(1, "verify", "change")})
    out = tmp_path / "report.json"
    argv = ["A", "B", "--workload", "frechet", "--workload", "verify", "--pairs", "3",
            "--out", str(out)]
    assert bench_pairs.main(argv) == 1
    report = json.loads(out.read_text(encoding="utf-8"))
    verify = report["workloads"]["verify"]
    assert verify["failed_runs"] == [
        {"pair": 2, "side": "change", "failed": "BenchError: worker failed", "returncode": 1}
    ]
    assert verify["all_runs_correct"] is False
    # the failed pair is left out; the other two are summarised
    assert verify["wall_ref_s"]["pairs"] == [[1.0, 0.5], [3.0, 2.5]]
    assert report["workloads"]["frechet"]["wall_ref_s"]["change_wins"] == "3/3"


def test_run_once_turns_a_non_zero_exit_into_a_failed_run(monkeypatch, tmp_path):
    def run(cmd, **kwargs):
        assert "check" not in kwargs
        return subprocess.CompletedProcess(cmd, 1, stdout="", stderr="Traceback\nBenchError: x\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    assert bench_pairs.run_once(tmp_path, "frechet", 0, 1.0) == {
        "failed": "BenchError: x", "returncode": 1
    }
