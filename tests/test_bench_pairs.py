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
    plus the pair's index and a tenth of the seed; the (seed, pair, workload,
    side) runs in ``fail`` exit 1."""
    calls = []
    monkeypatch.setattr(bench_pairs, "export", lambda rev, into: into)

    def run_once(checkout, workload, seed, seconds):
        side = checkout.name
        pair = sum(1 for c in calls if c[0] == seed and c[2:] == (workload, side))
        calls.append((seed, pair, workload, side))
        if (seed, pair, workload, side) in fail:
            return {"failed": "BenchError: worker failed", "returncode": 1}
        value = (1.0 if side == "parent" else 0.5) + pair + seed / 10
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
    assert [c[1:] for c in calls] == [
        (0, "frechet", "parent"), (0, "frechet", "change"),
        (0, "verify", "parent"), (0, "verify", "change"),
        (1, "frechet", "change"), (1, "frechet", "parent"),
        (1, "verify", "change"), (1, "verify", "parent"),
        (2, "frechet", "parent"), (2, "frechet", "change"),
        (2, "verify", "parent"), (2, "verify", "change"),
    ]
    assert {c[0] for c in calls} == {0}  # seed 0 when none is given
    report = json.loads(out.read_text(encoding="utf-8"))
    assert list(report["seeds"]) == ["0"]
    assert list(report["seeds"]["0"]) == ["frechet", "verify"]
    for entry in report["seeds"]["0"].values():
        assert entry["wall_ref_s"]["change_wins"] == "3/3"
        assert entry["failed_runs"] == [] and entry["all_runs_correct"] is True


def test_main_runs_each_seed_as_its_own_batch(monkeypatch, tmp_path):
    calls = _fake_batch(monkeypatch)
    out = tmp_path / "report.json"
    argv = ["A", "B", "--workload", "quadgame", "--seed", "0", "--seed", "63", "--seed", "0",
            "--pairs", "2", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    assert calls == [
        (0, 0, "quadgame", "parent"), (0, 0, "quadgame", "change"),
        (0, 1, "quadgame", "change"), (0, 1, "quadgame", "parent"),
        (63, 0, "quadgame", "parent"), (63, 0, "quadgame", "change"),
        (63, 1, "quadgame", "change"), (63, 1, "quadgame", "parent"),
    ]
    report = json.loads(out.read_text(encoding="utf-8"))
    assert list(report["seeds"]) == ["0", "63"]
    for seed, entry in report["seeds"].items():
        pairs = entry["quadgame"]["wall_ref_s"]["pairs"]
        shift = int(seed) / 10
        assert pairs == [[1.0 + shift, 0.5 + shift], [2.0 + shift, 1.5 + shift]]


def test_main_records_a_failed_run_and_finishes_the_batch(monkeypatch, tmp_path):
    _fake_batch(monkeypatch, fail={(63, 1, "verify", "change")})
    out = tmp_path / "report.json"
    argv = ["A", "B", "--workload", "frechet", "--workload", "verify", "--pairs", "3",
            "--seed", "0", "--seed", "63", "--out", str(out)]
    assert bench_pairs.main(argv) == 1
    report = json.loads(out.read_text(encoding="utf-8"))
    verify = report["seeds"]["63"]["verify"]
    assert verify["failed_runs"] == [
        {"pair": 2, "side": "change", "failed": "BenchError: worker failed", "returncode": 1}
    ]
    assert verify["all_runs_correct"] is False
    # the failed pair is left out; the other two are summarised
    assert verify["wall_ref_s"]["pairs"] == [[7.3, 6.8], [9.3, 8.8]]
    assert report["seeds"]["0"]["verify"]["failed_runs"] == []
    assert report["seeds"]["63"]["frechet"]["wall_ref_s"]["change_wins"] == "3/3"


def test_run_once_turns_a_non_zero_exit_into_a_failed_run(monkeypatch, tmp_path):
    def run(cmd, **kwargs):
        assert "check" not in kwargs
        return subprocess.CompletedProcess(cmd, 1, stdout="", stderr="Traceback\nBenchError: x\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    assert bench_pairs.run_once(tmp_path, "frechet", 0, 1.0) == {
        "failed": "BenchError: x", "returncode": 1
    }
