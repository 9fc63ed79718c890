"""Tests of the benchmark's own code (not of riopt).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import riopt  # noqa: E402
import riopt.cli  # noqa: E402
from riopt import bench, games, geometry, manifolds, online, streams  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "frechet": {"T": 6, "S": 3},
    "quadgame": {"T": 5, "d": 3},
    "robust_pca": {"T": 3, "d": 3, "n_samples": 4},
    "verify": {"n_triangles": 5},
}


def small_config(tmp_path: Path, workload: str, seed: int = 0) -> str:
    path = tmp_path / f"{workload}.json"
    path.write_text(json.dumps(dict(workloads.make_config(workload, seed), **SMALL[workload])))
    return str(path)


def run_cli(workload: str, config: str, out: Path) -> int:
    return riopt.cli.main([workloads.SUBCOMMAND[workload], "--config", config, "--out", str(out)])


# ------------------------------------------------------------ span arithmetic
def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    dur, self_t = tracing.span_times(parent, start, end)
    assert dur.tolist() == [10.0, 3.0, 1.0, 4.0]
    assert self_t.tolist() == [3.0, 2.0, 1.0, 4.0]
    assert self_t.sum() == dur[0]


def test_self_coverage_leaves_out_the_root_spans_self_time():
    def coverage(spans):
        trace = tracing.Trace("test", list(tracing.SPANS))
        ids = {n: i for i, n in enumerate(trace.names)}
        for span, parent, start, end in spans:
            trace.name.append(ids[span])
            trace.parent.append(parent)
            trace.start.append(start)
            trace.end.append(end)
        return tracing.layer_metrics(trace, 10.0)["trace.self_coverage"]

    root = [("cli.main", -1, 0.0, 10.0), ("bench.run_experiment", 0, 0.5, 10.0)]
    covered = root + [("games.rgda_step", 1, 0.5, 6.0), ("bench.write_outputs", 1, 6.0, 9.5)]
    assert coverage(covered) == pytest.approx(0.9)
    # the same run with an unwrapped busy section in place of write_outputs
    assert coverage(root + covered[2:3]) == pytest.approx(0.55)
    assert coverage(root) == 0.0


def test_nested_counts_skip_counted_spans_inside_counted_spans():
    # names: 0 = mean, 1 = exp, 2 = other. mean(0) > exp(1) > exp(2);
    # mean(0) > other(3) > exp(4); exp(5) outside any mean.
    name = np.array([0, 1, 1, 2, 1, 1])
    parent = np.array([-1, 0, 1, 0, 3, -1])
    totals = tracing.nested_counts(name, parent, {1}, {0}, 3)
    assert totals.tolist() == [2, 0, 0]


# -------------------------------------------------------------- counters
def test_field_repeat_ratio_and_per_step():
    cfg = bench.ExperimentConfig.from_dict({"experiment": "quadgame", "d": 2, "T": 1})
    with tracing.Tracer() as tracer:
        trace = tracer.start_run("test")
        game = bench.build_game(cfg)
        z = bench.game_initial_point(cfg, game)
        game.field(z)
        game.field(z)
        z1 = bench.rgda_step(game, z, 0.1)  # third field call at z
        bench.rceg_step(game, z1, 0.1)  # two new points
        game.grad_x(*game.space.split(z))
    m = tracing.layer_metrics(trace, 1.0)
    assert m["games.field.calls"] == 5
    assert m["games.field.repeat_ratio"] == pytest.approx(2 / 5)
    assert m["games.field.per_step"] == pytest.approx(5 / 2)
    assert m["games.rgda_step.calls"] == 1 and m["games.rceg_step.calls"] == 1
    assert m["games.grad_x.calls"] == 6 and m["games.grad_y.calls"] == 5
    assert m["kernel.slogdet.calls"] > 0
    assert m["kernel.eigh.matrices"] == m["kernel.eigh.calls"] > 0


def test_loss_repeat_ratio_and_karcher_iterations():
    hyp = manifolds.Hyperbolic(3)
    rng = np.random.default_rng(0)
    pts = [hyp.random_point(rng) for _ in range(4)]
    loss = streams.FrechetMeanLoss(hyp, np.stack([p.coords for p in pts]))
    with tracing.Tracer() as tracer:
        trace = tracer.start_run("test")
        x = bench.frechet_mean(hyp, pts)
        loss.grad(x)
        loss.grad(x)
        loss.grad(pts[0])
        loss.value(x)
    m = tracing.layer_metrics(trace, 1.0)
    assert m["streams.loss.grad.calls"] == 3
    assert m["streams.loss.grad.repeat_ratio"] == pytest.approx(1 / 3)
    assert m["streams.loss.value.repeat_ratio"] == 0.0
    iters = m["geometry.frechet_mean.iters"]
    assert iters > 0
    assert m["geometry.weighted_frechet_mean.iters"] == iters
    assert m["manifolds.Hyperbolic.exp.calls"] == iters
    assert m["geometry.frechet_mean.failures"] == 0


def test_failures_count_frechet_mean_errors():
    hyp = manifolds.Hyperbolic(2)
    pts = [hyp.random_point(np.random.default_rng(i), radius=2.0) for i in range(5)]
    with tracing.Tracer() as tracer:
        trace = tracer.start_run("test")
        with pytest.raises(geometry.FrechetMeanError):
            bench.frechet_mean(hyp, pts, max_iter=1)
    m = tracing.layer_metrics(trace, 1.0)
    assert m["geometry.frechet_mean.failures"] == 1
    assert m["geometry.weighted_frechet_mean.failures"] == 1


def test_missing_name_reports_zero_calls(monkeypatch):
    for module in (games, bench, riopt):
        monkeypatch.delattr(module, "ne_diagnostics")
    with tracing.Tracer() as tracer:
        trace = tracer.start_run("test")
    m = tracing.layer_metrics(trace, 1.0)
    assert m["games.ne_diagnostics.calls"] == 0
    assert not hasattr(bench, "ne_diagnostics")


# ------------------------------------------------------ tracing is invisible
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_outputs_are_byte_identical(tmp_path, workload):
    config = small_config(tmp_path, workload, seed=5)
    assert run_cli(workload, config, tmp_path / "plain") == 0
    with tracing.Tracer() as tracer:
        trace = tracer.start_run("test")
        assert run_cli(workload, config, tmp_path / "traced") == 0
    assert len(trace.start) > 0
    for name in ("results.csv", "summary.json"):
        plain = tmp_path / "plain" / name
        if workload == "verify" and name == "results.csv":
            assert not plain.exists()
            continue
        assert plain.read_bytes() == (tmp_path / "traced" / name).read_bytes()


def _snapshot():
    owners = [m for n, m in sys.modules.items() if n == "riopt" or n.startswith("riopt.")]
    owners += [sys.modules["numpy.linalg"]]
    owners += [manifolds.Hyperbolic, manifolds.SPD, manifolds.Sphere, manifolds.Product]
    owners += [games.ZeroSumGame, streams.FrechetMeanLoss]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_every_wrapper_is_removed_after_the_run():
    before = _snapshot()
    original_eigh = np.linalg.eigh
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            assert np.linalg.eigh is not original_eigh
            assert hasattr(bench.rogda_step, "__wrapped__")
            raise RuntimeError("leave the block by an exception")
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert np.linalg.eigh is original_eigh
    assert not hasattr(bench.rogda_step, "__wrapped__")


def test_wrappers_reach_every_lookup_site():
    with tracing.Tracer():
        assert bench.roogd_step is online.roogd_step
        assert getattr(bench.roogd_step, "__wrapped__", None) is not None
        assert geometry.weighted_frechet_mean is online.weighted_frechet_mean
        assert riopt.cli.run_experiment is bench.run_experiment


# ----------------------------------------------------------- output check
def test_output_error_and_tolerance():
    ref = {"a": 100.0, "b": 1e-9, "ok": True}
    assert workloads.output_error(dict(ref), ref) == 0.0
    assert workloads.output_error(dict(ref, a=100.0 * (1 + 1e-9)), ref) <= workloads.TOLERANCE
    assert workloads.output_error(dict(ref, a=101.0), ref) > workloads.TOLERANCE
    # below magnitude 1 the comparison is absolute
    assert workloads.output_error(dict(ref, b=3e-9), ref) <= workloads.TOLERANCE
    assert workloads.output_error(dict(ref, b=1e-3), ref) > workloads.TOLERANCE
    assert workloads.output_error(dict(ref, ok=False), ref) == workloads.MISMATCH
    assert workloads.output_error(dict(ref, a=float("nan")), ref) == workloads.MISMATCH
    assert workloads.output_error({"a": 100.0, "ok": True}, ref) == workloads.MISMATCH
    # extra outputs a later change adds are not compared
    assert workloads.output_error(dict(ref, extra=5.0), ref) == 0.0


def test_check_runs_counts_every_kind_of_failure():
    ref = {"x": 1.0}
    good = {"phase": "timed", "exit_code": 0, "error": None, "headline": {"x": 1.0}}
    runs = [
        good,
        dict(good, exit_code=3),
        dict(good, headline={"x": 2.0}),
        {"phase": "timed", "exit_code": None, "error": "ValueError: boom"},
        dict(good, phase="traced", identical=False),
        dict(good, phase="traced", identical=True),
    ]
    failed, worst, notes = run.check_runs(runs, ref)
    assert failed == 4
    assert worst == workloads.MISMATCH
    assert len(notes) == 4


def test_reference_speed_scales_by_the_calibration():
    ref = run.CALIBRATION_REF_S
    assert run.at_reference_speed(0.9, ref) == 0.9
    # a machine 1.5x slower makes both the run and its calibration 1.5x longer
    assert run.at_reference_speed(0.9 * 1.5, ref * 1.5) == pytest.approx(0.9)


def test_reference_covers_every_config_seed():
    reference = json.loads((HERE / "reference.json").read_text())
    assert sorted(reference) == sorted(workloads.WORKLOADS)
    for entries in reference.values():
        assert sorted(map(int, entries)) == list(range(workloads.REFERENCE_SEEDS))


def test_config_depends_only_on_the_seed():
    assert workloads.make_config("frechet", 3) == workloads.make_config("frechet", 3)
    assert workloads.make_config("frechet", 3) != workloads.make_config("frechet", 4)
    assert workloads.make_config("quadgame", workloads.REFERENCE_SEEDS + 2)["seed"] == 2


# ------------------------------------------------------------ BENCHMARK.json
def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected = {m: tracing.unit(m) for m in tracing.METRICS}
    expected.update(run.PLAIN_UNITS)
    assert per_layer == expected
    assert len(spec["per_layer"]) == len(per_layer) <= 128


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / ".perfbench_out").exists()
