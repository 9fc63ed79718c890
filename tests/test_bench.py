import json
from pathlib import Path

import numpy as np
import pytest

from riopt import (
    SPD,
    ExperimentConfig,
    FrechetMeanLoss,
    ZeroSumGame,
    run_experiment,
    triangle_comparison_suite,
)
from riopt.bench import N_FIXED_PROBES
from riopt.cli import main

GOLDEN = Path(__file__).parent / "golden"

# Inputs of the stored outputs under tests/golden/<name>/, all at seed 0.
GOLDEN_CONFIGS = {
    "quadgame": (
        "quadgame",
        {"experiment": "quadgame", "d": 4, "T": 20, "algorithms": ["rogda", "rgda", "rceg"]},
    ),
    "robust_pca": (
        "robust-pca",
        {
            "experiment": "robust_pca",
            "d": 5,
            "n_samples": 8,
            "T": 10,
            "algorithms": ["rogda", "rgda", "rceg"],
        },
    ),
    "frechet": (
        "frechet",
        {
            "experiment": "frechet",
            "dim": 4,
            "n_points": 6,
            "T": 12,
            "S": 4,
            "algorithms": ["rogd", "roogd", "roogd_corrected", "raoogd"],
        },
    ),
    "verify": ("verify", {"experiment": "verify", "n_triangles": 50}),
}
GAMES = ("quadgame", "robust_pca")


def _run_cli(tmp_path, command, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return main([command, "--config", str(path), "--out", str(tmp_path / "out"), "--seed", "0"])


def _assert_outputs_match_golden_files(tmp_path, name):
    command, config = GOLDEN_CONFIGS[name]
    assert _run_cli(tmp_path, command, config) == 0
    out = tmp_path / "out"
    written = sorted(p.name for p in out.iterdir() if p.name != "config.json")
    assert written == sorted(p.name for p in (GOLDEN / name).iterdir())
    for fname in written:
        assert (out / fname).read_bytes() == (GOLDEN / name / fname).read_bytes(), fname


@pytest.mark.parametrize("name", GAMES)
def test_game_outputs_match_golden_files(tmp_path, name):
    _assert_outputs_match_golden_files(tmp_path, name)


# verify writes no results.csv, only summary.json
@pytest.mark.parametrize("name", ["frechet", "verify"])
def test_frechet_and_verify_outputs_match_golden_files(tmp_path, name):
    _assert_outputs_match_golden_files(tmp_path, name)


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"eig_low": -1.0}, "eig_low"),
        ({"eig_low": 3.0, "eig_high": 2.0}, "eig_high"),
        ({"d": 1}, "d must be"),
    ],
    ids=["eig_low_not_positive", "eig_low_above_eig_high", "robust_pca_d_below_2"],
)
def test_robust_pca_config_errors_exit_2(tmp_path, capsys, overrides, field):
    config = dict({"experiment": "robust_pca", "T": 2}, **overrides)
    assert _run_cli(tmp_path, "robust-pca", config) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert field in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n_triangles", [0, -3, 2.5, True, "10"])
def test_verify_n_triangles_must_be_a_positive_integer(tmp_path, capsys, n_triangles):
    # 0 and -3 used to pass vacuously with max_violation -Infinity; 2.5 crashed
    config = {"experiment": "verify", "n_triangles": n_triangles}
    assert _run_cli(tmp_path, "verify", config) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "n_triangles" in err
    assert not (tmp_path / "out").exists()


def test_game_runner_evaluates_the_field_once_per_point(monkeypatch):
    calls = []
    original = ZeroSumGame.field

    def counting_field(self, z):
        calls.append(z)
        return original(self, z)

    monkeypatch.setattr(ZeroSumGame, "field", counting_field)
    cfg = ExperimentConfig.from_dict(
        {"experiment": "quadgame", "d": 2, "T": 3, "algorithms": ["rogda", "rgda", "rceg"]}
    )
    run_experiment(cfg)
    # one point each for R-OGDA and RGDA, two (z and the midpoint) for RCEG
    assert len(calls) == 4 * cfg.T


def test_game_runner_factors_each_point_once(monkeypatch):
    calls = {"slogdet": 0, "eigh": 0, "solve": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    cfg = ExperimentConfig.from_dict(GOLDEN_CONFIGS["quadgame"][1])
    run_experiment(cfg)
    # one logdet per SPD factor of each field point: R-OGDA 2, RGDA 2, RCEG 4
    # per round; the 4 the solvers share at z0 equal the 4 of R-OGDA's two
    # summary residuals
    assert calls["slogdet"] == 8 * cfg.T
    # eigh: one square root per factor of each new base point, plus the one
    # inside every exp/log/transport; solve: one per factor of each grad_norm.
    # Factoring a point twice anywhere raises these totals.
    assert calls["eigh"] == 512
    assert calls["solve"] == 120


def test_triangle_suite_factors_each_spd_point_once(monkeypatch):
    def count_eigh(n):
        counts = {"calls": 0, "matrices": 0}
        original = np.linalg.eigh

        def counting(a, *args, **kwargs):
            counts["calls"] += 1
            counts["matrices"] += int(np.prod(np.shape(a)[:-2]))
            return original(a, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigh", counting)
            triangle_comparison_suite(SPD(2), n, 1.5, seed=0)
        return counts

    small, large = count_eigh(10), count_eigh(50)
    # one stacked call per step, whatever the number of triangles
    assert small["calls"] == large["calls"]
    # the base point once; per triangle three exps, the square roots of A
    # and B, and two logs: a point factored twice raises the count
    for n, counts in ((10, small), (50, large)):
        assert counts["matrices"] <= 7 * n + 1


def test_frechet_runner_evaluates_each_gradient_once(monkeypatch):
    calls = []
    original = FrechetMeanLoss.grad

    def counting_grad(self, x):
        calls.append((id(self), x.coords.tobytes()))
        return original(self, x)

    monkeypatch.setattr(FrechetMeanLoss, "grad", counting_grad)
    cfg = ExperimentConfig.from_dict(
        {"experiment": "frechet", "dim": 3, "n_points": 5, "T": 10, "S": 4, "algorithms": ["roogd"]}
    )
    run_experiment(cfg)
    # every round: the probes and x_t under this round's loss; from round 2
    # on also the comparator under this and the previous loss, and x_t under
    # the previous loss (18T - 3 with 14 probes)
    assert len(calls) == (N_FIXED_PROBES + 4) * cfg.T - 3
    assert len(set(calls)) == len(calls)


# ------------------------------------------------------------- CLI exit paths
UNSTABLE_QUADGAME = {"experiment": "quadgame", "d": 2, "c1": 0.5, "T": 20}


@pytest.mark.parametrize("name", ["rogda", "rgda", "rceg"])
def test_diverging_solver_exits_3(tmp_path, capsys, name):
    config = dict(UNSTABLE_QUADGAME, algorithms=[{"name": name, "eta": 10.0}])
    assert _run_cli(tmp_path, "quadgame", config) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:")
    # the message is all of stderr: no numpy warning precedes it
    assert err.count("\n") == 1 and err.endswith("\n")


def _run_sweep(tmp_path, configs, *flags):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"configs": configs}), encoding="utf-8")
    code = main(["sweep", "--config", str(path), "--out", str(tmp_path / "out"), *flags])
    report = json.loads((tmp_path / "out" / "sweep_summary.json").read_text(encoding="utf-8"))
    return code, report


def test_sweep_with_one_failed_run_exits_0_and_aggregates_the_rest(tmp_path):
    bad = dict(UNSTABLE_QUADGAME, algorithms=[{"name": "rogda", "eta": 10.0}])
    ok = dict(UNSTABLE_QUADGAME, algorithms=["rogda"])
    code, report = _run_sweep(tmp_path, [bad, ok])
    assert code == 0
    assert [r["status"] for r in report["runs"]] == ["error", "ok"]
    ok_stats = report["runs"][1]["summary"]["algorithms"]["rogda"]
    assert list(report["aggregate"]) == ["rogda"]
    for key, agg in report["aggregate"]["rogda"].items():
        assert agg["values"] == [ok_stats[key]]


def test_sweep_with_every_run_failed_exits_3(tmp_path, capsys):
    bad = [
        dict(UNSTABLE_QUADGAME, algorithms=[{"name": name, "eta": 10.0}])
        for name in ("rogda", "rgda")
    ]
    code, report = _run_sweep(tmp_path, bad)
    assert code == 3
    assert [r["status"] for r in report["runs"]] == ["error", "error"]
    assert report["aggregate"] == {}
    assert capsys.readouterr().err.startswith("run 0:")


def test_timing_flag_and_record_timing_key_are_rejected(tmp_path, capsys):
    config = dict(UNSTABLE_QUADGAME, algorithms=["rogda"])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["quadgame", "--config", str(path), "--out", str(tmp_path / "out"), "--timing"])
    assert exc.value.code == 2
    assert _run_cli(tmp_path, "quadgame", dict(config, record_timing=True)) == 2
    assert "record_timing" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_an_algorithm_listed_twice_is_a_config_error(tmp_path, capsys):
    config = dict(UNSTABLE_QUADGAME, algorithms=["rgda", {"name": "rgda", "eta": 0.01}])
    assert _run_cli(tmp_path, "quadgame", config) == 2
    assert capsys.readouterr().err.startswith("config error: each algorithm may be listed once")


def test_seed_and_rounds_flags_override_every_sweep_config(tmp_path):
    configs = [dict(UNSTABLE_QUADGAME, algorithms=[name]) for name in ("rgda", "rceg")]
    code, report = _run_sweep(tmp_path, configs, "--seed", "5", "--rounds", "3")
    assert code == 0
    assert [(r["seed"], r["T"]) for r in report["runs"]] == [(5, 3), (5, 3)]


# ------------------------------------------------------ independent players
@pytest.mark.parametrize("name", ["frechet", "quadgame", "robust_pca"])
def test_each_algorithm_alone_reproduces_its_share_of_the_joint_run(name):
    _, config = GOLDEN_CONFIGS[name]
    joint = run_experiment(ExperimentConfig.from_dict(config))
    for alg in config["algorithms"]:
        alone = run_experiment(ExperimentConfig.from_dict(dict(config, algorithms=[alg])))
        assert alone.rows == [r for r in joint.rows if r.algorithm == alg], alg
        assert alone.summary["algorithms"] == {alg: joint.summary["algorithms"][alg]}
        assert alone.summary["comparator_path_length"] == joint.summary["comparator_path_length"]
