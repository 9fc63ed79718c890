import json
from pathlib import Path

import pytest

from riopt import ExperimentConfig, FrechetMeanLoss, ZeroSumGame, run_experiment
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
    assert capsys.readouterr().err.startswith("numeric failure:")


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
