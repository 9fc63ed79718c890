import json
from pathlib import Path

import numpy as np
import pytest

from riopt import (
    SPD,
    ExperimentConfig,
    FrechetMeanError,
    FrechetMeanLoss,
    Hyperbolic,
    ZeroSumGame,
    fixed_probe_points,
    frechet_mean,
    gen_frechet_stream,
    run_experiment,
    triangle_comparison_suite,
)
from riopt import bench
from riopt.bench import N_FIXED_PROBES
from riopt.cli import main
from riopt.geometry import Point

from agreement import assert_agree

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
    # field rows evaluated: 1 per single field call, n per call on an n-row stack
    calls = []
    original = ZeroSumGame.field

    def counting(self, z):
        calls.append(1 if z.coords.ndim == 1 else len(z.coords))
        return original(self, z)

    monkeypatch.setattr(ZeroSumGame, "field", counting)
    cfg = ExperimentConfig.from_dict(
        {"experiment": "quadgame", "d": 2, "T": 3, "algorithms": ["rogda", "rgda", "rceg"]}
    )
    run_experiment(cfg)
    # one point each for R-OGDA and RGDA, two (z and the midpoint) for RCEG
    assert sum(calls) == 4 * cfg.T
    # per round one call on the three committed points, one at RCEG's midpoint
    assert calls == [3, 1] * cfg.T


def test_game_runner_factors_each_point_once(monkeypatch):
    calls = {name: 0 for name in ("slogdet", "cholesky", "inv", "eigh", "solve")}
    matrices = dict(calls)
    for name in calls:
        original = getattr(np.linalg, name)

        def counting(a, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            matrices[_name] += int(np.prod(np.shape(a)[:-2]))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    cfg = ExperimentConfig.from_dict(GOLDEN_CONFIGS["quadgame"][1])
    run_experiment(cfg)
    # one logdet per SPD factor of each field point: R-OGDA 2, RGDA 2, RCEG 4
    # per round, and 4 for R-OGDA's two summary residuals
    assert matrices["slogdet"] == 8 * cfg.T + 4
    # cholesky and inv: one Cholesky factor and its inverse per factor of
    # each base point of a stack: 6 for the committed points and 4 for the
    # stage-2 bases per round; eigh: one inside every exp, log and
    # exp_transport, on a whitened matrix (14 per round); no solve, the
    # norms read the whitened tangents. Round 1 factors z0 once per solver
    # row and again as the running average, since a stack's memo is its own.
    # Factoring a point twice within a stack raises these totals.
    assert matrices["cholesky"] == matrices["inv"] == 10 * cfg.T
    assert matrices["eigh"] == 14 * cfg.T
    assert matrices["solve"] == 0
    # the calls: one slogdet on both factors per round for the committed
    # points and for RCEG's midpoint, plus one for each of the two
    # residuals. The stacked calls fold both factors into one stack, so per
    # round one cholesky each for the committed points and the stage-2
    # bases, and one eigh each for the first step (which also transports
    # R-OGDA's field), the log and the exp
    assert calls["slogdet"] == 2 * cfg.T + 2
    assert calls["cholesky"] == calls["inv"] == 2 * cfg.T
    assert calls["eigh"] == 3 * cfg.T
    assert calls["solve"] == 0


def test_triangle_suite_factors_each_spd_point_once(monkeypatch):
    def count(n):
        counts = {name: {"calls": 0, "matrices": 0} for name in ("cholesky", "eigh")}
        with monkeypatch.context() as m:
            for name, c in counts.items():
                original = getattr(np.linalg, name)

                def counting(a, *args, _c=c, _original=original, **kwargs):
                    _c["calls"] += 1
                    _c["matrices"] += int(np.prod(np.shape(a)[:-2]))
                    return _original(a, *args, **kwargs)

                m.setattr(np.linalg, name, counting)
            triangle_comparison_suite(SPD(2), n, 1.5, seed=0)
        return counts

    small, large = count(10), count(50)
    # one stacked call per step, whatever the number of triangles
    for name in ("cholesky", "eigh"):
        assert small[name]["calls"] == large[name]["calls"]
    # the Cholesky factors of the base point once and of A and B per
    # triangle; an eigh per triangle in each of three exps and two logs: a
    # point factored twice raises the counts
    for n, counts in ((10, small), (50, large)):
        assert counts["cholesky"]["matrices"] == 2 * n + 1
        assert counts["eigh"]["matrices"] == 5 * n


def test_frechet_runner_evaluates_each_gradient_once(monkeypatch):
    # one (loss, point) pair per single grad call and per row of a stack;
    # the pairs hold the losses themselves, since the id of a loss freed
    # within a round can be reused by the next one
    calls = []
    grad = FrechetMeanLoss.grad

    def counting_grad(self, x):
        rows = [x.coords] if x.coords.ndim == 1 else x.coords
        calls.extend((self, row.tobytes()) for row in rows)
        return grad(self, x)

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


FOUR_LEARNERS = ["rogd", "roogd", "roogd_corrected", "raoogd"]


def test_a_frechet_round_takes_one_grad_call_under_its_loss(monkeypatch):
    # outside the comparator track, round 1 makes one call: the probes and
    # every learner's rows (R-AOOGD's experts and x_play) under f_1. Each
    # later round adds R-AOOGD's optimism at x_bar and the learners' points
    # under f_{t-1}: 1 + 3(T - 1) calls (it was 3 + 5(T - 1))
    calls, counting = [0], [1]
    grad, track = FrechetMeanLoss.grad, bench._comparator_track

    def counted(self, x):
        calls[0] += counting[0]
        return grad(self, x)

    def uncounted(*args):
        counting[0] = 0
        try:
            return track(*args)
        finally:
            counting[0] = 1

    monkeypatch.setattr(FrechetMeanLoss, "grad", counted)
    monkeypatch.setattr(bench, "_comparator_track", uncounted)
    cfg = ExperimentConfig.from_dict(
        {"experiment": "frechet", "dim": 3, "n_points": 5, "T": 10, "S": 4,
         "algorithms": FOUR_LEARNERS}
    )
    run_experiment(cfg)
    assert calls[0] == 1 + 3 * (cfg.T - 1)


def test_grad_variation_estimate_is_the_per_pair_longhand(monkeypatch):
    # each round from 2 on adds the largest ||grad f_t(p) - grad f_{t-1}(p)||^2
    # over the fixed probes, the comparator u_t and the learner's own x_t,
    # here each pair from single calls
    played = {}
    online_learner = bench._online_learner

    def recording(cfg, name, *args):
        commit, update = online_learner(cfg, name, *args)

        def recorded(prev_loss):
            rows = commit(prev_loss)
            played.setdefault(name, []).append(Point(rows[-1].copy(), "hyperbolic(3)"))
            return rows

        return recorded, update

    monkeypatch.setattr(bench, "_online_learner", recording)
    cfg = ExperimentConfig.from_dict(
        {"experiment": "frechet", "dim": 3, "n_points": 5, "T": 8, "mode": "drift", "S": 3,
         "drift": 0.3, "seed": 3, "algorithms": FOUR_LEARNERS}
    )
    summary = run_experiment(cfg).summary
    h = bench.frechet_manifold(cfg)
    stream = gen_frechet_stream(
        h, T=cfg.T, n_points=cfg.n_points, mode=cfg.mode, S=cfg.S, drift=cfg.drift, seed=cfg.seed
    )
    losses = stream.losses
    probes = fixed_probe_points(h, stream.anchor, 1.5, N_FIXED_PROBES, cfg.seed)
    comps = [frechet_mean(h, [Point(p, h.manifold_id) for p in f.targets]) for f in losses]

    def vt(p, t):
        return h.norm(p, losses[t].grad(p) - losses[t - 1].grad(p)) ** 2

    for name in FOUR_LEARNERS:
        longhand = sum(
            max(vt(p, t) for p in probes + [comps[t], played[name][t]]) for t in range(1, cfg.T)
        )
        assert longhand > 0
        assert_agree(summary["algorithms"][name]["grad_variation_estimate"], longhand, name)


def test_regret_and_comparator_path_are_the_single_call_longhand():
    # round t's cumulative_regret is the learner's cumulative_loss minus the
    # comparator's running loss sum_{s<=t} f_s(u_s), and the path length is
    # sum_t d(u_t, u_{t-1}), here each from single calls
    cfg = ExperimentConfig.from_dict(
        {"experiment": "frechet", "dim": 3, "n_points": 5, "T": 8, "mode": "drift", "S": 3,
         "drift": 0.3, "seed": 3, "algorithms": FOUR_LEARNERS}
    )
    result = run_experiment(cfg)
    h = bench.frechet_manifold(cfg)
    losses = gen_frechet_stream(
        h, T=cfg.T, n_points=cfg.n_points, mode=cfg.mode, S=cfg.S, drift=cfg.drift, seed=cfg.seed
    ).losses
    comps = [frechet_mean(h, [Point(p, h.manifold_id) for p in f.targets]) for f in losses]
    comp_loss, running = [], 0.0
    for f, u in zip(losses, comps):
        running += f.value(u)
        comp_loss.append(running)
    own_loss = dict.fromkeys(FOUR_LEARNERS, 0.0)
    for row in result.rows:
        own_loss[row.algorithm] += row.instantaneous_loss
        assert row.cumulative_loss == own_loss[row.algorithm]
        assert_agree(row.cumulative_regret, row.cumulative_loss - comp_loss[row.round - 1])
    assert len(result.rows) == cfg.T * len(FOUR_LEARNERS)
    for name, s in result.summary["algorithms"].items():
        assert s["final_cumulative_loss"] == own_loss[name]
        assert_agree(s["comparator_cumulative_loss"], comp_loss[-1], name)
        assert_agree(s["final_cumulative_regret"], own_loss[name] - comp_loss[-1], name)
    path = 0.0
    for u, u_prev in zip(comps[1:], comps):
        path += h.dist(u, u_prev)
    assert path > 0
    assert_agree(result.summary["comparator_path_length"], path)


def test_a_run_without_rows_removes_a_stale_results_csv(tmp_path):
    # verify writes no rows: a quadgame's results.csv left in its out dir
    # used to stay beside verify's summary.json and config.json
    quad = {"experiment": "quadgame", "d": 2, "T": 3, "algorithms": ["rgda"]}
    assert _run_cli(tmp_path, "quadgame", quad) == 0
    assert (tmp_path / "out" / "results.csv").exists()
    assert _run_cli(tmp_path, "verify", {"experiment": "verify", "n_triangles": 5}) == 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["config.json", "summary.json"]


@pytest.mark.parametrize("n_points", [1, 4])
def test_frechet_single_round(n_points):
    # no round 2: the comparator's hop and gradient stacks are empty
    cfg = ExperimentConfig.from_dict(
        {"experiment": "frechet", "dim": 3, "n_points": n_points, "T": 1, "S": 1}
    )
    result = run_experiment(cfg)
    assert [r.round for r in result.rows] == [1] * len(cfg.algorithms)
    assert result.summary["comparator_path_length"] == 0.0
    for entry in result.summary["algorithms"].values():
        assert entry["grad_variation_estimate"] == 0.0
        # a one-point cloud is its own mean, at loss 0
        assert (entry["comparator_cumulative_loss"] == 0.0) == (n_points == 1)


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


@pytest.mark.parametrize(
    "config",
    [
        {"d": 2, "c2": 1e155, "T": 3, "algorithms": [{"name": "rgda", "eta": 1e-160}]},
        {"c2": 1e300, "T": 5},
    ],
    ids=["field_norm_overflows", "step_overflows"],
)
def test_overflow_in_the_replayed_round_exits_3(tmp_path, capsys, config):
    # the one-row replay after a failed stacked round raises as that round
    # does: no inf in the outputs, no numpy warning before the message
    assert _run_cli(tmp_path, "quadgame", dict(config, experiment="quadgame")) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not (tmp_path / "out").exists()


OVERFLOW = "exp overflows: the step is too long for float64"


@pytest.mark.parametrize(
    "etas, message",
    [
        ({"rogda": 10.0, "rgda": 10.0, "rceg": 10.0}, OVERFLOW),
        # both fail in the same round: the first in the configured order wins
        ({"rogda": 3.0, "rceg": 3.0}, OVERFLOW),
        ({"rceg": 3.0, "rogda": 3.0}, "matrix must be positive definite"),
    ],
    ids=["all_three", "rogda_first", "rceg_first"],
)
def test_diverging_population_raises_the_sequential_error(tmp_path, capsys, etas, message):
    algorithms = [{"name": name, "eta": eta} for name, eta in etas.items()]
    config = dict(UNSTABLE_QUADGAME, algorithms=algorithms)
    assert _run_cli(tmp_path, "quadgame", config) == 3
    assert capsys.readouterr().err == f"numeric failure: {message}\n"


@pytest.mark.parametrize(
    "command, config, seed, message",
    [
        ("quadgame", {"experiment": "quadgame", "d": 2, "c1": 0.0, "T": 30,
                      "algorithms": [{"name": "rogda", "eta": 1.0}]}, "0",
         "log undefined: a target is not positive definite"),
        # round 5's base has lambda_min -5.8e-16 and fails its own
        # factorization before any anchor is whitened (at +1.1e-16, when the
        # anchor distances came from eigvalsh, a whitened eigenvalue went
        # negative instead); tests/test_games.py covers "log undefined" there
        ("robust-pca", {"experiment": "robust_pca", "d": 3, "n_samples": 5, "T": 30,
                        "algorithms": [{"name": "rceg", "eta": 2.0}]}, "1",
         "matrix is not positive definite"),
    ],
    ids=["quadgame", "robust_pca"],
)
def test_spd_log_of_a_non_positive_whitened_matrix_exits_3(
    tmp_path, capsys, command, config, seed, message
):
    # a whitened eigenvalue rounds to 0 or below: numpy's log used to warn
    # on stderr before the failure
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    argv = [command, "--config", str(path), "--out", str(tmp_path / "out"), "--seed", seed]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err == f"numeric failure: {message}\n"


def test_hyperbolic_exp_overflow_exits_3(tmp_path, capsys):
    # a step this long used to overflow in math.cosh and end in an
    # OverflowError traceback (exit 1)
    config = {"experiment": "frechet", "T": 20, "algorithms": [{"name": "roogd", "eta": 1e6}]}
    assert _run_cli(tmp_path, "frechet", config) == 3
    err = capsys.readouterr().err
    assert err == f"numeric failure: {OVERFLOW}\n"


@pytest.mark.parametrize("seed, residual", [(0, "1.72"), (2, "1.9e-05")])
def test_wide_cloud_comparator_failure_exits_3_before_any_learner_plays(
    tmp_path, capsys, monkeypatch, seed, residual
):
    # A wide hyperbolic cloud defeats the unit-step Karcher iteration: at
    # seed 0 in round 1, at seed 2 first in round 9. The comparator track is
    # solved before round 1, so no learner commits a point or updates either way.
    played = []
    online_learner = bench._online_learner

    def recording(*args):
        commit, update = online_learner(*args)
        return (
            lambda *a: played.append(1) or commit(*a),
            lambda *a: played.append(1) or update(*a),
        )

    monkeypatch.setattr(bench, "_online_learner", recording)
    config = {"experiment": "frechet", "ball_radius": 3, "center_diam": 6, "T": 20, "S": 5}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = main(["frechet", "--config", str(path), "--out", str(tmp_path), "--seed", str(seed)])
    assert code == 3
    err = capsys.readouterr().err
    assert err == f"numeric failure: no convergence after 200 iterations (residual {residual})\n"
    assert not played


@pytest.mark.parametrize("block", [1, 3, bench.COMPARATOR_BLOCK])
def test_frechet_comparator_track_is_bitwise_the_per_round_calls(monkeypatch, block):
    # blocks of a few rounds, with rounds whose previous loss lies in the
    # block before, and one block for the whole track
    monkeypatch.setattr(bench, "COMPARATOR_BLOCK", block)
    h = Hyperbolic(3)
    losses = gen_frechet_stream(h, T=10, n_points=5, mode="drift", S=4, drift=0.3).losses
    comps, vals, now, before = bench._comparator_track(h, losses)
    means = [frechet_mean(h, [Point(p, h.manifold_id) for p in loss.targets]) for loss in losses]
    assert_agree(comps, [u.coords for u in means])
    assert_agree(vals, [loss.value(u) for loss, u in zip(losses, means)])
    grads = [(losses[t].grad(means[t]), losses[t - 1].grad(means[t])) for t in range(1, 10)]
    assert_agree(now, [g.coords for g, _ in grads])
    assert_agree(before, [g.coords for _, g in grads])
    # the first failing round (9 of the wide-cloud config at seed 2) raises
    # its own error, from whichever block holds it
    wide = {"experiment": "frechet", "ball_radius": 3, "center_diam": 6, "T": 20, "S": 5}
    with pytest.raises(FrechetMeanError, match=r"\(residual 1\.9e-05\)"):
        run_experiment(ExperimentConfig.from_dict(dict(wide, seed=2)))


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
SHARE_CONFIGS = {name: config for name, (_, config) in GOLDEN_CONFIGS.items()}
# a subset in another order, with explicit step sizes
for _name in GAMES:
    SHARE_CONFIGS[f"{_name}_reordered"] = dict(
        GOLDEN_CONFIGS[_name][1],
        algorithms=[{"name": "rceg", "eta": 0.03}, {"name": "rogda", "eta": 0.05}],
    )


@pytest.mark.parametrize(
    "name", ["frechet", "quadgame", "robust_pca", "quadgame_reordered", "robust_pca_reordered"]
)
def test_each_algorithm_alone_reproduces_its_share_of_the_joint_run(name):
    config = SHARE_CONFIGS[name]
    joint = run_experiment(ExperimentConfig.from_dict(config))
    for alg in config["algorithms"]:
        alone = run_experiment(ExperimentConfig.from_dict(dict(config, algorithms=[alg])))
        alg = alg if isinstance(alg, str) else alg["name"]
        assert alone.rows == [r for r in joint.rows if r.algorithm == alg], alg
        assert alone.summary["algorithms"] == {alg: joint.summary["algorithms"][alg]}
        assert alone.summary["comparator_path_length"] == joint.summary["comparator_path_length"]
