"""Every config ends in an ExperimentConfig or a ConfigError, never in
another exception: fuzzed over the fields of ``from_dict`` and over sweep
files, and through the CLI, which turns a ConfigError into exit 2 and one
line on stderr."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import riopt
from riopt import ExperimentConfig
from riopt.bench import ALGORITHMS, EXPERIMENTS, ConfigError, expand_sweep_file
from riopt.cli import main

FIELDS = [f.name for f in dataclasses.fields(ExperimentConfig)]
NAMES = sorted({name for names in ALGORITHMS.values() for name in names})

JSON_VALUES = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([2**31, 2**63, -(2**63), 10**400, -(10**400)]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.text(max_size=4),
    st.sampled_from(["5", "0.1", "abrupt", "drift", *EXPERIMENTS, *NAMES]),
    st.none(),
    st.lists(st.integers(-2, 2), max_size=2),
)
ALGORITHM_ENTRIES = st.lists(
    st.one_of(
        st.sampled_from(NAMES),
        st.fixed_dictionaries({"name": st.sampled_from(NAMES)}, optional={"eta": JSON_VALUES}),
        JSON_VALUES,
    ),
    max_size=3,
)
FIELD_VALUES = st.dictionaries(
    st.sampled_from(FIELDS),
    JSON_VALUES,
    max_size=4,
).flatmap(
    lambda d: st.just(d)
    if "algorithms" not in d
    else st.one_of(st.just(d), ALGORITHM_ENTRIES.map(lambda a: {**d, "algorithms": a}))
)


@settings(max_examples=300, deadline=None)
@given(experiment=st.sampled_from(EXPERIMENTS), values=FIELD_VALUES)
@example(experiment="quadgame", values={"T": 2.5})
@example(experiment="quadgame", values={"d": 2.5})
@example(experiment="frechet", values={"n_points": 3.0})
@example(experiment="frechet", values={"T": "5"})
@example(experiment="frechet", values={"T": None})
@example(experiment="quadgame", values={"c1": "x"})
@example(experiment="frechet", values={"algorithms": [{"name": "rogd", "eta": "0.1"}]})
@example(experiment="frechet", values={"seed": -1})
@example(experiment="frechet", values={"S": 1.5})
@example(experiment="frechet", values={"seed": 1.5})
@example(experiment="frechet", values={"T": True})
@example(experiment="frechet", values={"ball_radius": -1})
@example(experiment="frechet", values={"drift": 10**400})
@example(experiment="frechet", values={"algorithms": 5})
@example(experiment="frechet", values={"out": 5})
def test_from_dict_ends_in_a_config_or_a_config_error(experiment, values):
    raw = {"experiment": experiment, **values}
    try:
        cfg = ExperimentConfig.from_dict(raw)
    except ConfigError:
        return
    for name in ("T", "seed", "S", "dim", "n_points", "d", "n_samples", "n_triangles"):
        value = getattr(cfg, name)
        assert isinstance(value, int) and not isinstance(value, bool)
    for name in ("drift", "ball_radius", "center_diam", "c1", "c2", "alpha", "eig_low"):
        assert math.isfinite(getattr(cfg, name))
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize(
    "command, config, field",
    [
        ("quadgame", {"experiment": "quadgame", "d": 2, "T": 2.5}, "T"),
        ("quadgame", {"experiment": "quadgame", "d": 2.5, "T": 2}, "d"),
        ("frechet", {"experiment": "frechet", "T": True}, "T"),
        ("frechet", {"experiment": "frechet", "seed": -1}, "seed"),
        ("frechet", {"experiment": "frechet", "S": 1.5}, "S"),
        ("frechet", {"experiment": "frechet", "ball_radius": -1}, "ball_radius"),
        ("frechet", {"experiment": "frechet", "center_diam": 0}, "center_diam"),
        ("quadgame", {"experiment": "quadgame", "c1": -1}, "c1"),
        ("quadgame", {"experiment": "quadgame", "c1": "x"}, "c1"),
        ("quadgame", {"experiment": "quadgame", "algorithms": [{"name": "rogda", "eta": "0.1"}]},
         "eta"),
        # beyond numpy's index range: no array can have this size
        ("frechet", {"experiment": "frechet", "dim": 10**19}, "dim"),
        ("quadgame", {"experiment": "quadgame", "d": 2**63}, "d"),
        ("verify", {"experiment": "verify", "n_triangles": 2**63}, "n_triangles"),
        # the frechet constants read the curvature of the space it runs on
        ("frechet", {"experiment": "frechet", "curvature_mag": 4.0},
         "unknown config keys: ['curvature_mag']"),
        # the output directory is --out alone
        ("frechet", {"experiment": "frechet", "out": "x"}, "unknown config keys: ['out']"),
        # raoogd's step-size pool overflows (1e-160) or divides by zero (1e-170)
        ("frechet", {"experiment": "frechet", "center_diam": 1e-160, "T": 5}, "center_diam"),
        ("frechet", {"experiment": "frechet", "center_diam": 1e-170, "T": 5}, "center_diam"),
    ],
)
def test_cli_bad_config_exits_2_with_one_line(tmp_path, capsys, command, config, field):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "config_bytes, out, message",
    [
        (None, "out", "config file cannot be read"),
        (b'{"T": 2}\xff', "out", "config file is not valid JSON"),
        (b'{"T": 2}', "file", "file is not a directory"),
        (b'{"T": 2}', "file/out", "file is not a directory"),
    ],
    ids=["config_is_a_directory", "config_not_utf8", "out_is_a_file", "out_under_a_file"],
)
def test_cli_path_errors_exit_2_with_one_line(tmp_path, capsys, config_bytes, out, message):
    # a config path that is a directory (None) or not UTF-8, or an --out
    # that cannot be a directory: checked before the run, nothing written
    path = tmp_path / "config.json"
    if config_bytes is None:
        path.mkdir()
    else:
        path.write_bytes(config_bytes)
    (tmp_path / "file").write_text("kept", encoding="utf-8")
    assert main(["quadgame", "--config", str(path), "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert (tmp_path / "file").read_text(encoding="utf-8") == "kept"
    assert not (tmp_path / "out").exists()


# Sweep files: valid configs and axes often enough that both outcomes occur.
VALID_CONFIGS = st.fixed_dictionaries(
    {"experiment": st.sampled_from(EXPERIMENTS)},
    optional={"seed": st.integers(0, 5), "T": st.integers(1, 50)},
)
CONFIG_OBJECTS = st.one_of(
    VALID_CONFIGS,
    st.builds(
        lambda experiment, values: {**experiment, **values},
        st.one_of(st.just({}), st.sampled_from(EXPERIMENTS).map(lambda e: {"experiment": e})),
        FIELD_VALUES,
    ),
)
AXES = st.one_of(
    st.dictionaries(st.sampled_from(["seed", "T"]), st.lists(st.integers(0, 5), max_size=3),
                    max_size=2),
    st.dictionaries(
        st.sampled_from(FIELDS + ["bogus"]),
        st.one_of(st.lists(JSON_VALUES, max_size=3), JSON_VALUES),
        max_size=3,
    ),
)
SWEEP_FILES = st.one_of(
    st.fixed_dictionaries({"configs": st.lists(VALID_CONFIGS, max_size=3)}),
    st.fixed_dictionaries({"base": VALID_CONFIGS}, optional={"sweep": AXES}),
    JSON_VALUES,
    st.lists(CONFIG_OBJECTS, max_size=2),
    st.fixed_dictionaries(
        {"configs": st.one_of(st.lists(st.one_of(CONFIG_OBJECTS, JSON_VALUES), max_size=3),
                              JSON_VALUES, CONFIG_OBJECTS)},
        optional={"base": CONFIG_OBJECTS, "extra": JSON_VALUES},
    ),
    st.fixed_dictionaries(
        {},
        optional={
            "base": st.one_of(CONFIG_OBJECTS, JSON_VALUES),
            "sweep": st.one_of(AXES, JSON_VALUES),
            "extra": JSON_VALUES,
        },
    ),
)


@settings(max_examples=300, deadline=None)
@given(raw=SWEEP_FILES)
@example(raw={"base": {"experiment": "frechet"}, "sweep": {"seed": 5}})
@example(raw={"base": {"experiment": "frechet"}, "sweep": [1]})
@example(raw={"configs": [5]})
@example(raw={"base": 3})
@example(raw={"base": {"experiment": "frechet"}, "sweep": {"seed": []}})
@example(raw={"configs": []})
@example(raw={"configs": {"experiment": "frechet"}})
@example(raw=[{"experiment": "frechet"}])
@example(raw=5)
def test_expand_sweep_file_ends_in_configs_or_a_config_error(raw):
    try:
        configs = expand_sweep_file(raw)
    except ConfigError:
        return
    assert configs and all(isinstance(c, ExperimentConfig) for c in configs)
    if "configs" in raw:
        assert len(configs) == len(raw["configs"])
    else:
        assert len(configs) == math.prod(len(v) for v in raw.get("sweep", {}).values())


def test_expand_sweep_file_runs_every_combination_of_the_axes():
    raw = {"base": {"experiment": "frechet", "T": 3}, "sweep": {"seed": [0, 1], "dim": [2, 3, 4]}}
    configs = expand_sweep_file(raw)
    assert [(c.seed, c.dim) for c in configs] == [(s, d) for s in (0, 1) for d in (2, 3, 4)]
    assert {c.T for c in configs} == {3}


@pytest.mark.parametrize(
    "sweep, words",
    [
        ({"base": {"experiment": "frechet"}, "sweep": {"seed": 5}}, "axis 'seed'"),
        ({"base": {"experiment": "frechet"}, "sweep": {"seed": []}}, "axis 'seed'"),
        ({"base": {"experiment": "frechet"}, "sweep": [1]}, "'sweep'"),
        ({"configs": [5]}, "JSON object"),
        ({"configs": []}, "'configs'"),
        ({"base": 3}, "'base'"),
        ({"configs": [], "base": {}}, "unknown sweep keys"),
        ([1], "JSON object"),
    ],
)
def test_cli_bad_sweep_file_exits_2_with_one_line(tmp_path, capsys, sweep, words):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(sweep), encoding="utf-8")
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and words in err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["frechet", "quadgame"])
def test_cli_config_file_that_is_not_an_object_exits_2(tmp_path, capsys, command):
    path = tmp_path / "config.json"
    path.write_text("[1, 2]", encoding="utf-8")
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "JSON object" in err


# Run in a child process whose address space is capped, so that however the
# machine overcommits memory the allocation is refused and nothing is filled.
MEMORY_CAP = 2 * 1024**3


def _capped_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


@pytest.mark.skipif(sys.platform != "linux", reason="caps the child's address space")
@pytest.mark.parametrize(
    "command, config",
    [
        ("frechet", {"experiment": "frechet", "dim": 10**15}),
        ("quadgame", {"experiment": "quadgame", "d": 10**8}),
    ],
)
def test_cli_config_too_large_to_allocate_exits_2_with_one_line(tmp_path, command, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    src = str(Path(riopt.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
    proc = subprocess.run(
        [sys.executable, "-m", "riopt.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=_capped_address_space,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error: the run does not fit in memory")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
