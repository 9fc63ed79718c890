"""One benchmark process: set-up timing or the timed runs of one workload.

    worker.py setup --workload W --config PATH --src DIR
    worker.py run   --workload W --config PATH --src DIR --out DIR
                    --seconds N --trace 0|1

``run.py`` starts it with BLAS pinned to one thread. It imports ``riopt``
from ``--src`` only, reads the experiment config from ``--config`` (the
program never sees the benchmark seed) and prints one JSON object on stdout.
Only the standard library is imported before ``riopt``, so the set-up time
of a fresh process includes numpy's import, as a user's first run does.
The ``run`` process starts the ``setup`` processes itself, one at a time and
spread over the timed runs, and waits for each. After the warm-up run and
after each timed run it times a fixed calibration computation, which
``run.py`` uses to scale the timed runs to the machine's reference speed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

import workloads

MIN_TIMED_RUNS = 3
# Rounds of the calibration computation, about 45 ms on the machine where
# the benchmark was defined.
CALIBRATION_ROUNDS = 1500
# Fresh set-up processes per untraced run; setup_s is their median. One more
# runs first and is not counted: it compiles bytecode and warms the file cache.
SETUP_PROCESSES = 10
SETUP_TIMEOUT_S = 30
OUTPUT_FILES = ("results.csv", "summary.json")


def import_riopt(src: str) -> float:
    """Import riopt from ``src`` and return the seconds the import took."""
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import riopt  # noqa: F401

    elapsed = time.perf_counter() - t0
    where = Path(riopt.__file__).resolve()
    if Path(src).resolve() not in where.parents:
        raise SystemExit(f"riopt was imported from {where}, not from {src}")
    return elapsed


def setup(args) -> dict:
    """Time the import and each public call that builds the inputs of round 1."""
    times = {"import riopt": import_riopt(args.src)}
    from riopt import bench, streams
    from riopt.manifolds import Hyperbolic

    raw = json.loads(Path(args.config).read_text(encoding="utf-8"))

    def timed(label, fn, *a):
        t0 = time.perf_counter()
        out = fn(*a)
        times[label] = time.perf_counter() - t0
        return out

    cfg = timed("ExperimentConfig.from_dict", bench.ExperimentConfig.from_dict, raw)
    if args.workload == "frechet":

        def make_stream():
            return streams.gen_frechet_stream(
                Hyperbolic(cfg.dim),
                T=cfg.T,
                n_points=cfg.n_points,
                mode=cfg.mode,
                S=cfg.S,
                drift=cfg.drift,
                ball_radius=cfg.ball_radius,
                center_diam=cfg.center_diam,
                seed=cfg.seed,
            )

        stream = timed("gen_frechet_stream", make_stream)
        timed(
            "fixed_probe_points",
            streams.fixed_probe_points,
            stream.manifold,
            stream.anchor,
            cfg.center_diam / 2.0 + cfg.ball_radius,
            getattr(bench, "N_FIXED_PROBES", 14),
            cfg.seed,
        )
    elif args.workload in ("quadgame", "robust_pca"):
        game = timed("build_game", bench.build_game, cfg)
        timed("game_initial_point", bench.game_initial_point, cfg, game)
    calibrate = calibration()
    calibrate()  # the first call pays LAPACK's first-use costs
    return {"setup_s": sum(times.values()), "parts": times, "calibration_s": calibrate()}


def setup_process(args) -> dict:
    """Set-up timing in a fresh process, as a user's first run pays it."""
    argv = ["setup", "--workload", args.workload, "--config", args.config, "--src", args.src]
    proc = subprocess.run(
        [sys.executable, __file__, *argv],
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "*openblas*.so*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def calibration():
    """A fixed computation, independent of riopt, to time next to each run.

    It mixes what riopt spends its time on: a LAPACK ``eigh`` of a 10x10
    matrix, small-array arithmetic and interpreted Python. On a shared host
    the speed lent to one process changes by up to 1.7x over minutes, and
    the time of this computation moves with it. Returns a function that runs
    it once and returns the seconds it took.
    """
    import numpy as np

    a = np.random.default_rng(0).standard_normal((10, 10))
    spd = a @ a.T + np.eye(10)
    v = a[0]

    def timed() -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(CALIBRATION_ROUNDS):
            w, u = np.linalg.eigh(spd)
            acc += float(v @ v) + float(((u * w) @ u.T)[0, 0])
            acc += sum({j: 0.5 * j for j in range(20)}.values())
        return time.perf_counter() - t0

    return timed


def read_outputs(out_dir: Path) -> dict:
    return {n: (out_dir / n).read_bytes() for n in OUTPUT_FILES if (out_dir / n).exists()}


def fastest(runs: list[dict], phase: str) -> float:
    return min(r["wall_s"] for r in runs if r["phase"] == phase)


def run(args) -> dict:
    import_riopt(args.src)
    import numpy
    import riopt.cli

    out = Path(args.out)

    def one(phase: str, out_dir: Path) -> dict:
        argv = [workloads.SUBCOMMAND[args.workload], "--config", args.config, "--out", str(out_dir)]
        rec = {"phase": phase, "exit_code": None, "error": None}
        t0 = time.perf_counter()
        try:
            rec["exit_code"] = riopt.cli.main(argv)
        except SystemExit as exc:
            rec["exit_code"] = exc.code
        except Exception as exc:  # noqa: BLE001 - a raising run is a failed run
            rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["wall_s"] = time.perf_counter() - t0
        if rec["error"] is None:
            try:
                summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
                rec["headline"] = workloads.headline(args.workload, summary)
            except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
                rec["error"] = f"unreadable outputs: {type(exc).__name__}: {exc}"
        return rec

    def bad(rec: dict) -> bool:
        return rec["exit_code"] != 0 or rec["error"] is not None

    def repeat(phase: str, out_dir: Path, seconds: float, min_runs: int, before=None, after=None):
        recs = []
        deadline = time.perf_counter() + seconds
        while True:
            if before:
                before(len(recs))
            rec = one(phase, out_dir)
            if after:
                after(rec)
            recs.append(rec)
            if bad(rec) or (len(recs) >= min_runs and time.perf_counter() >= deadline):
                return recs

    results_dir = out / "results"
    share = 0.5 if args.trace else 1.0
    setups = []

    def interleave_setups(_k):
        # before each timed run, catch up to one set-up process per
        # 1/SETUP_PROCESSES of the window, so that they sample the machine
        # over the same seconds as the timed runs
        due = 1 + SETUP_PROCESSES * (time.perf_counter() - start) / args.seconds
        while len(setups) < min(due, SETUP_PROCESSES):
            setups.append(setup_process(args))

    calibrate = calibration()
    calibrations = []

    def calibrate_after(rec):
        # the calibrations just before and just after the run
        calibrations.append(calibrate())
        rec["calibration_s"] = (calibrations[-2] + calibrations[-1]) / 2

    if not args.trace:
        setup_process(args)
    runs = [one("warmup", results_dir)]
    calibrations.append(calibrate())
    start = time.perf_counter()
    before = None if args.trace else interleave_setups
    runs += repeat("timed", results_dir, share * args.seconds, MIN_TIMED_RUNS, before, calibrate_after)
    while not args.trace and len(setups) < SETUP_PROCESSES:
        setups.append(setup_process(args))
    report = {
        "runs": runs,
        "setups": setups,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "riopt": riopt.__file__,
    }
    if args.trace:
        import tracing

        reference = read_outputs(results_dir)
        traced_dir = out / "traced"
        run_id = uuid.uuid4().hex
        per_run = []
        with tracing.Tracer() as tracer:

            def before(k):
                tracer.start_run(f"{run_id}-{k}")

            def after(rec):
                trace = tracer.trace
                rec["identical"] = read_outputs(traced_dir) == reference
                rec["spans"] = len(trace.start)
                per_run.append(tracing.layer_metrics(trace, rec["wall_s"]))
                trace.save(out / "spans.npz")

            runs += repeat("traced", traced_dir, share * args.seconds, 1, before, after)
        # median_low keeps counts whole and every value one that was measured
        layers = {m: statistics.median_low(r[m] for r in per_run) for m in per_run[0]}
        layers["trace.overhead_ratio"] = fastest(runs, "traced") / fastest(runs, "timed")
        report["layers"] = {m: layers[m] for m in tracing.METRICS}
        report["units"] = {m: tracing.unit(m) for m in tracing.METRICS}
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--out")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    report = setup(args) if args.mode == "setup" else run(args)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
