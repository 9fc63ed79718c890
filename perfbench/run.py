"""The riopt benchmark: one workload, timed end to end, outputs checked.

    python3 perfbench/run.py --workload frechet|quadgame|robust_pca|verify
                             [--seed N] [--seconds N] [--trace 0|1]

Run from the root of a checkout. With ``--trace 0`` it prints the end-to-end
metrics: ``wall_ref_s`` (the median of the timed runs of ``riopt.cli.main``,
each scaled to the machine's reference speed), ``setup_s`` (median over fresh
processes) and ``peak_rss_mb``. With ``--trace 1`` it prints the per-layer
metrics of a separate traced run and the plain ``wall_s``. Either way every
experiment run is checked against ``reference.json``. The last line of
stdout is one JSON object; the lines before it name every metric with its
unit, the output check and the run record. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"

RUN_TIMEOUT_EXTRA_S = 90
# One thread per process: the numbers do not depend on how many cores the
# machine lends to BLAS, and one process generates all the load.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
# The time worker.calibration's computation takes at the machine's reference
# speed: its duration in a fast stretch of the 2-vCPU machine where the
# benchmark was defined. It fixes the unit of wall_ref_s, nothing else.
CALIBRATION_REF_S = 0.043
END_TO_END_UNITS = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Reported with the per-layer metrics: their spread or their zero median
# leaves a bound on them meaningless.
CHECK_UNITS = {"error_rate": "ratio", "output_rel_err": "ratio"}
PLAIN_UNITS = {"wall_s": "s", **CHECK_UNITS}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def worker(args: list[str], timeout: float) -> dict:
    env = dict(os.environ, **PINNED_ENV)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_runs(runs: list[dict], reference: dict) -> tuple[int, float, list[str]]:
    """Failed runs, the largest output error, and a note per failure."""
    failed, worst, notes = 0, 0.0, []
    for i, rec in enumerate(runs):
        err = (
            workloads.output_error(rec["headline"], reference)
            if "headline" in rec
            else workloads.MISMATCH
        )
        worst = max(worst, err)
        why = []
        if rec["exit_code"] != 0:
            why.append(f"exit code {rec['exit_code']}")
        if rec["error"]:
            why.append(rec["error"])
        if err > workloads.TOLERANCE:
            why.append(f"output differs from reference by {err:.3g}")
        if rec.get("identical") is False:
            why.append("traced outputs differ from untraced outputs")
        if why:
            failed += 1
            notes.append(f"run {i} ({rec['phase']}): " + "; ".join(why))
    return failed, worst, notes


def at_reference_speed(seconds: float, calibration_s: float) -> float:
    """A time scaled to the machine's reference speed by the calibration
    timed next to it."""
    return seconds * CALIBRATION_REF_S / calibration_s


def wall_summary(walls: list[float]) -> list[tuple[str, float]]:
    """Minimum, median and the highest percentile with ten runs above it."""
    out = [("min", walls[0]), ("median", statistics.median(walls))]
    if len(walls) >= 20:
        pct = 100 * (len(walls) - 10) // len(walls)
        out.append((f"p{pct}", walls[len(walls) * pct // 100]))
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    head = ROOT / ".git"
    if not head.exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or None


def bench(args) -> tuple[dict, list[str]]:
    if not (SRC / "riopt" / "__init__.py").is_file():
        raise BenchError(f"no riopt source under {SRC}; run from the root of a checkout")
    references = json.loads(REFERENCE.read_text(encoding="utf-8"))
    cseed = workloads.config_seed(args.seed)
    reference = references[args.workload].get(str(cseed))
    if reference is None:
        raise BenchError(f"reference.json has no outputs for config seed {cseed}")

    out = OUT / args.workload
    out.mkdir(parents=True, exist_ok=True)
    config = out / "config.json"
    config.write_text(json.dumps(workloads.make_config(args.workload, args.seed), indent=2) + "\n")
    common = ["--workload", args.workload, "--config", str(config), "--src", str(SRC)]

    report = worker(
        ["run", *common, "--out", str(out), "--seconds", str(args.seconds), "--trace", str(args.trace)],
        args.seconds + RUN_TIMEOUT_EXTRA_S,
    )
    setups = report["setups"]
    timed = [r for r in report["runs"] if r["phase"] == "timed"]
    walls = sorted(r["wall_s"] for r in timed)
    ref_walls = sorted(at_reference_speed(r["wall_s"], r["calibration_s"]) for r in timed)
    failed, worst, notes = check_runs(report["runs"], reference)
    attempted = len(report["runs"])
    checks = {"error_rate": failed / attempted, "output_rel_err": worst}
    if args.trace:
        metrics = dict(report["layers"], wall_s=statistics.median(walls), **checks)
        units = dict(report["units"], **PLAIN_UNITS)
    else:
        metrics = {
            "wall_ref_s": statistics.median(ref_walls),
            "setup_s": statistics.median(
                at_reference_speed(s["setup_s"], s["calibration_s"]) for s in setups
            ),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        units = dict(END_TO_END_UNITS)

    meta = {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": report["python"],
        "numpy": report["numpy"],
        "blas_threads": report["blas_threads"],
        "timed_runs": len(walls),
        "traced_runs": sum(r["phase"] == "traced" for r in report["runs"]),
    }
    setup_parts = (
        {k: statistics.median(s["parts"][k] for s in setups) for k in setups[0]["parts"]}
        if setups
        else {}
    )
    reported = {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "config_seed": cseed,
        "trace": args.trace,
        **meta,
        "setup_parts_median_s": setup_parts,
        "checks": checks,
        "failures": notes,
        "metrics": reported,
        "runs": [{k: v for k, v in r.items() if k != "headline"} for r in report["runs"]],
        "setups": setups,
    }
    (out / f"record-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    lines = [
        f"workload {args.workload}  seed {args.seed} (config seed {cseed})  trace {args.trace}",
        "record " + json.dumps(meta),
    ]
    lines += [f"setup part {k} {v:.6f} s" for k, v in setup_parts.items()]
    if setups:
        plain = statistics.median(s["setup_s"] for s in setups)
        lines.append(f"setup processes {len(setups)}: plain median {plain:.6f} s")
    lines += [f"metric {m} {v} {units[m]}" for m, v in metrics.items()]
    for label, values in (("wall", walls), ("wall at reference speed", ref_walls)):
        summary = ", ".join(f"{k} {v:.4f} s" for k, v in wall_summary(values))
        lines.append(f"timed runs {len(values)}: {label} {summary}")
    lines.append(
        "calibration median "
        f"{statistics.median(r['calibration_s'] for r in timed):.5f} s, "
        f"reference {CALIBRATION_REF_S} s"
    )
    lines += [f"check {m} {v} {CHECK_UNITS[m]}" for m, v in checks.items()]
    lines += [f"failure {n}" for n in notes]
    lines.append(
        f"outputs {'PASSED' if failed == 0 else 'FAILED'}: {attempted - failed}/{attempted} "
        f"runs match the reference within {workloads.TOLERANCE:g}"
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.seconds is None:
            args.seconds = float(json.loads(SPEC.read_text(encoding="utf-8"))["run_seconds"])
        if args.seconds <= 0:
            parser.error("--seconds must be positive")
        result, lines = bench(args)
    except (BenchError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
