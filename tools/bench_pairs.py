"""Alternating parent/change pairs of the benchmark, summarised.

    python3 tools/bench_pairs.py PARENT CHANGE --workload frechet
                                 [--workload quadgame ...] [--seed 0 [--seed 63 ...]]
                                 [--pairs 10] [--seconds 30] [--out FILE]

Exports each git revision with ``git archive`` into a temporary directory
and runs ``perfbench/run.py --trace 0`` in each checkout, once per side,
seed, workload and pair. The seeds run one after the other (default: seed
0 only). Pair k runs the parent first when k is even and the change first
when k is odd, so a slow stretch of the machine does not fall on one side
only. Run from inside the repository. Standard library only.

Prints (or writes to ``--out``) one JSON object with one entry per seed
and, in it, one per workload: for each end-to-end metric the median and
quartiles of each side
(linear interpolation, as numpy's default percentile), the pairs the change
wins, the parent's quartile spread, the median change relative to the
parent and every pair as ``[parent, change]``; plus the largest
``output_rel_err``, whether every run passed its output check, and the runs
that exited non-zero (recorded with their last stderr line and left out of
the pairs, instead of ending the batch). Exits 1 when any run failed.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

METRICS = ("wall_ref_s", "setup_s", "peak_rss_mb")  # all lower is better


def summarize(pairs: list[tuple[float, float]]) -> dict:
    """Medians, quartiles, wins and the parent's spread of [parent, change] pairs.

    The change wins a pair when it reads lower. ``clears_gate`` holds when it
    wins at least 9 pairs in 10 and its median is lower than the parent's by
    more than the parent's quartile spread.
    """
    if len(pairs) < 2:
        raise ValueError("need at least two pairs")

    def side(values):
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6),
                "n": len(values)}

    parent, change = (side([p[i] for p in pairs]) for i in (0, 1))
    wins = sum(c < p for p, c in pairs)
    iqr = parent["q3"] - parent["q1"]
    return {
        "parent": parent,
        "change": change,
        "change_wins": f"{wins}/{len(pairs)}",
        "parent_iqr": round(iqr, 6),
        "median_change_rel": round(change["median"] / parent["median"] - 1.0, 6),
        "clears_gate": 10 * wins >= 9 * len(pairs)
        and parent["median"] - change["median"] > iqr,
        "pairs": [[p, c] for p, c in pairs],
    }


def export(rev: str, into: Path) -> Path:
    """The files of ``rev`` (``git archive``) under ``into``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], check=True,
                         capture_output=True).stdout
    into.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run: its metric values and output check.

    A run that exits non-zero gives ``{"failed": ..., "returncode": ...}``,
    with the last line it wrote to stderr.
    """
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        last = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return {"failed": last[0], "returncode": proc.returncode}
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    rel_err = [float(line.split()[2]) for line in lines if line.startswith("check output_rel_err")]
    return {
        "metrics": {m: result["metrics"][m]["value"] for m in METRICS},
        "correct": result["correct"],
        "output_rel_err": max(rel_err),
    }


def workload_report(runs: dict) -> dict:
    """The summary of one workload's runs, ``{"parent": [...], "change": [...]}``.

    Only pairs in which both runs succeeded are summarised; a metric with
    fewer than two such pairs reads None.
    """
    both = [(p, c) for p, c in zip(runs["parent"], runs["change"])
            if "failed" not in p and "failed" not in c]
    ok = [r for side in runs.values() for r in side if "failed" not in r]
    return {
        **{
            m: summarize([(p["metrics"][m], c["metrics"][m]) for p, c in both])
            if len(both) >= 2 else None
            for m in METRICS
        },
        "failed_runs": [
            {"pair": k + 1, "side": side, **r}
            for side, side_runs in runs.items()
            for k, r in enumerate(side_runs)
            if "failed" in r
        ],
        "all_runs_correct": len(ok) == sum(map(len, runs.values()))
        and all(r["correct"] for r in ok),
        "output_rel_err_max": max((r["output_rel_err"] for r in ok), default=None),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append", required=True,
                        help="a perfbench workload; give it again for more")
    parser.add_argument("--seed", type=int, action="append",
                        help="a workload seed (default 0); give it again for more")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")
    workloads = list(dict.fromkeys(args.workload))
    seeds = list(dict.fromkeys(args.seed or [0]))

    runs = {s: {w: {"parent": [], "change": []} for w in workloads} for s in seeds}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: export(getattr(args, side), Path(tmp) / side)
                 for side in ("parent", "change")}
        for seed in seeds:
            for k in range(args.pairs):
                for w in workloads:
                    for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                        run = run_once(trees[side], w, seed, args.seconds)
                        runs[seed][w][side].append(run)
                        print(f"seed {seed} pair {k + 1} {w} {side}: {run.get('metrics', run)}",
                              file=sys.stderr)

    report = {
        "parent": args.parent,
        "change": args.change,
        "pairs_run": args.pairs,
        "seconds": args.seconds,
        "seeds": {str(s): {w: workload_report(runs[s][w]) for w in workloads} for s in seeds},
    }
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    failed = [r["failed_runs"] for entry in report["seeds"].values() for r in entry.values()]
    return 1 if any(failed) else 0


if __name__ == "__main__":
    sys.exit(main())
