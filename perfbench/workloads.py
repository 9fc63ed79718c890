"""Workload definitions, headline extraction and the output check.

Standard library only: the parent process, the worker and the reference
generator all import it, and the parent never imports numpy.
"""

from __future__ import annotations

import math

WORKLOADS = ("frechet", "quadgame", "robust_pca", "verify")

# Subcommand of the ``bench`` CLI that runs each workload.
SUBCOMMAND = {
    "frechet": "frechet",
    "quadgame": "quadgame",
    "robust_pca": "robust-pca",
    "verify": "verify",
}

# Experiment configs, everything but the seed. T is sized so that one run
# takes about 0.7 s on one core: many short runs per measurement give a
# median that no single slow run moves. verify keeps its
# default n_triangles, which already takes that long. S is shortened with T
# so that the abrupt stream still switches its center three times.
BASE_CONFIGS = {
    "frechet": {
        "experiment": "frechet",
        "T": 100,
        "dim": 10,
        "n_points": 20,
        "mode": "abrupt",
        "S": 25,
        "algorithms": ["rogd", "roogd", "roogd_corrected", "raoogd"],
    },
    "quadgame": {
        "experiment": "quadgame",
        "T": 400,
        "d": 10,
        "c1": 0.5,
        "algorithms": ["rogda", "rgda", "rceg"],
    },
    "robust_pca": {
        "experiment": "robust_pca",
        "T": 16,
        "d": 10,
        "n_samples": 40,
        "algorithms": ["rogda", "rgda", "rceg"],
    },
    "verify": {
        "experiment": "verify",
        "n_triangles": 1000,
    },
}

# The benchmark seed selects one of REFERENCE_SEEDS input sets, each with its
# stored reference outputs, so that every run is checked whatever seed it is
# given. DEFAULT_SEED is the one to quote; HELD_OUT_SEED is kept out of all
# tuning so that a claimed gain can be re-checked on inputs it was not
# written against.
REFERENCE_SEEDS = 64
DEFAULT_SEED = 0
HELD_OUT_SEED = 63

# Largest accepted difference from the reference. Reassociated floating-point
# sums stay far below it; any change of algorithm or data goes far above it.
TOLERANCE = 1e-6
# Error reported for a missing or non-finite value: the largest difference
# two finite numbers can have under value_error.
MISMATCH = 2.0


def config_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def make_config(workload: str, seed: int) -> dict:
    """The experiment config the program receives for a benchmark seed."""
    if workload not in BASE_CONFIGS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return dict(BASE_CONFIGS[workload], seed=config_seed(seed))


def headline(workload: str, summary: dict) -> dict:
    """The values of ``summary.json`` whose meaning the paper fixes.

    Flat ``{path: value}``; a missing entry raises KeyError, which the caller
    counts as a failed output check.
    """
    out = {}
    if workload == "verify":
        for name, check in summary["checks"].items():
            out[f"{name}.passed"] = check["passed"]
            if "report" in check:
                out[f"{name}.max_violation"] = check["report"]["max_violation"]
            elif "worst_defect_to_bound" in check:
                out[f"{name}.worst_defect_to_bound"] = check["worst_defect_to_bound"]
        out["passed"] = summary["passed"]
        return out
    keys = (
        ("final_cumulative_loss", "comparator_cumulative_loss")
        if workload == "frechet"
        else ("final_cumulative_loss", "grad_norm_final")
    )
    for alg, stats in summary["algorithms"].items():
        for key in keys:
            out[f"{alg}.{key}"] = stats[key]
        if alg == "rogda" and workload != "frechet":
            for i, r in enumerate(stats["ne_residual_averaged"]):
                out[f"rogda.ne_residual_averaged[{i}]"] = r
    return out


def value_error(got, want) -> float:
    """Difference of one headline value from its reference.

    Booleans must match exactly (MISMATCH if not). Numbers are compared relative
    to their magnitude, and absolutely below magnitude 1, so that residuals
    near rounding noise do not read as large relative changes.
    """
    if isinstance(want, bool) or isinstance(got, bool):
        return 0.0 if got is want else MISMATCH
    if not (isinstance(got, (int, float)) and math.isfinite(got)):
        return MISMATCH
    return abs(got - want) / max(abs(got), abs(want), 1.0)


def output_error(got: dict, want: dict) -> float:
    """Largest difference over the reference's entries; MISMATCH if one is missing."""
    worst = 0.0
    for key, ref in want.items():
        if key not in got:
            return MISMATCH
        worst = max(worst, value_error(got[key], ref))
    return worst
