"""Regenerate reference.json: the headline outputs of every workload for
every config seed, from the program as it stands.

    python3 perfbench/make_reference.py

Run it from the root of a checkout, only when a change of outputs is
intended; say in the change why the reference moved and by how much. It
rebuilds every entry from scratch, so no entry survives from an older program.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    import riopt.cli

    reference = {}
    out = ROOT / ".perfbench_out" / "reference"
    out.mkdir(parents=True, exist_ok=True)
    for workload in workloads.WORKLOADS:
        entries = reference[workload] = {}
        for seed in range(workloads.REFERENCE_SEEDS):
            config = out / f"{workload}.json"
            config.write_text(json.dumps(workloads.make_config(workload, seed)))
            code = riopt.cli.main(
                [workloads.SUBCOMMAND[workload], "--config", str(config), "--out", str(out / workload)]
            )
            if code != 0:
                print(f"{workload} seed {seed}: exit code {code}", file=sys.stderr)
                return 1
            summary = json.loads((out / workload / "summary.json").read_text())
            entries[str(seed)] = workloads.headline(workload, summary)
            print(f"{workload} seed {seed} done", flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
