"""Regenerate perfbench/reference.json, the default-seed values the gate compares against.

    python3 perfbench/make_reference.py

Runs one untraced pass of every workload at the default seed. Every command
must pass the oracle checks first; the values it produced are then stored
with the command that produced them and the commit they came from. Rerun
only when a change is meant to alter these values, and say so in its record.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from child import DEFAULT_SEED, REFERENCE_PATH
from run import CHILD, OUT_BASE, ROOT
from workloads import WORKLOADS


# Where values_of (gate.py) reads each command's numbers.
ORIGIN = {
    "moment": "'value' of its results/moment-*.json",
    "sweep": "'slope' and 'c_factor' of its results/sweep-*-fit.json, value[x] from its tables/*.csv",
    "geometry": "every number in 'payload' of its results/geometry-*.json",
}


def _commit() -> str:
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or "unknown"


def main() -> int:
    commit = _commit()
    reference = {"seed": DEFAULT_SEED, "commit": commit, "rel_tol": 1e-9, "workloads": {}}
    for workload in sorted(WORKLOADS):
        out = os.path.join(OUT_BASE, f"reference-{workload}")
        result_path = out + ".json"
        subprocess.run(
            [sys.executable, CHILD, "--workload", workload, "--seed", str(DEFAULT_SEED),
             "--out", out, "--result", result_path, "--write-reference"],
            cwd=ROOT, check=True,
        )
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        if result["failures"]:
            print(json.dumps(result["failures"], indent=1), file=sys.stderr)
            return 1
        reference["workloads"][workload] = {
            label: {
                "source": f"`momentcurve {label}` at commit {commit}: "
                          f"{ORIGIN[label.split()[0]]}; passed the gate's oracle checks",
                "values": values,
            }
            for label, values in result["values"].items()
        }
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
