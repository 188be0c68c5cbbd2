"""One pass of one workload, in a fresh process started by run.py.

    python3 perfbench/child.py --workload W --seed N --out DIR --result FILE [--trace] [--setup-only]

Imports momentcurve from the checkout's src/, generates the workload's inputs
from the seed, runs every command through `momentcurve.cli.main` in turn
(closed loop, one client), then checks the outputs with the gate outside the
timed region. Writes one JSON result file; the CLI's own output goes to
DIR/cli.log.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import momentcurve  # noqa: E402
from momentcurve import cli  # noqa: E402

import gate  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

REFERENCE_PATH = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 1


def _workers(argv) -> int:
    argv = list(argv)
    return int(argv[argv.index("--workers") + 1]) if "--workers" in argv else 1


def _manifest_outputs(out_dir: str) -> dict[tuple, list[str]]:
    """argv tuple -> output paths, in run order, from the manifest index."""
    found: dict[tuple, list[list[str]]] = {}
    index = os.path.join(out_dir, "manifests", "index.jsonl")
    if os.path.exists(index):
        with open(index, encoding="utf-8") as fh:
            for line in fh:
                entry = json.loads(line)
                found.setdefault(tuple(entry["command"][1:]), []).append(entry["outputs"])
    return found


def _disk_usage(out_dir: str) -> tuple[int, int]:
    files = size = 0
    for sub in ("results", "tables", "manifests"):
        for dirpath, _, names in os.walk(os.path.join(out_dir, sub)):
            for name in names:
                files += 1
                size += os.path.getsize(os.path.join(dirpath, name))
    return files, size


def run_pass(args) -> dict:
    os.makedirs(args.out, exist_ok=True)
    commands = workloads.generate(args.workload, args.seed, args.out)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    result = {"ready": ready, "package": os.path.dirname(momentcurve.__file__),
              "setup_kernel_s": hostspeed.median_kernel_time("interpreter")}
    if args.setup_only:
        return result

    rec = spans.Recorder() if args.trace else None
    restore = spans.install(rec) if rec else None
    runs = []
    # The host-speed kernel runs before the first and after every command,
    # untimed, so each command has one on either side.
    kernel = workloads.HOST_SPEED_KERNEL.get(args.workload)
    kernels = [] if kernel else None
    paused = 0.0

    def calibrate() -> None:
        nonlocal paused
        if kernel:
            k0 = time.perf_counter()
            kernels.append(hostspeed.kernel_time(kernel))
            paused += time.perf_counter() - k0

    log_path = os.path.join(args.out, "cli.log")
    with open(log_path, "w", encoding="utf-8") as log, contextlib.redirect_stdout(log), \
            contextlib.redirect_stderr(log):
        t0 = time.perf_counter()
        calibrate()
        for cmd in commands:
            c0 = time.perf_counter()
            token = rec.open("cli.main") if rec else None
            error = None
            try:
                code = cli.main(list(cmd.argv))
            except SystemExit as exc:  # argparse rejects its argv
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # noqa: BLE001 - a failing command is counted, not fatal
                code, error = None, traceback.format_exc(limit=3)
            if rec:
                rec.close(token)
                rec.add("cli.commands", 1)
                rec.add("cli.nonzero_exits", int(code != 0))
            runs.append({"cmd": cmd, "exit_code": code, "error": error,
                         "wall": time.perf_counter() - c0})
            calibrate()
        wall = time.perf_counter() - t0 - paused
    usage = resource.getrusage(resource.RUSAGE_SELF)
    if restore:
        restore()

    reference = None
    if args.seed == DEFAULT_SEED and os.path.exists(REFERENCE_PATH) and not args.write_reference:
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            reference = json.load(fh)["workloads"][args.workload]
    outputs = _manifest_outputs(args.out)
    failures = []
    values = {}
    for run in runs:
        cmd = run["cmd"]
        listed = outputs.get(cmd.argv, [])
        paths = listed.pop(0) if listed else []
        outcome = {"label": cmd.label, "check": cmd.check, "exit_code": run["exit_code"],
                   "error": run["error"], "outputs": gate.load_outputs(paths)}
        problems = gate.check_outcome(outcome, reference)
        if problems:
            failures.append({"command": cmd.label, "problems": problems})
        elif args.write_reference:
            values[cmd.label] = gate.values_of(cmd.check, outcome["outputs"])

    result.update({
        "wall_s": wall,
        "command_walls": [r["wall"] for r in runs],
        "kernel": kernel,
        "command_kernels_s": kernels,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "attempted": len(runs),
        "failures": failures,
    })
    if args.write_reference:
        result["values"] = values
    if rec:
        files, size = _disk_usage(args.out)
        rec.add("records.files", files)
        rec.add("records.bytes", size)
        capacity = sum(_workers(r["cmd"].argv) * r["wall"] for r in runs
                       if r["cmd"].argv[0] == "sweep")
        result["layers"] = spans.layer_metrics(rec, capacity)
        rec.write(os.path.join(args.out, "spans.jsonl"))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    result = run_pass(args)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
