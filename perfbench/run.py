"""Benchmark entry point: one workload, timed end to end, optionally traced.

    python3 perfbench/run.py --workload W [--seed N] [--seconds T] [--trace 0|1]

Run from the root of a checkout. Every pass of the workload runs in a fresh
child process (perfbench/child.py) that imports momentcurve from ./src and
issues the workload's CLI commands one after another. Passes repeat until T
seconds have gone by, at least MIN_PASSES of them. With --trace 0 the last
stdout line carries the end-to-end metrics, with --trace 1 the per-layer
metrics of traced passes, which alternate with untraced ones so that the
tracing overhead is measured too. Commands that exit nonzero, raise or fail
the correctness gate count as failed. setup_s, and wall_s of the workloads
in workloads.HOST_SPEED_KERNEL, are adjusted for the host's speed
(hostspeed.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "momentcurve")
CHILD = os.path.join(HERE, "child.py")
OUT_BASE = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)
import hostspeed  # noqa: E402
from workloads import HOST_SPEED_KERNEL, SWEEP_WORKERS, WORKLOADS  # noqa: E402

# Extra processes per untraced run that only start up, so setup_s is a median
# over at least this many samples plus one per pass.
SETUP_PROBES = 8
# Untraced passes per run at least, however long they take: wall_s takes each
# command's fastest (or, where adjusted for host speed, median) time over them.
MIN_PASSES = 3
# Every run must end within 180 s; passes still running after this are killed.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def clock() -> float:
    # CLOCK_MONOTONIC is system-wide, so parent and child timestamps compare.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def environment(workload: str) -> dict:
    """Machine and library record; also decides the child's BLAS threads."""
    import numpy as np

    nproc = len(os.sched_getaffinity(0))
    workers = SWEEP_WORKERS if workload == "sweep-window" else 1
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": max(1, nproc // workers),
        "sweep_workers": workers,
    }


class Runner:
    """Spawns child passes for one workload and keeps their results."""

    def __init__(self, workload: str, seed: int, env_record: dict, run_dir: str) -> None:
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.count = 0
        self.env = dict(os.environ)
        threads = str(env_record["blas_threads"])
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = threads

    def spawn(self, *flags: str, deadline: float) -> dict:
        self.count += 1
        out = os.path.join(self.run_dir, f"pass-{self.count}")
        result_path = out + ".json"
        argv = [sys.executable, CHILD, "--workload", self.workload, "--seed", str(self.seed),
                "--out", out, "--result", result_path, *flags]
        started = clock()
        proc = subprocess.run(argv, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - started), check=False)
        if proc.returncode != 0 or not os.path.exists(result_path):
            raise RuntimeError(f"pass {self.count} exited {proc.returncode}: {proc.stderr.strip()}")
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        if os.path.realpath(result["package"]) != os.path.realpath(PACKAGE):
            raise RuntimeError(f"child imported momentcurve from {result['package']}, not {PACKAGE}")
        result["setup_raw_s"] = result["ready"] - started
        result["setup_s"] = hostspeed.adjust(result["setup_raw_s"], "interpreter",
                                             result["setup_kernel_s"])
        return result


def best_wall(passes: list[dict]) -> float:
    """Sum over commands of each command's shortest time across the passes.

    On a shared VM a core can run up to 45% slower for seconds at a time
    while other tenants load the host; on a 2-core 2.0 GHz Xeon VM that moved
    the median pass wall by 12-26% from run to run. The fastest of several
    timings of each command is the least disturbed, so their sum is the
    workload's wall time at an undisturbed speed. Pass walls stay in the
    report.
    """
    return sum(min(times) for times in zip(*(p["command_walls"] for p in passes)))


def adjusted_wall(passes: list[dict]) -> float:
    """Sum over commands of each command's median host-speed-adjusted time.

    Each command's time is adjusted by the mean of the kernel runs just
    before and just after it (hostspeed.py). A kernel run that a noisy
    neighbour slowed makes its ratio too small as often as a slowed command
    makes it too large, so the median over passes is taken, not the minimum.
    """
    per_pass = []
    for p in passes:
        k = p["command_kernels_s"]
        per_pass.append([hostspeed.adjust(wall, p["kernel"], 0.5 * (k[i] + k[i + 1]))
                         for i, wall in enumerate(p["command_walls"])])
    return sum(statistics.median(times) for times in zip(*per_pass))


def workload_wall(workload: str, passes: list[dict]) -> float:
    return adjusted_wall(passes) if workload in HOST_SPEED_KERNEL else best_wall(passes)


def measure(args, env_record: dict) -> dict:
    run_dir = os.path.join(OUT_BASE, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    begin = clock()
    hard_deadline = begin + RUN_LIMIT_S
    runner = Runner(args.workload, args.seed, env_record, run_dir)
    setup, setup_raw, untraced, traced = [], [], [], []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe = runner.spawn("--setup-only", deadline=hard_deadline)
            setup.append(probe["setup_s"])
            setup_raw.append(probe["setup_raw_s"])
    min_untraced = 1 if args.trace else MIN_PASSES
    while (len(untraced) < min_untraced or (args.trace and not traced)
           or clock() - begin < args.seconds):
        trace_this = bool(args.trace) and len(traced) < len(untraced)
        flags = ("--trace",) if trace_this else ()
        result = runner.spawn(*flags, deadline=hard_deadline)
        (traced if trace_this else untraced).append(result)
        setup.append(result["setup_s"])
        setup_raw.append(result["setup_raw_s"])
    passes = untraced + traced
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env_record,
        "passes": len(untraced),
        "traced_passes": len(traced),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(len(p["failures"]) for p in passes),
        "failures": [f for p in passes for f in p["failures"]],
        "samples": {
            "pass_wall_s": [p["wall_s"] for p in untraced],
            "peak_rss_mb": [p["peak_rss_mb"] for p in untraced],
            "setup_s": setup,
            "setup_raw_s": setup_raw,
            "cpu_s": [p["cpu_s"] for p in untraced],
            "traced_pass_wall_s": [p["wall_s"] for p in traced],
            "fastest_command_sum_s": best_wall(untraced),
        },
        "metrics": {},
    }
    if args.trace:
        layers = {k: statistics.median([p["layers"][k] for p in traced])
                  for k in traced[0]["layers"]}
        layers["proc.cpu_s"] = statistics.median(report["samples"]["cpu_s"])
        layers["proc.tracing_overhead_s"] = (workload_wall(args.workload, traced)
                                             - workload_wall(args.workload, untraced))
        units = per_layer_units()
        report["metrics"] = {k: {"value": layers[k], "unit": units[k]} for k in units}
    else:
        values = {
            "wall_s": workload_wall(args.workload, untraced),
            "peak_rss_mb": statistics.median(report["samples"]["peak_rss_mb"]),
            "setup_s": statistics.median(setup),
        }
        report["metrics"] = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    return report


def per_layer_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def print_report(report: dict) -> None:
    env = report["env"]
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    samples = report["samples"]
    if report["trace"]:
        print(f"{report['workload']}: {report['traced_passes']} traced and "
              f"{report['passes']} untraced passes")
        for name, m in report["metrics"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    else:
        raw = (f"median pass wall {statistics.median(samples['pass_wall_s']):.6g} s, "
               f"fastest times summed {samples['fastest_command_sum_s']:.6g} s")
        kernel = HOST_SPEED_KERNEL.get(report["workload"])
        if kernel:
            wall_how = (f"adjusted by the {kernel} kernel, median of {report['passes']} "
                        f"passes per command, summed; {raw}")
        else:
            wall_how = f"fastest of {report['passes']} passes per command, summed; {raw}"
        how = {"wall_s": wall_how,
               "peak_rss_mb": f"median of {len(samples['peak_rss_mb'])} passes",
               "setup_s": f"host-speed adjusted, median of {len(samples['setup_s'])} process "
                          f"starts; unadjusted median {statistics.median(samples['setup_raw_s']):.6g} s"}
        print(f"{report['workload']}: {report['passes']} passes, closed loop, one client")
        for name, m in report["metrics"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']} ({how[name]})")
    ratio = report["failed"] / report["attempted"]
    print(f"  fail_ratio = {ratio:.6g} 1 ({report['failed']} of {report['attempted']} commands)")
    for failure in report["failures"][:10]:
        print(f"  FAILED {failure['command']}: {'; '.join(failure['problems'])}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", metavar="PATH",
                        help="also write the full report (samples, env, failures) as JSON")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"momentcurve sources not found under {os.path.dirname(PACKAGE)}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    report = measure(args, environment(args.workload))
    print_report(report)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
