"""Seeded inputs for the four benchmark workloads.

Sizes are pinned. The workload seed only varies coefficient draws, h0 draws
and geometry seeds, so every seed does the same amount of work. Each command
is the argv of one `momentcurve.cli.main` call plus the facts the correctness
gate needs about it (`check`).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

GEOMETRY_R = 2**20
GEOMETRY_SAMPLES = 10**4
SWEEP_WORKERS = 2


@dataclass(frozen=True)
class Command:
    """One CLI call. `check` holds what the gate verifies about its output."""

    argv: tuple[str, ...]
    check: dict = field(default_factory=dict)
    label: str = ""

    def __post_init__(self) -> None:
        if not self.label:
            object.__setattr__(self, "label", " ".join(self.argv))


def _seed_source(workload: str, seed: int) -> random.Random:
    # random.Random hashes str seeds with sha512, so any integer workload seed
    # (negative ones too) gives the same draws on every run and platform.
    return random.Random(f"{workload}:{seed}")


def _draw_seeds(rng: random.Random, count: int) -> list[int]:
    return [rng.randrange(1, 2**31) for _ in range(count)]


def _write_ini(path: str, section: dict) -> str:
    lines = ["[sweep]"] + [f"{k} = {v}" for k, v in section.items()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _sweep(config_dir: str, name: str, section: dict, workers: int, check: dict) -> Command:
    path = _write_ini(os.path.join(config_dir, name + ".ini"), section)
    argv = ("sweep", path, "--workers", str(workers))
    return Command(argv=argv, check={"kind": "sweep", **check},
                   label=f"sweep {name}.ini --workers {workers}")


def _sweep_window(rng: random.Random, config_dir: str) -> list[Command]:
    crit4a = {
        "kind": "mainexp", "x_values": "32, 48, 64, 96", "family": "constant",
        "sigma": 1.0, "s": 4, "tolerance": 0.3,
    }
    phased = {
        "kind": "mainexp", "x_values": "24, 32, 48", "family": "random_phase",
        "seeds": ", ".join(str(x) for x in _draw_seeds(rng, 2)),
        "sigma": 1.5, "s": 4, "h0_policy": "random", "tolerance": 0.3,
    }
    return [
        _sweep(config_dir, "crit4a", crit4a, SWEEP_WORKERS, {"verdict": "PASS"}),
        _sweep(config_dir, "phased", phased, SWEEP_WORKERS, {}),
    ]


def _moment(n: int, s: int, sigma: float, coeffs: str, seed: int, method: str,
            h0: float = 0.0) -> Command:
    argv = ("moment", "--N", str(n), "--s", str(s), "--sigma", repr(sigma),
            "--coeffs", coeffs, "--seed", str(seed), "--method", method, "--h0", repr(h0))
    check = {"kind": "moment", "N": n, "s": s, "sigma": sigma, "coeffs": coeffs,
             "seed": seed, "method": method, "h0": h0}
    return Command(argv=argv, check=check)


def _exact_full_period(rng: random.Random, config_dir: str) -> list[Command]:
    sign_seed = _draw_seeds(rng, 1)[0]
    # N=96 s=4 at sigma=0 builds the same table as the N=96 row of
    # sweep-window's criterion-4a sweep, so it is measured there.
    return [
        _moment(320, 3, 0.0, "random_sign", sign_seed, "exact"),
        _moment(384, 3, 0.0, "constant", 1, "exact"),
    ]


def _quad_local(rng: random.Random, config_dir: str) -> list[Command]:
    sign_seed, phase_seed, cube_seed = _draw_seeds(rng, 3)
    h0 = rng.random()
    cube = {"kind": "maincor", "x_values": "16, 32, 64", "family": "random_sign",
            "seeds": str(cube_seed), "p": 4.0, "beta": 0.5, "tolerance": 0.3}
    translates = {"kind": "maincor", "x_values": "256, 1024, 4096", "family": "random_sign",
                  "seeds": ", ".join(str(x) for x in _draw_seeds(rng, 3)),
                  "p": 4.0, "beta": 0.5, "tolerance": 0.3}
    return [
        _moment(10, 3, 0.0, "constant", 1, "quad"),
        _moment(12, 3, 0.0, "random_sign", sign_seed, "quad"),
        _moment(12, 2, 1.0, "random_phase", phase_seed, "quad", h0),
        _sweep(config_dir, "full-cube", cube, 1, {"verdict": "PASS"}),
        _sweep(config_dir, "translates", translates, 1, {"verdict": "PASS"}),
    ]


def _geometry_suite(rng: random.Random, config_dir: str) -> list[Command]:
    seeds = _draw_seeds(rng, 3)
    out = []
    for check in ("geo1", "geo2", "geo3", "partition", "rescale"):
        for beta in (0.5, 0.75, 1.0):
            for c_eps in (1.0, 4.0):
                for seed in seeds:
                    argv = ("geometry", check, "--R", str(GEOMETRY_R), "--beta", repr(beta),
                            "--c-eps", repr(c_eps), "--samples", str(GEOMETRY_SAMPLES),
                            "--seed", str(seed))
                    out.append(Command(argv=argv, check={"kind": "geometry", "check": check}))
    for seed in _draw_seeds(rng, 10):
        argv = ("geometry", "broad-narrow", "--N", "64", "--bands", "16", "--e-sep", "2.0",
                "--samples", str(GEOMETRY_SAMPLES), "--seed", str(seed))
        out.append(Command(argv=argv, check={"kind": "geometry", "check": "broad-narrow"}))
    return out


# Why each workload exists is recorded in BENCHMARK.json and README.md.
_MAKERS = {
    "sweep-window": _sweep_window,
    "exact-full-period": _exact_full_period,
    "quad-local": _quad_local,
    "geometry-suite": _geometry_suite,
}
WORKLOADS = tuple(_MAKERS)
# The host-speed kernel (hostspeed.py) each workload's wall_s is adjusted by:
# the one that leans on the resource its commands are bound by. sweep-window
# has none: its rows run on two threads, where a kernel on one thread
# between commands widened the spread of its pass times instead of
# narrowing it.
HOST_SPEED_KERNEL = {
    "exact-full-period": "sort",
    "quad-local": "sort",
    "geometry-suite": "interpreter",
}


def generate(workload: str, seed: int, out_dir: str) -> list[Command]:
    """Write the workload's INI configs under out_dir and return its commands.

    Every argv ends with `--out out_dir`, a directory the caller creates fresh
    for each pass because the manifest index is append-only.
    """
    if workload not in _MAKERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(_MAKERS)}")
    config_dir = os.path.join(out_dir, "configs")
    os.makedirs(config_dir, exist_ok=True)
    commands = _MAKERS[workload](_seed_source(workload, seed), config_dir)
    return [Command(c.argv + ("--out", out_dir), c.check, c.label) for c in commands]
