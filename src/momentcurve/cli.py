"""Command-line front end: moment records, envelope sweeps, geometry checks.

Every invocation writes its outputs under --out (results/, tables/,
manifests/) and flushes one manifest; result records carry the manifest's
run_id. Exit codes: 0 success, 1 geometry violation, 2 validation failure,
3 budget exceeded.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import sys
import time

from .errors import BudgetError, SpecValidationError
from .expsums import ExpSumSpec
from .geometry import (
    DecouplingParams,
    check_cone_containment_geo2,
    check_cone_containment_geo3,
    check_overlap_geo1,
    check_partition,
    check_rescale,
    default_geo1_scales,
    default_geo2_scales,
    default_geo3_scales,
)
from .moments import DEFAULT_TUPLE_BUDGET, moment_brute, moment_exact
from .quadrature import DEFAULT_CELL_BUDGET, moment_quadrature
from .records import (
    OutputLayout,
    args_digest,
    format_cell,
    new_manifest,
    write_csv,
    write_json,
)
from .sharpness import (
    COEFF_FAMILIES,
    SweepConfig,
    broad_narrow_check,
    coeffs_for,
    envelope_report,
    maincor_row,
    mainexp_row,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_VALIDATION = 2
EXIT_BUDGET = 3

RESCALE_RESIDUAL_TOL = 1e-9

GEOMETRY_CHECKS = ("geo1", "geo2", "geo3", "rescale", "partition", "broad-narrow")


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in raw.replace(",", " ").split())


# Every [sweep] key is a SweepConfig field, read from its INI text by this cast.
SWEEP_KEYS = {
    "kind": str, "x_values": _ints, "family": str, "seeds": _ints, "sigma": float,
    "s": int, "p": float, "beta": float, "h0": float, "h0_policy": str,
    "tolerance": float, "oversample": float, "budget_tuples": int,
}
# Keys that only one sweep kind reads, with that kind. Written for the other
# kind they would be ignored yet still enter the digest, so they are rejected.
SWEEP_KIND_ONLY = {
    "s": "mainexp", "sigma": "mainexp", "h0": "mainexp", "h0_policy": "mainexp",
    "budget_tuples": "mainexp", "p": "maincor", "beta": "maincor", "oversample": "maincor",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentcurve",
        description="Moments of cubic exponential sums and cap geometry checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    m = sub.add_parser("moment", help="compute one 2s-th moment record")
    m.add_argument("--N", type=int, required=True, help="number of frequencies")
    m.add_argument("--sigma", type=float, default=0.0, help="window exponent in [0, 2]")
    m.add_argument("--s", type=int, required=True, help="moment half-order (power 2s)")
    m.add_argument("--p", type=float, default=None,
                   help="power override for --method quad (default 2s)")
    m.add_argument("--coeffs", choices=COEFF_FAMILIES, default="constant")
    m.add_argument("--seed", type=int, default=1)
    m.add_argument("--method", choices=("exact", "brute", "quad"), default="exact")
    m.add_argument("--h0", type=float, default=0.0, help="window start")
    m.add_argument("--oversample", type=float, default=4.0)
    m.add_argument("--budget-tuples", type=int, default=None)
    m.add_argument("--budget-cells", type=int, default=None)
    m.add_argument("--out", default=".", metavar="DIR")

    w = sub.add_parser("sweep", help="run a configured envelope sweep")
    w.add_argument("config", help="INI config with a [sweep] section")
    w.add_argument("--workers", type=int, default=1,
                   help="accepted (>= 1) and ignored: rows run in order, each "
                        "moment on the shared pool")
    w.add_argument("--out", default=".", metavar="DIR")

    g = sub.add_parser("geometry", help="sampled geometry / dichotomy checks")
    g.add_argument("check", choices=GEOMETRY_CHECKS)
    g.add_argument("--R", type=float, default=float(2**20), help="global scale")
    g.add_argument("--beta", type=float, default=0.75)
    g.add_argument("--c-eps", dest="c_eps", type=float, default=1.0)
    g.add_argument("--samples", type=int, default=10000)
    g.add_argument("--seed", type=int, default=1)
    g.add_argument("--case", choices=("both", "1", "2"), default="both",
                   help="geo2 containment case selection")
    g.add_argument("--r-k", dest="r_k", type=float, default=None,
                   help="lower ladder scale (default derived from R, beta)")
    g.add_argument("--r-next", dest="r_next", type=float, default=None,
                   help="next ladder scale (default derived from R, beta)")
    g.add_argument("--r", type=float, default=None,
                   help="dilation scale for geo2/geo3 (default derived)")
    g.add_argument("--r-prev", dest="r_prev", type=float, default=4096.0,
                   help="rescale: previous scale (S = r_prev^(1/3))")
    g.add_argument("--l", type=int, default=3, help="rescale: block index")
    g.add_argument("--N", type=int, default=64, help="broad-narrow: frequencies")
    g.add_argument("--coeffs", choices=COEFF_FAMILIES, default="random_sign",
                   help="broad-narrow: coefficient family")
    g.add_argument("--bands", type=int, default=16, help="broad-narrow: band count")
    g.add_argument("--e-sep", dest="e_sep", type=float, default=2.0,
                   help="broad-narrow: separation parameter E")
    g.add_argument("--out", default=".", metavar="DIR")
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser main uses: built on first use, then kept for the process."""
    return build_parser()


def _cmd_moment(args, argv: list[str]) -> int:
    config = {k: v for k, v in vars(args).items() if k != "out"}
    # A flag the method ignores would still enter the config digest.
    quad = args.method == "quad"
    for flag, value, applies in (
        ("--p", args.p, quad),
        ("--budget-cells", args.budget_cells, quad),
        ("--budget-tuples", args.budget_tuples, not quad),
    ):
        if value is not None and not applies:
            raise SpecValidationError(f"{flag} does not apply to --method {args.method}")
    if args.s < 1:
        raise SpecValidationError("s must be a positive integer")
    for flag, budget in (("tuples", args.budget_tuples), ("cells", args.budget_cells)):
        if budget is not None and budget < 1:
            raise SpecValidationError(f"--budget-{flag} must be >= 1")
    spec = ExpSumSpec(
        n=args.N,
        coeffs=coeffs_for(args.coeffs, args.N, args.seed),
        sigma=args.sigma,
        h0=args.h0,
    )
    t0 = time.perf_counter()
    if args.method == "exact":
        budget = DEFAULT_TUPLE_BUDGET if args.budget_tuples is None else args.budget_tuples
        res = moment_exact(spec, args.s, budget_tuples=budget)
    elif args.method == "brute":
        kwargs = {}
        if args.budget_tuples is not None:
            kwargs["budget_pairs"] = args.budget_tuples
        res = moment_brute(spec, args.s, **kwargs)
    else:
        p = args.p if args.p is not None else 2.0 * args.s
        cells = DEFAULT_CELL_BUDGET if args.budget_cells is None else args.budget_cells
        res = moment_quadrature(spec, p, oversample=args.oversample, cell_budget=cells)
    wall = time.perf_counter() - t0

    layout = OutputLayout(args.out)
    manifest = new_manifest(argv, config, [args.seed])
    manifest.budgets = {"tuples": args.budget_tuples, "cells": args.budget_cells}
    record = {
        "command": "moment",
        "manifest": manifest.run_id,
        "config": config,
        "value": res.value,
        "method": res.method,
        "err_estimate": res.err_estimate,
        "wall_time_s": wall,
        "detail": res.detail,
    }
    path = layout.result_path("moment-" + args_digest(config))
    manifest.add_output(path, write_json(path, record))
    manifest.wall_time_s = wall
    layout.flush_manifest(manifest)
    print(
        f"moment N={args.N} sigma={format_cell(args.sigma)} s={args.s} "
        f"family={args.coeffs} method={res.method} value={format_cell(res.value)} "
        f"err={format_cell(res.err_estimate)}"
    )
    return EXIT_OK


def _load_sweep_config(path: str) -> SweepConfig:
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise SpecValidationError(f"unreadable config {path}: {exc}") from None
    if not read:
        raise SpecValidationError(f"config file not found: {path}")
    if "sweep" not in parser:
        raise SpecValidationError("config needs a [sweep] section")
    section = parser["sweep"]
    unknown = sorted(set(section) - set(SWEEP_KEYS))
    if unknown:
        raise SpecValidationError(f"unknown [sweep] key(s): {', '.join(unknown)}")
    if "x_values" not in section:
        raise SpecValidationError("config needs x_values")
    try:
        values = {key: SWEEP_KEYS[key](raw) for key, raw in section.items()}
    except (ValueError, configparser.Error) as exc:
        raise SpecValidationError(f"bad value in [sweep]: {exc}") from None
    cfg = SweepConfig(**values)
    for key in values:
        owner = SWEEP_KIND_ONLY.get(key, cfg.kind)
        if owner != cfg.kind:
            raise SpecValidationError(
                f"[sweep] key {key} applies only to kind {owner}, not {cfg.kind}"
            )
    if "h0" in values and cfg.h0_policy == "random":
        raise SpecValidationError("[sweep] key h0 is unused under h0_policy = random")
    return cfg


def _cmd_sweep(args, argv: list[str]) -> int:
    if args.workers < 1:
        raise SpecValidationError("--workers must be >= 1")
    cfg = _load_sweep_config(args.config)
    config = dataclasses.asdict(cfg)
    layout = OutputLayout(args.out)
    manifest = new_manifest(argv, config, list(cfg.seeds))
    manifest.budgets = {"tuples": cfg.budget_tuples}
    slug = f"sweep-{cfg.kind}-" + args_digest(config)
    csv_path = layout.table_path(slug)
    fit_path = layout.result_path(slug + "-fit")
    t0 = time.perf_counter()

    # Row functions are looked up in this module, where tracers rebind them.
    row_fn = mainexp_row if cfg.kind == "mainexp" else maincor_row
    rows = []
    try:
        for x in cfg.x_values:
            rows.append(row_fn(cfg, x))
    except BudgetError as exc:
        # Flush whatever completed so the run is diagnosable post hoc.
        manifest.add_output(csv_path, _write_sweep_csv(csv_path, cfg.x_label, rows))
        manifest.status = "failed"
        manifest.wall_time_s = time.perf_counter() - t0
        layout.flush_manifest(manifest)
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    report = envelope_report(cfg, rows)
    fit = report.fit
    csv_digest = _write_sweep_csv(csv_path, cfg.x_label, rows)
    verdict = "PASS" if report.passed else "FAIL"
    summary = {
        "command": "sweep",
        "manifest": manifest.run_id,
        "config": config,
        "x_label": cfg.x_label,
        "slope": fit.slope,
        "intercept": fit.intercept,
        "max_residual": fit.max_residual,
        "n_points": fit.n_points,
        "target": report.target,
        "tolerance": cfg.tolerance,
        "c_factor": report.c_factor,
        "verdict": verdict,
        "detail": {**report.detail, "kind": cfg.kind},
        "table": csv_path,
    }
    fit_digest = write_json(fit_path, summary)
    manifest.add_output(csv_path, csv_digest)
    manifest.add_output(fit_path, fit_digest)
    manifest.wall_time_s = time.perf_counter() - t0
    layout.flush_manifest(manifest)
    print(
        f"sweep kind={cfg.kind} slope={format_cell(fit.slope)} "
        f"target={format_cell(report.target)} "
        f"verdict={verdict} table={csv_path}"
    )
    return EXIT_OK


def _write_sweep_csv(path: str, x_label: str, rows) -> str:
    header = [x_label, "value", "envelope", "seed_count", "method", "err_estimate"]
    body = [
        [r.x, r.value, r.envelope, r.seed_count, r.method, r.err_estimate]
        for r in rows
    ]
    return write_csv(path, header, body)


def _geometry_report(args):
    """Run the selected check; returns (report payload, violation count)."""
    check = args.check
    if check == "geo1":
        r_k, r_next = (args.r_k, args.r_next)
        if r_k is None or r_next is None:
            r_k, r_next = default_geo1_scales(args.R, args.beta)
        rep = check_overlap_geo1(r_k, r_next, args.R, args.c_eps, args.samples, args.seed)
        return {"scales": {"r_k": r_k, "r_next": r_next}, "report": rep}, rep.violations

    if check == "geo2":
        if args.case == "both":
            if args.r_k is not None or args.r_next is not None:
                raise SpecValidationError("explicit scales need --case 1 or --case 2")
            cases = ["2"] + (["1"] if args.beta >= 0.5 else [])
        else:
            cases = [args.case]
        reports = {}
        violations = 0
        for case in cases:
            r_k, r_next = (args.r_k, args.r_next)
            if r_k is None or r_next is None:
                r_k, r_next = default_geo2_scales(args.R, args.beta, case)
            rep = check_cone_containment_geo2(
                r_k, r_next, args.R, args.c_eps, args.r, args.samples, args.seed
            )
            reports[f"case{case}"] = {"scales": {"r_k": r_k, "r_next": r_next}, "report": rep}
            violations += rep.violations
        return reports, violations

    if check == "geo3":
        r_k, r_next = (args.r_k, args.r_next)
        if r_k is None or r_next is None:
            r_k, r_next = default_geo3_scales(args.R)
        rep = check_cone_containment_geo3(
            r_k, r_next, args.r, args.c_eps, args.samples, args.seed
        )
        return {"scales": {"r_k": r_k, "r_next": r_next}, "report": rep}, rep.violations

    if check == "rescale":
        params = DecouplingParams(args.R, args.beta)
        rep = check_rescale(args.r_prev, args.l, params, args.samples, args.seed)
        bad = int(rep.max_curve_residual > RESCALE_RESIDUAL_TOL)
        bad += int(rep.max_roundtrip_residual > RESCALE_RESIDUAL_TOL)
        bad += rep.member_violations
        return {"r_prev": args.r_prev, "l": args.l, "report": rep}, bad

    if check == "partition":
        params = DecouplingParams(args.R, args.beta)
        rep = check_partition(params, args.samples, args.seed)
        return {"report": rep}, rep.violations

    spec = ExpSumSpec(
        n=args.N,
        coeffs=coeffs_for(args.coeffs, args.N, args.seed),
        sigma=0.0,
        h0=0.0,
    )
    rep = broad_narrow_check(spec, args.bands, args.e_sep, args.samples, args.seed)
    return {"report": rep}, int(rep.max_ratio > 1.0)


def _cmd_geometry(args, argv: list[str]) -> int:
    config = {k: v for k, v in vars(args).items() if k != "out"}
    t0 = time.perf_counter()
    payload, violations = _geometry_report(args)
    wall = time.perf_counter() - t0

    layout = OutputLayout(args.out)
    manifest = new_manifest(argv, config, [args.seed])
    record = {
        "command": "geometry",
        "check": args.check,
        "manifest": manifest.run_id,
        "config": config,
        "violations": violations,
        "wall_time_s": wall,
        "payload": payload,
    }
    path = layout.result_path(f"geometry-{args.check}-" + args_digest(config))
    manifest.add_output(path, write_json(path, record))
    manifest.wall_time_s = wall
    manifest.status = "ok" if violations == 0 else "violation"
    layout.flush_manifest(manifest)
    print(f"geometry {args.check} violations={violations} report={path}")
    return EXIT_OK if violations == 0 else EXIT_VIOLATION


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    args = _shared_parser().parse_args(argv)
    command = ["momentcurve"] + argv
    try:
        # moment and geometry seed numpy generators, which take no negative seed.
        if getattr(args, "seed", 0) < 0:
            raise SpecValidationError("--seed must be >= 0")
        if args.command == "moment":
            return _cmd_moment(args, command)
        if args.command == "sweep":
            return _cmd_sweep(args, command)
        return _cmd_geometry(args, command)
    except SpecValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
