"""Command-line front end: moment records, envelope sweeps, geometry checks.

Every invocation writes its outputs under --out (results/, tables/,
manifests/) and flushes one manifest; result records carry the manifest's
run_id. Exit codes: 0 success, 1 geometry violation, 2 validation failure,
3 budget exceeded.
"""

from __future__ import annotations

import argparse
import configparser
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
    to_jsonable,
    write_csv,
    write_json,
)
from .sharpness import (
    COEFF_FAMILIES,
    SweepConfig,
    assemble_maincor_report,
    assemble_mainexp_report,
    broad_narrow_check,
    coeffs_for,
    maincor_row,
    mainexp_row,
    sweep_rows,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_VALIDATION = 2
EXIT_BUDGET = 3

RESCALE_RESIDUAL_TOL = 1e-9

GEOMETRY_CHECKS = ("geo1", "geo2", "geo3", "rescale", "partition", "broad-narrow")
# Descriptive aliases for the ladder checks, resolved before dispatch.
GEOMETRY_ALIASES = {
    "overlap": "geo1",
    "cone-smallcap": "geo2",
    "cone-canonical": "geo3",
}
SWEEP_KINDS = ("mainexp", "maincor")


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
    w.add_argument("--workers", type=int, default=1)
    w.add_argument("--out", default=".", metavar="DIR")

    g = sub.add_parser("geometry", help="sampled geometry / dichotomy checks")
    g.add_argument("check", choices=GEOMETRY_CHECKS + tuple(GEOMETRY_ALIASES))
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


def _cmd_moment(args, argv: list[str]) -> int:
    config = {
        "command": "moment",
        "N": args.N,
        "sigma": args.sigma,
        "s": args.s,
        "p": args.p,
        "coeffs": args.coeffs,
        "seed": args.seed,
        "method": args.method,
        "h0": args.h0,
        "oversample": args.oversample,
        "budget_tuples": args.budget_tuples,
        "budget_cells": args.budget_cells,
    }
    if args.p is not None and args.method != "quad":
        raise SpecValidationError("--p only applies to --method quad")
    if args.s < 1:
        raise SpecValidationError("s must be a positive integer")
    spec = ExpSumSpec(
        n=args.N,
        coeffs=coeffs_for(args.coeffs, args.N, args.seed),
        sigma=args.sigma,
        h0=args.h0,
    )
    t0 = time.perf_counter()
    if args.method == "exact":
        budget = args.budget_tuples if args.budget_tuples else DEFAULT_TUPLE_BUDGET
        res = moment_exact(spec, args.s, budget_tuples=budget)
    elif args.method == "brute":
        kwargs = {}
        if args.budget_tuples:
            kwargs["budget_pairs"] = args.budget_tuples
        res = moment_brute(spec, args.s, **kwargs)
    else:
        p = args.p if args.p is not None else 2.0 * args.s
        cells = args.budget_cells if args.budget_cells else DEFAULT_CELL_BUDGET
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
        "detail": to_jsonable(res.detail),
    }
    path = layout.result_path("moment-" + args_digest(config))
    write_json(path, record)
    manifest.add_output(path)
    manifest.wall_time_s = wall
    layout.flush_manifest(manifest)
    print(
        f"moment N={args.N} sigma={format_cell(args.sigma)} s={args.s} "
        f"family={args.coeffs} method={res.method} value={format_cell(res.value)} "
        f"err={format_cell(res.err_estimate)}"
    )
    return EXIT_OK


def _parse_values(raw: str, cast):
    parts = raw.replace(",", " ").split()
    return tuple(cast(tok) for tok in parts)


def _load_sweep_config(path: str) -> dict:
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
    kind = section.get("kind", "mainexp").strip()
    if kind not in SWEEP_KINDS:
        raise SpecValidationError(f"kind must be one of {SWEEP_KINDS}")
    raw_x = section.get("x_values", "").strip()
    if not raw_x:
        raise SpecValidationError("config needs x_values")
    try:
        return _parse_sweep_section(section, kind, raw_x)
    except ValueError as exc:
        raise SpecValidationError(f"bad value in [sweep]: {exc}") from None


def _parse_sweep_section(section, kind: str, raw_x: str) -> dict:
    if "seeds" in section:
        seeds = _parse_values(section["seeds"], int)
    elif "n_seeds" in section:
        seeds = tuple(range(1, section.getint("n_seeds") + 1))
    else:
        seeds = (1,)
    return {
        "kind": kind,
        "x_values": _parse_values(raw_x, int),
        "family": section.get("family", "constant").strip(),
        "seeds": seeds,
        "sigma": section.getfloat("sigma", 0.0),
        "s": section.getint("s", 0) or None,
        "p": section.getfloat("p", 0.0) or None,
        "beta": section.getfloat("beta", 0.0) or None,
        "h0": section.getfloat("h0", 0.0),
        "h0_policy": section.get("h0_policy", "fixed").strip(),
        "tolerance": section.getfloat("tolerance", 0.3),
        "oversample": section.getfloat("oversample", 4.0),
        "budget_tuples": section.getint("budget_tuples", 0) or None,
    }


def _cmd_sweep(args, argv: list[str]) -> int:
    cfg = _load_sweep_config(args.config)
    kind = cfg["kind"]
    layout = OutputLayout(args.out)
    manifest = new_manifest(argv, cfg, list(cfg["seeds"]))
    manifest.budgets = {"tuples": cfg["budget_tuples"]}
    slug = f"sweep-{kind}-" + args_digest({k: v for k, v in cfg.items()})
    csv_path = layout.table_path(slug)
    fit_path = layout.result_path(slug + "-fit")
    t0 = time.perf_counter()

    sweep_cfg = SweepConfig(
        x_values=cfg["x_values"],
        family=cfg["family"],
        seeds=cfg["seeds"],
        sigma=cfg["sigma"],
        s=cfg["s"],
        p=cfg["p"],
        beta=cfg["beta"],
        h0=cfg["h0"],
        h0_policy=cfg["h0_policy"],
        tolerance=cfg["tolerance"],
        oversample=cfg["oversample"],
        budget_tuples=cfg["budget_tuples"],
    )
    row_fn = mainexp_row if kind == "mainexp" else maincor_row
    rows = []
    try:
        for row in sweep_rows(row_fn, sweep_cfg, args.workers):
            rows.append(row)
    except BudgetError as exc:
        # Flush whatever completed so the run is diagnosable post hoc.
        _write_sweep_csv(csv_path, "N" if kind == "mainexp" else "R", rows)
        manifest.add_output(csv_path)
        manifest.status = "failed"
        manifest.wall_time_s = time.perf_counter() - t0
        layout.flush_manifest(manifest)
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    if kind == "mainexp":
        report = assemble_mainexp_report(sweep_cfg, rows)
    else:
        report = assemble_maincor_report(sweep_cfg, rows)
    fit = report.fit
    _write_sweep_csv(csv_path, report.x_label, rows)
    verdict = "PASS" if report.passed else "FAIL"
    summary = {
        "command": "sweep",
        "manifest": manifest.run_id,
        "config": cfg,
        "x_label": report.x_label,
        "slope": fit.slope,
        "intercept": fit.intercept,
        "max_residual": fit.max_residual,
        "n_points": fit.n_points,
        "target": report.target,
        "tolerance": report.tolerance,
        "c_factor": report.c_factor,
        "verdict": verdict,
        "detail": {**report.detail, "kind": kind},
        "table": csv_path,
    }
    write_json(fit_path, summary)
    manifest.add_output(csv_path)
    manifest.add_output(fit_path)
    manifest.wall_time_s = time.perf_counter() - t0
    layout.flush_manifest(manifest)
    print(
        f"sweep kind={kind} slope={format_cell(fit.slope)} "
        f"target={format_cell(report.target)} "
        f"verdict={verdict} table={csv_path}"
    )
    return EXIT_OK


def _write_sweep_csv(path: str, x_label: str, rows) -> None:
    header = [x_label, "value", "envelope", "seed_count", "method", "err_estimate"]
    body = [
        [r.x, r.value, r.envelope, r.seed_count, r.method, r.err_estimate]
        for r in rows
    ]
    write_csv(path, header, body)


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
    args.check = GEOMETRY_ALIASES.get(args.check, args.check)
    config = {
        "command": "geometry",
        "check": args.check,
        "R": args.R,
        "beta": args.beta,
        "c_eps": args.c_eps,
        "samples": args.samples,
        "seed": args.seed,
        "case": args.case,
        "r_k": args.r_k,
        "r_next": args.r_next,
        "r": args.r,
        "r_prev": args.r_prev,
        "l": args.l,
        "N": args.N,
        "coeffs": args.coeffs,
        "bands": args.bands,
        "e_sep": args.e_sep,
    }
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
        "payload": to_jsonable(payload),
    }
    path = layout.result_path(f"geometry-{args.check}-" + args_digest(config))
    write_json(path, record)
    manifest.add_output(path)
    manifest.wall_time_s = wall
    manifest.status = "ok" if violations == 0 else "violation"
    layout.flush_manifest(manifest)
    print(f"geometry {args.check} violations={violations} report={path}")
    return EXIT_OK if violations == 0 else EXIT_VIOLATION


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    command = ["momentcurve"] + argv
    try:
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
