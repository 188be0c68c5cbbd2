"""Correctness gate: checks every command's outputs against an oracle.

It runs after a pass's timed region. `outcome` describes one CLI call (exit
code, exception, the files its manifest lists); `check_outcome` returns the
list of problems found, empty when the command is correct. A command with any
problem counts as failed in `fail_ratio`.
"""

from __future__ import annotations

import csv
import json
import math

# Exact engine against the brute-force oracle (both are exact up to roundoff).
EXACT_REL_TOL = 1e-9
BRUTE_MAX_PAIRS = 10**8
# Integer-valued sigma = 0 moments: float bookkeeping of integers below 2^53.
INTEGER_ABS_TOL = 1e-6
QUAD_ERR_FACTOR = 3.0
REFERENCE_REL_TOL = 1e-9


def load_outputs(paths: list[str]) -> dict:
    """Result JSON records and CSV tables a command wrote, by file type."""
    out = {"json": [], "csv": []}
    for path in paths:
        if path.endswith(".json"):
            with open(path, encoding="utf-8") as fh:
                out["json"].append(json.load(fh))
        elif path.endswith(".csv"):
            with open(path, encoding="utf-8", newline="") as fh:
                out["csv"].append(list(csv.DictReader(fh)))
    return out


def _numeric_leaves(obj, prefix: str, out: dict) -> None:
    if isinstance(obj, (int, float)):
        out[prefix] = float(obj)
    elif isinstance(obj, dict):
        for k in sorted(obj):
            _numeric_leaves(obj[k], f"{prefix}.{k}" if prefix else k, out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _numeric_leaves(v, f"{prefix}[{i}]", out)


def values_of(check: dict, outputs: dict) -> dict[str, float]:
    """The numbers a command produced that must not drift between commits."""
    kind = check["kind"]
    if kind == "moment":
        return {"value": float(outputs["json"][0]["value"])}
    if kind == "sweep":
        fit = outputs["json"][0]
        vals = {"slope": float(fit["slope"]), "c_factor": float(fit["c_factor"])}
        for row in outputs["csv"][0]:
            x = next(iter(row.values()))
            vals[f"value[{x}]"] = float(row["value"])
        return vals
    vals: dict[str, float] = {}
    _numeric_leaves(outputs["json"][0]["payload"], "", vals)
    return vals


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _spec(check: dict):
    from momentcurve.expsums import ExpSumSpec
    from momentcurve.sharpness import coeffs_for

    n = check["N"]
    return ExpSumSpec(n=n, coeffs=coeffs_for(check["coeffs"], n, check["seed"]),
                      sigma=check["sigma"], h0=check["h0"])


def _moment_problems(check: dict, record: dict) -> list[str]:
    from momentcurve.moments import moment_brute, moment_exact

    problems = []
    value = float(record["value"])
    n, s = check["N"], check["s"]
    if not math.isfinite(value) or value <= 0:
        return [f"moment value {value!r} is not positive and finite"]
    spec = _spec(check)
    if check["method"] == "exact":
        exact = value
    else:
        exact = moment_exact(spec, s).value
        err = float(record["err_estimate"])
        if abs(value - exact) > QUAD_ERR_FACTOR * err:
            problems.append(f"quadrature {value!r} differs from exact {exact!r} by more than "
                            f"{QUAD_ERR_FACTOR:g} x err_estimate {err!r}")
    if n ** (2 * s) <= BRUTE_MAX_PAIRS:
        brute = moment_brute(spec, s).value
        if not _close(exact, brute, EXACT_REL_TOL):
            problems.append(f"exact {exact!r} differs from brute force {brute!r}")
    if check["sigma"] == 0.0 and check["coeffs"] in ("constant", "random_sign"):
        if abs(exact - round(exact)) > INTEGER_ABS_TOL:
            problems.append(f"sigma=0 moment {exact!r} with +-1 coefficients is not an integer")
    return problems


def check_outcome(outcome: dict, reference: dict | None = None) -> list[str]:
    """Problems with one command's result; [] when it is correct.

    outcome: {"label", "check", "exit_code", "error", "outputs": load_outputs(...)}.
    reference: the default seed's {label: {"source": ..., "values": {name: value}}}
    from reference.json, or None.
    """
    if outcome.get("error"):
        return [f"raised {outcome['error']}"]
    if outcome["exit_code"] != 0:
        return [f"exit code {outcome['exit_code']}"]
    check, outputs = outcome["check"], outcome["outputs"]
    kind = check["kind"]
    if not outputs["json"] or (kind == "sweep" and not outputs["csv"]):
        return ["expected output files are missing"]
    record = outputs["json"][0]
    problems: list[str] = []
    if kind == "moment":
        problems += _moment_problems(check, record)
    elif kind == "sweep":
        if "verdict" in check and record["verdict"] != check["verdict"]:
            problems.append(f"sweep verdict {record['verdict']}, expected {check['verdict']}")
        rows = outputs["csv"][0]
        bad = [r for r in rows if not (math.isfinite(float(r["value"])) and float(r["value"]) > 0)]
        if bad or not rows:
            problems.append("sweep rows missing or not positive and finite")
    else:
        if record["violations"] != 0:
            problems.append(f"{record['violations']} geometry violations")
        ratio = record["payload"].get("report", {}).get("max_ratio")
        if ratio is not None and not ratio <= 1.0:
            problems.append(f"broad/narrow max_ratio {ratio!r} > 1")
    if reference is not None and not problems:
        problems += reference_problems(outcome["label"], values_of(check, outputs), reference)
    return problems


def reference_problems(label: str, values: dict, reference: dict) -> list[str]:
    expected = reference.get(label)
    if expected is None:
        return [f"no stored reference for {label!r}"]
    problems = []
    for name, want in expected["values"].items():
        got = values.get(name)
        if got is None or not _close(got, want, REFERENCE_REL_TOL):
            problems.append(f"{name} = {got!r}, reference {want!r} ({expected['source']})")
    return problems
