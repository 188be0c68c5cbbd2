"""Result records, CSV tables, and append-only run manifests.

Numbers in CSV bodies and human-readable lines use a fixed 12-significant-
digit format (scientific past 1e+-9) so reruns diff cleanly; timestamps and
wall times live only in manifests, keeping result tables byte-identical
across reruns with the same arguments.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone

SIG_DIGITS = 12
SCI_THRESHOLD = 1e9


def format_number(x) -> str:
    """12-significant-digit decimal, scientific notation beyond 1e+-9."""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, int):
        return str(x)
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x == 0.0:
        return "0"
    ax = abs(x)
    if ax >= SCI_THRESHOLD or ax < 1.0 / SCI_THRESHOLD:
        return f"{x:.{SIG_DIGITS - 1}e}"
    exp10 = math.floor(math.log10(ax))
    decimals = max(0, SIG_DIGITS - 1 - exp10)
    return f"{x:.{decimals}f}"


def format_cell(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, float)):
        return format_number(x)
    return str(x)


def write_text_atomic(path: str, text: str) -> str:
    """Write text as UTF-8 through a temporary file; returns the SHA-256 of
    the bytes written, so no caller reads the file back to hash it."""
    data = text.encode("utf-8")
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)
    return hashlib.sha256(data).hexdigest()


def args_digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:10]


def to_jsonable(obj):
    """Recursively convert dataclasses / numpy scalars / tuples for json.

    A dataclass converts one level of fields at a time; dataclasses.asdict
    would deep-copy the whole tree before this walk visits it again.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if hasattr(obj, "item") and callable(obj.item) and getattr(obj, "ndim", None) == 0:
        return obj.item()
    if hasattr(obj, "tolist"):
        return obj.tolist()
    return obj


def write_json(path: str, payload) -> str:
    """Sorted, indented JSON; returns the file's SHA-256."""
    text = json.dumps(to_jsonable(payload), indent=2, sort_keys=True)
    return write_text_atomic(path, text + "\n")


def write_csv(path: str, header: list[str], rows: list[list]) -> str:
    """Comma-separated, LF endings, header row, formatted numeric cells;
    returns the file's SHA-256."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(c) for c in row))
    return write_text_atomic(path, "\n".join(lines) + "\n")


@dataclass
class RunManifest:
    """Provenance record for one CLI invocation.

    Result and table files carry the run_id of the manifest that produced
    them; manifest files are never rewritten (one new file per run, plus an
    index line), so the history is append-only.
    """

    run_id: str
    command: list[str]
    config: dict
    seeds: list[int]
    version: str
    started_utc: str
    wall_time_s: float = 0.0
    budgets: dict = field(default_factory=dict)
    outputs: list[dict] = field(default_factory=list)
    status: str = "ok"

    def add_output(self, path: str, sha256: str) -> None:
        """Record an output file with the digest its writer returned."""
        self.outputs.append({"path": path, "sha256": sha256})


def package_version() -> str:
    """momentcurve.__version__, which pyproject.toml reads as the package
    version: right from a checkout too, where no distribution metadata is
    installed, and without importing importlib.metadata."""
    from . import __version__

    return __version__


def new_manifest(command: list[str], config: dict, seeds: list[int]) -> RunManifest:
    now = datetime.now(timezone.utc)
    stamp = now.strftime("%Y%m%dT%H%M%S%f")
    digest = args_digest({"command": command, "config": config})
    return RunManifest(
        run_id=f"{stamp}-{digest}",
        command=list(command),
        config=dict(config),
        seeds=list(seeds),
        version=package_version(),
        started_utc=now.isoformat(),
    )


class OutputLayout:
    """results/, tables/, manifests/ directories under a base path."""

    def __init__(self, base: str) -> None:
        self.base = base
        self.results = os.path.join(base, "results")
        self.tables = os.path.join(base, "tables")
        self.manifests = os.path.join(base, "manifests")
        for d in (self.results, self.tables, self.manifests):
            os.makedirs(d, exist_ok=True)

    def result_path(self, slug: str) -> str:
        return os.path.join(self.results, slug + ".json")

    def table_path(self, slug: str) -> str:
        return os.path.join(self.tables, slug + ".csv")

    def flush_manifest(self, manifest: RunManifest) -> str:
        path = os.path.join(self.manifests, manifest.run_id + ".json")
        write_json(path, manifest)
        index = os.path.join(self.manifests, "index.jsonl")
        line = json.dumps(
            {
                "run_id": manifest.run_id,
                "command": manifest.command,
                "status": manifest.status,
                "outputs": [o["path"] for o in manifest.outputs],
            },
            sort_keys=True,
        )
        with open(index, "a", encoding="utf-8", newline="\n") as fh:
            fh.write(line + "\n")
        return path
