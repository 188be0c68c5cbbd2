"""Checks on the package's public surface."""

import ast
from pathlib import Path

import momentcurve

ROOT = Path(__file__).resolve().parents[1]
# Public names the package itself need not call: the test oracle, and the
# entry points of criteria 5, 9 and 6.
ENTRY_POINTS = {
    "eval_sum",
    "interference_lower_bound",
    "periodicity_identity_check",
    "verify_maincor",
}


def _references(path):
    """(referenced identifier, top-level name whose definition holds it) pairs.

    Identifiers are loaded names and attribute names; module-level code has
    owner None.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        owner = getattr(node, "name", None)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                yield sub.id, owner
            elif isinstance(sub, ast.Attribute):
                yield sub.attr, owner


def test_all_names_resolve():
    # A name left in __all__ after its definition is deleted breaks only
    # `from momentcurve import *`, which nothing else in the suite runs.
    missing = [name for name in momentcurve.__all__ if not hasattr(momentcurve, name)]
    assert missing == []


def test_every_public_name_is_used_outside_tests():
    # A public name that only tests reach is either wired in or deleted.
    files = [p for p in (ROOT / "src" / "momentcurve").glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py"))
    used = {ident for path in files for ident, owner in _references(path) if ident != owner}
    unused = sorted(set(momentcurve.__all__) - used - ENTRY_POINTS)
    assert unused == []
