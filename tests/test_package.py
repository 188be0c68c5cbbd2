"""Checks on the package's public surface."""

import ast
import inspect
from pathlib import Path

import momentcurve

ROOT = Path(__file__).resolve().parents[1]
# Public names the package itself need not call: the test oracle, and the
# entry points of criteria 5 and 9.
ENTRY_POINTS = {
    "eval_sum",
    "interference_lower_bound",
    "periodicity_identity_check",
}
# Defaulted parameters that no package module or demo sets -> why each stays.
UNSET_DEFAULTS = {
    "vinogradov_count.budget_tuples": "the tuple budget every exact-engine entry "
    "point takes",
    "local_moment_quadrature.cube_corner": "the local moment is defined on every "
    "translate of the cube; tests move it",
}


def _references(path):
    """(referenced identifier, top-level name whose definition holds it, is it
    an attribute) triples.

    Identifiers are loaded names and attribute names; module-level code has
    owner None.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        owner = getattr(node, "name", None)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                yield sub.id, owner, False
            elif isinstance(sub, ast.Attribute):
                yield sub.attr, owner, True


def _package_and_demo_files():
    """The package's modules other than __init__.py, and the demos."""
    files = [p for p in (ROOT / "src" / "momentcurve").glob("*.py") if p.name != "__init__.py"]
    return files + sorted((ROOT / "demos").glob("*.py"))


def _call_sites(paths):
    """Called name -> [(positional count, has *args, keyword names)]; a
    **kwargs splat shows up as the keyword name None."""
    sites = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            star = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            sites.setdefault(name, []).append((len(node.args), star, keywords))
    return sites


def _public_members():
    """(label, name, member) for every public method and property of a class
    in __all__."""
    for name in momentcurve.__all__:
        obj = getattr(momentcurve, name)
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and (
                    inspect.isfunction(member) or isinstance(member, property)
                ):
                    yield f"{name}.{attr}", attr, member


def _public_callables():
    """(label, function) for every function and public method in __all__."""
    for name in momentcurve.__all__:
        if inspect.isfunction(getattr(momentcurve, name)):
            yield name, getattr(momentcurve, name)
    for label, _, member in _public_members():
        if inspect.isfunction(member):
            yield label, member


def test_all_names_resolve():
    # A name left in __all__ after its definition is deleted breaks only
    # `from momentcurve import *`, which nothing else in the suite runs.
    missing = [name for name in momentcurve.__all__ if not hasattr(momentcurve, name)]
    assert missing == []


def test_every_public_name_is_used_outside_tests():
    # A public name that only tests reach is either wired in or deleted.
    files = _package_and_demo_files()
    used = {ident for path in files for ident, owner, _ in _references(path) if ident != owner}
    unused = sorted(set(momentcurve.__all__) - used - ENTRY_POINTS)
    assert unused == []


def test_every_public_member_is_used_outside_tests():
    # The same rule for the methods and properties of public classes: a
    # member is used where the package, a demo or a benchmark script reads it
    # as an attribute. Dataclass fields are not covered: they reach records
    # through dataclasses.asdict.
    files = _package_and_demo_files()
    files += [p for p in sorted((ROOT / "perfbench").glob("*.py")) if p.name != "test_perfbench.py"]
    used = {ident for path in files for ident, _, attr in _references(path) if attr}
    unused = sorted(label for label, attr, _ in _public_members() if attr not in used)
    assert unused == []


def test_every_default_is_set_outside_tests():
    # A parameter only tests set is a knob nothing uses: it becomes a constant.
    files = sorted((ROOT / "src" / "momentcurve").glob("*.py"))
    sites = _call_sites(files + sorted((ROOT / "demos").glob("*.py")))
    unset = []
    for label, func in _public_callables():
        params = [p for p in inspect.signature(func).parameters.values() if p.name != "self"]
        for i, p in enumerate(params):
            if p.default is inspect.Parameter.empty:
                continue
            positional = p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
            if not any(
                p.name in kws or None in kws or (positional and (n_pos > i or star))
                for n_pos, star, kws in sites.get(func.__name__, [])
            ):
                unset.append(f"{label}.{p.name}")
    assert sorted(unset) == sorted(UNSET_DEFAULTS)
