"""The cross-references in the docstrings and the README name code that
exists: a renamed or deleted function leaves no stale pointer behind."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import lorentz_forge

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(lorentz_forge.__file__).resolve().parent

# the roles whose targets are dotted names from their module; ``:meth:``
# and ``:attr:`` may also name an attribute of a class the module defines
ROLE = re.compile(r":(func|class|data|meth|attr):`(~?)([\w.]+)`")

MODULES = {info.name.rsplit(".", 1)[-1]: info.name for info in
           pkgutil.walk_packages(lorentz_forge.__path__, "lorentz_forge.")}


def _resolves(obj, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def _imported(target: str) -> bool:
    """Whether ``package.module.name...`` names an attribute of the longest
    importable module prefix."""
    parts = target.split(".")
    for i in range(len(parts), 0, -1):
        try:
            mod = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        return _resolves(mod, ".".join(parts[i:])) if i < len(parts) else True
    return False


def _resolves_in(modname: str, role: str, target: str) -> bool:
    """Whether an unqualified ``role`` reference to ``target`` in the module
    ``modname`` names something."""
    mod = importlib.import_module(modname)
    return _resolves(mod, target) or role in ("meth", "attr") and any(
        _resolves(cls, target) for cls in vars(mod).values()
        if isinstance(cls, type) and cls.__module__ == modname)


def _docstring_refs():
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC.parent).with_suffix("")
        modname = ".".join(rel.parts).removesuffix(".__init__")
        for m in ROLE.finditer(path.read_text()):
            yield modname, m.group(1), m.group(2) == "~", m.group(3)


def test_docstring_roles_resolve():
    refs = list(_docstring_refs())
    assert len(refs) > 50  # the scan reads the docstrings
    # the scan finds a named reference of each role, an unqualified
    # :meth: and :attr: among them
    found = {(modname, role, target) for modname, role, _, target in refs}
    assert {("lorentz_forge.verify.checks", "func", "_sweep"),
            ("lorentz_forge.verify.checks", "class", "_Group"),
            ("lorentz_forge.verify.checks", "data", "_BLOCK_CELLS"),
            ("lorentz_forge.verify.checks", "meth", "CheckReport.worst_case"),
            ("lorentz_forge.rearrange", "attr", "_support")} <= found
    stale = []
    for modname, role, qualified, target in refs:
        ok = _imported(target) if qualified else _resolves_in(modname, role, target)
        if not ok:
            stale.append((modname, target))
    assert stale == []


def _readme_refs():
    text = (ROOT / "README.md").read_text()
    text = re.sub(r"(?ms)^```.*?^```", "", text)  # fenced blocks hold no refs
    for span in re.findall(r"`([^`]+)`", text):
        m = re.match(r"(\w+)\.([A-Za-z_][\w.]*)", span)
        if m and m.group(1) in MODULES:
            yield m.group(1), m.group(2).rstrip(".")


def test_readme_module_references_resolve():
    refs = list(_readme_refs())
    assert len(refs) > 10
    stale = [(mod, name) for mod, name in refs
             if not _resolves(importlib.import_module(MODULES[mod]), name)]
    assert stale == []


@pytest.mark.parametrize("target, ok", [
    ("lorentz_forge.norms._stage", True),
    ("lorentz_forge.norms._no_such", False),
    ("lorentz_forge.no_such.name", False),
    ("lorentz_forge.verify.checks._Prepared.g", True)])
def test_qualified_targets_resolve_by_import(target, ok):
    assert _imported(target) is ok


@pytest.mark.parametrize("role, target, ok", [
    ("meth", "_Prepared.khat", True),
    ("meth", "khat", True),  # an attribute of a class of the module
    ("attr", "_support", True),  # inherited from rearrange._BlockTables
    ("func", "khat", False),  # only :meth: and :attr: look into classes
    ("meth", "_Prepared.no_such", False),
    ("attr", "no_such", False),
    ("meth", "worst_case", False)])  # a method of an imported class only
def test_unqualified_targets_resolve_in_their_module(role, target, ok):
    assert _resolves_in("lorentz_forge.verify.checks", role, target) is ok
