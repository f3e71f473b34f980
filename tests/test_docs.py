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

# the roles whose targets are module-level names (``:attr:`` and ``:meth:``
# also point into the class they are written in)
ROLE = re.compile(r":(?:func|class|data):`(~?)([\w.]+)`")

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


def _docstring_refs():
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC.parent).with_suffix("")
        modname = ".".join(rel.parts).removesuffix(".__init__")
        for m in ROLE.finditer(path.read_text()):
            yield modname, m.group(1) == "~", m.group(2)


def test_docstring_roles_resolve():
    refs = list(_docstring_refs())
    assert len(refs) > 50  # the scan reads the docstrings
    stale = []
    for modname, qualified, target in refs:
        ok = _imported(target) if qualified else \
            _resolves(importlib.import_module(modname), target)
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
