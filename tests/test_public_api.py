"""Every public name has a reader: code in the package, or the user.

A name in a module's ``__all__`` must be used by some code of the package
(a call, a read or an import), be exported by ``covolume.__all__``, or be
named in README.md.  A public function that only tests call belongs in
tests/oracles.py, where the tests that use it as a reference can find it.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import covolume

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "covolume"
README = (ROOT / "README.md").read_text(encoding="utf-8")
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("__"))


def _names_read_by_package():
    """Every name that package code reads, calls, or imports by name."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_is_reached(module):
    read = _names_read_by_package()
    unreached = [
        name
        for name in importlib.import_module(f"covolume.{module}").__all__
        if name not in read
        and name not in covolume.__all__
        and not re.search(rf"\b{re.escape(name)}\b", README)
    ]
    assert unreached == []
