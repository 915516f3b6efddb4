"""Every name a module exports resolves, so a stale entry in `__all__`
fails here rather than in `from qgenocchi import *`; no module of the
package takes a private name from `exactq`; and none reads an exact
shadow of a p-adic value."""

import ast
from pathlib import Path

import pytest

import qgenocchi
import qgenocchi.padic


@pytest.mark.parametrize("module", [qgenocchi, qgenocchi.padic], ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_no_module_imports_a_private_name_from_exactq():
    # operations on integer rows live in `_kernel`; `_power`, the
    # square-and-multiply loop that `PadicNumber.__pow__` shares, is the
    # one private name another module may take from `exactq`
    allowed = {"_power"}
    found = []
    for path in sorted(Path(qgenocchi.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and \
                    (node.module, node.level) in (("exactq", 1), ("qgenocchi.exactq", 0)):
                found += [f"{path.name}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_") and alias.name not in allowed]
    assert found == []


def test_no_module_reads_an_exact_shadow_of_a_padic_value():
    # a `PadicNumber` is (valuation, unit, precision) alone: an exact value
    # enters a p-adic function as a Fraction, so no second, exact
    # arithmetic path reads one back from a p-adic value
    found = []
    for path in sorted(Path(qgenocchi.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("exact_value", "_exact"):
                found.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert found == []
