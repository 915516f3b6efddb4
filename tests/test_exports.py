"""Every name a module exports resolves, so a stale entry in `__all__`
fails here rather than in `from qgenocchi import *`; and no module of the
package takes a private name from `exactq`."""

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
