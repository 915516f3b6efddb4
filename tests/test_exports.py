"""Every name a module exports resolves, so a stale entry in `__all__`
fails here rather than in `from qgenocchi import *`."""

import pytest

import qgenocchi
import qgenocchi.padic


@pytest.mark.parametrize("module", [qgenocchi, qgenocchi.padic], ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
