import importlib

import pytest


@pytest.mark.parametrize("name", ["braid", "surface", "designs", "plumbing", "catalog"])
def test_all_names_resolve(name):
    mod = importlib.import_module(f"planar_monoid.{name}")
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert missing == []
