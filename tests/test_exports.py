import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest


@pytest.mark.parametrize("name", ["braid", "surface", "designs", "plumbing", "catalog"])
def test_all_names_resolve(name):
    mod = importlib.import_module(f"planar_monoid.{name}")
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert missing == []
    # and the converse: a public function or class defined here is listed,
    # so __all__ is the whole public surface and a new helper joins it on purpose
    unlisted = [
        n
        for n, v in vars(mod).items()
        if (inspect.isfunction(v) or inspect.isclass(v))
        and v.__module__ == mod.__name__
        and not n.startswith("_")
        and n not in mod.__all__
    ]
    assert unlisted == []


def test_package_import_loads_neither_dataclasses_nor_fractions():
    "The CLI's import stays small: both modules cost time at every start."
    src = Path(importlib.import_module("planar_monoid").__file__).parent.parent
    code = (
        "import sys; before = set(sys.modules); import planar_monoid.cli; "
        "print(sorted({'dataclasses', 'fractions'} & (set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
