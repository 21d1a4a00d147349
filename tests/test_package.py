import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import bergmanlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(bergmanlab.__path__))


def test_modules_with_all():
    with_all = {n for n in MODULES if hasattr(importlib.import_module(f"bergmanlab.{n}"), "__all__")}
    assert with_all == {"cutoff", "density", "geometry", "gram", "quadrature"}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"bergmanlab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_light_modules_import_without_numpy():
    code = (
        "import sys, bergmanlab.geometry, bergmanlab.quadrature, bergmanlab.cutoff; "
        "print('numpy' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(bergmanlab.__file__))}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout == "False\n"
