import importlib
import pkgutil

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
