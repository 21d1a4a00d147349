import ast
import importlib
import importlib.util
import io
import os
import pkgutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
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


def test_density_imports_without_json():
    # json is imported by sweep_to_json alone, so cold commands other than
    # sweep --format json do not pay for it
    src = os.path.dirname(os.path.dirname(bergmanlab.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import bergmanlab.density; "
        "print('json' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout == "False\n"


def importers(top: str) -> set:
    """The package's module files that import top or one of its submodules."""
    found = set()
    for path in Path(bergmanlab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == top for name in names):
                found.add(path.name)
    return found


def private_imports() -> set:
    """(module file, name) for each underscore-prefixed name a module imports from the package."""
    found = set()
    for path in Path(bergmanlab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "bergmanlab"
            ):
                found.update((path.name, alias.name) for alias in node.names
                             if alias.name.startswith("_"))
    return found


def test_no_module_imports_a_private_name():
    # each formula has one home: a module reaches another's only through its public names
    assert private_imports() == set()


def test_only_gram_imports_numpy():
    # numpy serves gram's LAPACK routes alone; every other module is pure Python
    assert importers("numpy") == {"gram.py"}


def test_no_module_imports_dataclasses():
    # records are namedtuples or plain classes: collections imports in a fraction
    # of the time that dataclasses (and typing) take
    assert importers("dataclasses") == set()


def test_benchmark_tracer_hooks_fit_the_package():
    # bench/spans.py wraps these modules' functions by name when the benchmark
    # runs with --trace 1, and reads BorderedGram.dim from schur_i00's argument
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    from bergmanlab import cli, cutoff, density, geometry, gram, quadrature

    tracer = spans.Tracer()
    tracer.install(cli, cutoff, density, geometry, gram, quadrature)
    try:
        with redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "--seed", "0"]) == 0
            assert cli.main(["sweep", "--rho", "-0.7", "--m-list", "100,1000"]) == 0
    finally:
        tracer.restore()
    # verify --seed 0 draws 200 matrices, per matrix k then two k x k normals,
    # and runs each of the three routes once per distinct k
    rng, sizes = np.random.default_rng(0), set()
    for _ in range(200):
        k = int(rng.integers(2, 13))
        sizes.add(k)
        rng.normal(size=(k, k)), rng.normal(size=(k, k))
    assert tracer.calls["gram.schur"] == len(sizes)
    assert tracer.calls["gram.reference_routes"] == 2 * len(sizes)
    assert tracer.calls["density.estimate"] == 2
    assert 2 <= tracer.dim_max <= 12


def module_private_names() -> tuple[set, set]:
    """(module file, name) for each private name a module defines at its top level, and
    every name the package reads, as a variable or an attribute."""
    defined, read = set(), set()
    for path in Path(bergmanlab.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined.update((path.name, name) for name in names
                           if name.startswith("_") and not name.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return defined, read


def test_every_private_module_name_is_read():
    # a private helper or constant that no code reads is left over from an earlier form
    defined, read = module_private_names()
    assert {"_SUITES", "_stirlerr", "_complement"} <= {name for _, name in defined}
    assert {(path, name) for path, name in defined if name not in read} == set()
