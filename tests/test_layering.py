"""Module layering and the component-axis reductions, read from the
sources with ast.

The expansion is built from separate pieces, and the code keeps them
apart: the interface layer, the wall layer and the full model import
none of one another, and the shared foundations (meshes, time grids and
stencils, the limit flow, the stray field, the banded kernel, spline
interpolation and the initial data) import none of them.

A pipeline module reduces the length-3 component axis of a field only
through banded.dot3 and banded.norm3: np.sum and np.linalg.norm over
axis -1 cost several times the explicit sum. strayfield is not scanned:
its torus spectral helpers reduce stacks of wavenumbers, not fields.

Fields, stencils and the banded kernel share one node axis, -2 of a
(..., n, 3) field, so the stencils' module and the two layers and the
full model that differentiate along it move no axis.

banded holds the one banded-solve kernel of all three marches, so it is
the only module that takes LAPACK routines from scipy.linalg.

The package takes scipy only through scipy.linalg (and its lapack
module): the splines are llx's own, so importing every llx module in a
fresh interpreter loads none of scipy.interpolate, scipy.special,
scipy.optimize or scipy.sparse. scipy.interpolate pulls in the other
three, and with them about 23 MB of resident memory, more than any
array of the study. Nor does it load multiprocessing: the process pool
of a study with several jobs is looked up only when one runs.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import llx

PACKAGE = Path(llx.__file__).parent
LAYERS = ("internal_layer", "boundary_layer", "full_model")
FOUNDATIONS = ("geometry", "limit_model", "strayfield", "banded", "interp",
               "fields")
NODE_AXIS = ("geometry", "internal_layer", "boundary_layer", "full_model")
PIPELINE = ("geometry", "limit_model", "banded", "interp", "internal_layer",
            "boundary_layer", "full_model", "expansion")


def imported_modules(path: Path) -> set:
    """The llx modules the source file imports, by their short names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:
                found.update(alias.name for alias in node.names)
            elif node.level == 1:
                found.add(node.module.split(".")[0])
            elif node.module and node.module.startswith("llx."):
                found.add(node.module.split(".")[1])
            elif node.module == "llx":
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("llx."))
    return found


def test_import_scan_sees_every_spelling(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .a import x\nfrom . import b\n"
                     "from llx.c import y\nfrom llx import d\n"
                     "import llx.e\nimport numpy\n", encoding="utf-8")
    assert imported_modules(probe) == {"a", "b", "c", "d", "e"}


@pytest.mark.parametrize("layer", LAYERS)
def test_physics_layers_import_none_of_one_another(layer):
    others = set(LAYERS) - {layer}
    assert not imported_modules(PACKAGE / f"{layer}.py") & others


@pytest.mark.parametrize("module", FOUNDATIONS)
def test_foundations_import_no_physics_layer(module):
    assert not imported_modules(PACKAGE / f"{module}.py") & set(LAYERS)


def _is_minus_one(node) -> bool:
    return (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
            and isinstance(node.operand, ast.Constant)
            and node.operand.value == 1)


def last_axis_reductions(path: Path) -> list:
    """Line numbers of sum and norm calls over axis -1: np.sum,
    numpy.sum, np.linalg.norm and the array method .sum, with the axis
    as a keyword or in its positional place."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("sum", "norm")):
            continue
        owner = ast.unparse(node.func.value)
        if node.func.attr == "norm":
            place = 2 if owner in ("np.linalg", "numpy.linalg") else None
        else:
            place = 1 if owner in ("np", "numpy") else 0
        axis = [kw.value for kw in node.keywords if kw.arg == "axis"]
        if place is not None and len(node.args) > place:
            axis.append(node.args[place])
        if any(_is_minus_one(a) for a in axis):
            found.append(node.lineno)
    return found


def test_reduction_scan_sees_every_spelling(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("np.sum(v * v, axis=-1)\n"
                     "numpy.sum(v, -1, keepdims=True)\n"
                     "np.linalg.norm(v, axis=-1)\n"
                     "np.linalg.norm(v, None, -1)\n"
                     "(v * v).sum(axis=-1)\n"
                     "v.sum(-1)\n"
                     "np.sum(v, axis=0)\n"
                     "np.linalg.norm(v)\n"
                     "np.max(v, axis=-1)\n", encoding="utf-8")
    assert last_axis_reductions(probe) == [1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("module", PIPELINE)
def test_pipeline_reduces_components_through_dot3(module):
    assert last_axis_reductions(PACKAGE / f"{module}.py") == []


def moveaxis_calls(path: Path) -> list:
    """Line numbers of np.moveaxis and numpy.moveaxis calls."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "moveaxis"
            and ast.unparse(node.func.value) in ("np", "numpy")]


def test_moveaxis_scan_sees_every_spelling(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("np.moveaxis(v, 0, -2)\n"
                     "numpy.moveaxis(v, -1, 1)\n"
                     "np.swapaxes(v, 0, 1)\n"
                     "v.moveaxis\n", encoding="utf-8")
    assert moveaxis_calls(probe) == [1, 2]


@pytest.mark.parametrize("module", NODE_AXIS)
def test_node_axis_modules_move_no_axis(module):
    assert moveaxis_calls(PACKAGE / f"{module}.py") == []


def lapack_imports(path: Path) -> list:
    """Line numbers of imports that take LAPACK routines from scipy:
    scipy.linalg.lapack in any spelling, and get_lapack_funcs."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            names = {alias.name for alias in node.names}
            if (node.module == "scipy.linalg.lapack"
                    or (node.module == "scipy.linalg"
                        and names & {"lapack", "get_lapack_funcs"})):
                found.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(alias.name == "scipy.linalg.lapack"
                   for alias in node.names):
                found.append(node.lineno)
    return found


def test_lapack_scan_sees_every_spelling(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from scipy.linalg.lapack import dgbsv\n"
                     "import scipy.linalg.lapack\n"
                     "import scipy.linalg.lapack as lp\n"
                     "from scipy.linalg import lapack\n"
                     "from scipy.linalg import get_lapack_funcs\n"
                     "from scipy.linalg import solve_banded\n"
                     "import scipy.linalg\n"
                     "from .banded import block_tridiag_solve\n",
                     encoding="utf-8")
    assert lapack_imports(probe) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("module", sorted(
    path.stem for path in PACKAGE.glob("*.py") if path.stem != "banded"))
def test_only_the_banded_kernel_calls_lapack(module):
    assert lapack_imports(PACKAGE / f"{module}.py") == []


def test_the_banded_kernel_is_seen_calling_lapack():
    assert lapack_imports(PACKAGE / "banded.py")


SCIPY_ALLOWED = ("scipy.linalg", "scipy.linalg.lapack")
SCIPY_HEAVY = ("scipy.interpolate", "scipy.special", "scipy.optimize",
               "scipy.sparse")


def scipy_imports(path: Path) -> list:
    """(line, module) of every scipy import, by the module it names:
    `from scipy import x` names scipy.x."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "scipy":
                found.extend((node.lineno, f"scipy.{alias.name}")
                             for alias in node.names)
            elif node.module.startswith("scipy."):
                found.append((node.lineno, node.module))
        elif isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names
                         if alias.name.split(".")[0] == "scipy")
    return found


def test_scipy_scan_sees_every_spelling(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from scipy.interpolate import CubicSpline\n"
                     "import scipy\n"
                     "import scipy.sparse as sp\n"
                     "from scipy import linalg, special\n"
                     "from scipy.linalg.lapack import dgbsv\n"
                     "import numpy\n"
                     "from .interp import x_resample\n", encoding="utf-8")
    assert scipy_imports(probe) == [
        (1, "scipy.interpolate"), (2, "scipy"), (3, "scipy.sparse"),
        (4, "scipy.linalg"), (4, "scipy.special"),
        (5, "scipy.linalg.lapack")]


@pytest.mark.parametrize("module", sorted(
    path.stem for path in PACKAGE.glob("*.py")))
def test_scipy_is_taken_only_from_linalg(module):
    assert [(line, name) for line, name in
            scipy_imports(PACKAGE / f"{module}.py")
            if name not in SCIPY_ALLOWED] == []


def loaded_by_llx(watched: tuple) -> str:
    """The watched modules that importing every llx module loads, printed
    by a fresh interpreter, so no other test's imports count."""
    modules = sorted(f"llx.{path.stem}" for path in PACKAGE.glob("*.py")
                     if path.stem != "__init__")
    code = ("import importlib, sys\n"
            f"for name in {modules!r}:\n"
            "    importlib.import_module(name)\n"
            f"print(sorted(m for m in {watched!r} if m in sys.modules))\n")
    done = subprocess.run([sys.executable, "-c", code],
                          cwd=PACKAGE.parent, capture_output=True, text=True,
                          check=False)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_importing_llx_loads_no_heavy_scipy_module():
    assert loaded_by_llx(SCIPY_HEAVY) == "[]"


def test_importing_llx_loads_no_process_pool():
    # the pool of a --jobs study is looked up when the study runs, and
    # concurrent.futures resolves it lazily, so a serial run never pays
    # for multiprocessing
    assert loaded_by_llx(("multiprocessing",
                          "concurrent.futures.process")) == "[]"
