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
"""

from __future__ import annotations

import ast
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
