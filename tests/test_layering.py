"""Module layering, read from the sources with ast.

The expansion is built from separate pieces, and the code keeps them
apart: the interface layer, the wall layer and the full model import
none of one another, and the shared foundations (meshes, time grids and
stencils, the limit flow, the stray field, the banded kernel, spline
interpolation and the initial data) import none of them.
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
