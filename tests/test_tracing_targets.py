"""The benchmark's traced run finds every pipeline name it wraps.

bench/tracing.py traces a layer by replacing a name in its owner (a
module of llx or a class), and skips a name that is not there, so that
layer's metrics read zero instead of the run failing. This test reads
the target list from the benchmark's file, without importing it as a
module (no bytecode lands under bench/), and fails when a rename in
llx leaves a target behind.
"""

from __future__ import annotations

import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# targets already missing: the sampler calls interp.spline_eval, and the
# three marches share block_tridiag_solve
STALE = {("expansion", "spline_eval_each"),
         ("internal_layer", "tridiag_solve_components"),
         ("boundary_layer", "tridiag_solve_components"),
         ("full_model", "tridiag_solve_components")}


def _tracing_module() -> types.ModuleType:
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    source = TRACING.read_text(encoding="utf-8")
    exec(compile(source, str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves():
    targets = _tracing_module()._TARGETS
    missing = {(owner.__name__.rsplit(".", 1)[-1], attr)
               for owner, attr, _, _ in targets
               if owner.__dict__.get(attr) is None}
    assert missing <= STALE, sorted(missing - STALE)
    assert len(targets) - len(missing) >= 12
