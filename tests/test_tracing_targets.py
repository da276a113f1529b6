"""The benchmark's traced run finds every pipeline name it wraps, and
its counters read what the pipeline builds.

bench/tracing.py traces a layer by replacing a name in its owner (a
module of llx or a class), and skips a name that is not there, so that
layer's metrics read zero instead of the run failing. These tests read
the benchmark's files without importing them as modules (no bytecode
lands under bench/). They fail when a rename in llx leaves a target
behind, or when a change to the pieces breaks a counter or the swirl
build gate's interface sup.
"""

from __future__ import annotations

import sys
import types
from collections import defaultdict
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1] / "bench"

# targets already missing: the sampler calls interp.spline_eval, and the
# three marches share block_tridiag_solve
STALE = {("expansion", "spline_eval_each"),
         ("internal_layer", "tridiag_solve_components"),
         ("boundary_layer", "tridiag_solve_components"),
         ("full_model", "tridiag_solve_components")}


def _bench_module(name: str, monkeypatch) -> types.ModuleType:
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    module.__file__ = str(path)
    # dataclasses look their module up while the class is built
    monkeypatch.setitem(sys.modules, module.__name__, module)
    source = path.read_text(encoding="utf-8")
    exec(compile(source, str(path), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves(monkeypatch):
    targets = _bench_module("tracing", monkeypatch)._TARGETS
    missing = {(owner.__name__.rsplit(".", 1)[-1], attr)
               for owner, attr, _, _ in targets
               if owner.__dict__.get(attr) is None}
    assert missing <= STALE, sorted(missing - STALE)
    assert len(targets) - len(missing) >= 12


def test_bench_counters_read_the_pieces(jump_pieces, swirl_pieces,
                                        monkeypatch):
    tracing = _bench_module("tracing", monkeypatch)
    workloads = _bench_module("workloads", monkeypatch)
    for pieces, jump in ((jump_pieces, True), (swirl_pieces, False)):
        counts = defaultdict(int)
        tracing._count_picard(counts, pieces.profiles)
        tracing._count_wall(counts, pieces.boundary)
        assert (counts["picard.columns"] > 0) == jump
        assert counts["picard.sweeps"] >= counts["picard.columns"]
        assert 0.0 <= counts["picard.ratio_max"] < 1.0
        assert counts["pieces.bytes"] == (pieces.profiles.W.nbytes
                                          + pieces.boundary.U.nbytes)
        sup = workloads._interface_sup(pieces)
        assert np.isfinite(sup) and (sup > 1e-12) == jump
    assert counts["wall.columns"] > 0
