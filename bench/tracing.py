"""Spans for the traced run, recorded from the benchmark's own files.

A span is (name, start, end, parent), parent being the index of the
span open when it began (-1 at the top). Spans stay in memory and are
written out when the run ends. Each layer is traced by replacing a
public name where the pipeline looks it up (module globals of
llx.expansion, the banded solvers as imported by internal_layer,
boundary_layer and full_model), so the traced pipeline runs the same
code as the untraced one. A name that is not there is skipped: its
layer then reads zero instead of the traced run failing.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

import numpy as np

from llx import boundary_layer, expansion, full_model, internal_layer

# top-level stages of a pass: disjoint, so their busy times add up
STAGES = ("extend", "picard", "wall", "sample", "march", "limit_err",
          "residual", "eclass")


def _count_picard(counts, pair):
    sweeps = pair.iterations
    ratios = pair.contraction_ratios()
    counts["picard.columns"] += int(np.count_nonzero(sweeps))
    counts["picard.sweeps"] += int(np.sum(sweeps))
    counts["picard.sweeps_max"] = max(counts["picard.sweeps_max"],
                                      int(np.max(sweeps, initial=0)))
    counts["picard.ratio_max"] = max(counts["picard.ratio_max"],
                                     max(ratios, default=0.0))
    counts["pieces.bytes"] += pair.W.nbytes


def _count_wall(counts, prof):
    active = np.max(np.abs(prof.g_data), axis=(0, 2), initial=0.0) > 0.0
    counts["wall.columns"] += int(np.count_nonzero(active))
    counts["pieces.bytes"] += prof.U.nbytes


def _count_banded(counts, sol):
    counts["banded.unknowns"] += sol.size


def _count_sample(counts, vals):
    counts["sample.points"] += vals.shape[0] * vals.shape[1]


def _count_march(counts, traj):
    attempted = traj.steps_taken + traj.halvings_used
    counts["march.steps_accepted"] += traj.steps_taken
    counts["march.steps_rejected"] += traj.halvings_used
    counts["march.node_steps"] += traj.grid.n * attempted


# (owner, attribute, span name, counter run on the result)
_TARGETS = (
    [(expansion, "build_expansion_pieces", "build", None),
     (expansion, "convergence_study", "study", None),
     (expansion, "extend_limit", "extend", None),
     (expansion, "picard_profiles", "picard", _count_picard),
     (expansion, "solve_boundary_profile", "wall", _count_wall),
     (expansion.ExpansionAnsatz, "sample_times", "sample", _count_sample),
     (expansion, "simulate_full", "march", _count_march),
     (full_model, "simulate_full", "march", _count_march),
     (expansion, "simulate_limit", "limit_err", None),
     (expansion, "jump_error_l2", "limit_err", None),
     (expansion, "residual_report", "residual", None),
     (expansion, "eclass_norms", "eclass", None)]
    + [(expansion, name, "interp", None)
       for name in ("natural_spline_coeffs", "spline_eval_each",
                    "x_resample")]
    + [(module, name, "banded", _count_banded)
       for module in (internal_layer, boundary_layer, full_model)
       for name in ("block_tridiag_solve", "tridiag_solve_components")])


class Tracer:
    """Span list plus counters, filled while its wrappers are installed."""

    def __init__(self):
        self.spans: list = []
        self.counts = defaultdict(int)
        self._open: list = []

    def _begin(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        return index

    def _end(self, index: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._open.pop()
        parent = self._open[-1] if self._open else -1
        self.spans[index] = (name, start, end, parent)

    @contextlib.contextmanager
    def region(self, name: str):
        """A span around a block of the benchmark's own code."""
        index = self._begin()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._end(index, name, start)

    def wrap(self, name: str, fn, count=None):
        """fn with a span around every call; count runs after it closes."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._begin()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index, name, start)
            if count is not None:
                count(self.counts, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer name that exists; restore them on exit."""
        saved = []
        try:
            for owner, attr, name, count in _TARGETS:
                original = owner.__dict__.get(attr)
                if original is None:
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, count))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_metrics(self) -> dict:
        """Busy time, self time and call count per span name, plus counts.

        Self time is a span's duration minus the durations of its
        direct children; siblings never overlap in one thread.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        for (name, start, end, _), inner in zip(self.spans, child):
            busy[name] += end - start
            own[name] += end - start - inner
            calls[name] += 1
        out = dict(self.counts)
        for name in busy:
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.self_s"] = own[name]
            out[f"{name}.calls"] = calls[name]
        return out

    def dump(self) -> list:
        return [list(span) for span in self.spans]
