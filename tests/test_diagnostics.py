"""The diagnostics walk the knots in blocks: each must equal its
whole-array evaluation (manufactured.whole_*) bit for bit, and one eps
row of the study must hold only a few space-time fields."""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from llx import expansion
from llx.expansion import eclass_norms, jump_error_l2
from llx.full_model import make_epsilon_grid, residual_report
from llx.geometry import LEVEL_BLOCK, knot_times, level_blocks

from manufactured import (full_model_solution, whole_eclass_norms,
                          whole_jump_error_l2, whole_residual_report)


def _assert_walks_match(times, grid, rng):
    """All three diagnostics against their oracles on random fields."""
    x = grid.x
    w = rng.standard_normal((times.size, x.size, 3))
    for m in (0, 1, 2):
        assert eclass_norms(times, x, w, 0.05, m) \
            == whole_eclass_norms(times, x, w, 0.05, m)
    values = rng.standard_normal((times.size, x.size, 3))
    values /= np.linalg.norm(values, axis=-1, keepdims=True)
    assert residual_report(times, values, grid, 0.1) \
        == whole_residual_report(times, values, grid, 0.1)
    i0 = int(np.searchsorted(x, 0.0))
    refs = (w[:, :i0 + 1], rng.standard_normal((times.size, x.size - i0,
                                                3)))
    assert jump_error_l2(times, x, values, *refs) \
        == whole_jump_error_l2(times, x, values, *refs)


@pytest.mark.parametrize("times", [
    np.linspace(0.0, 0.4, 2 * LEVEL_BLOCK + 5),
    np.concatenate([[0.0], np.cumsum(np.random.default_rng(2).uniform(
        0.5, 1.5, 2 * LEVEL_BLOCK + 6))]),
], ids=["uniform", "graded"])
def test_walks_match_the_oracles_off_the_block_size(times):
    assert times.size % LEVEL_BLOCK != 0
    _assert_walks_match(times, make_epsilon_grid(0.2, 8),
                        np.random.default_rng(0))


def test_walks_match_the_oracles_on_the_default_knots(study_cfg):
    # the block at knot 144 reads equal spacings, the grid has not:
    # np.gradient on that window alone would take its uniform formula
    times = knot_times(study_cfg.T, study_cfg.dt_knot)
    h = np.diff(times)
    assert not np.all(h == h[0])
    windows = [(lo, start, hi)
               for lo, start, _, hi in level_blocks(times.size, 2)
               if np.all(np.diff(times[lo:hi]) == h[lo])]
    assert [start for _, start, _ in windows] == [144]
    grid = make_epsilon_grid(0.1, 8)
    rng = np.random.default_rng(4)
    _assert_walks_match(times, grid, rng)
    # a field living around that window only, where a formula chosen
    # from the window's own spacings would change the last bits
    lo, _, hi = windows[0]
    w = np.zeros((times.size, grid.n, 3))
    w[lo - 2:hi + 2] = rng.standard_normal((hi - lo + 4, grid.n, 3))
    for m in (1, 2):
        assert eclass_norms(times, grid.x, w, 0.05, m) \
            == whole_eclass_norms(times, grid.x, w, 0.05, m)


def test_residual_walk_with_a_source_matches_the_oracle():
    u_eval, source_for = full_model_solution()
    grid = make_epsilon_grid(0.2, 8)
    times = np.linspace(0.0, 0.4, LEVEL_BLOCK + 3)
    values = np.stack([u_eval(t, grid.x) for t in times])
    source = source_for(0.3)
    report = residual_report(times, values, grid, 0.3, source=source)
    assert report == whole_residual_report(times, values, grid, 0.3,
                                           source=source)
    assert report.l2_residual > 0.0


# --- one eps row of the session studies ---

@pytest.fixture(scope="module", params=["jump", "swirl"])
def row_calls(request, study_cfg):
    """The arguments each diagnostic got in one eps = 0.1 row."""
    data = request.getfixturevalue(f"{request.param}_data")
    pieces = request.getfixturevalue(f"{request.param}_pieces")
    calls = {}

    def record(name):
        original = getattr(expansion, name)

        def run(*args, **kwargs):
            calls[name] = args
            return original(*args, **kwargs)
        return run

    with pytest.MonkeyPatch.context() as patch:
        for name in ("residual_report", "jump_error_l2", "eclass_norms"):
            patch.setattr(expansion, name, record(name))
        expansion._epsilon_row((pieces, data, 0.1, study_cfg))
    return calls


@pytest.mark.parametrize("m", [1, 2])
def test_study_row_eclass_matches_the_oracle(row_calls, m):
    times, x, w, eps = row_calls["eclass_norms"]
    assert eclass_norms(times, x, w, eps, m) \
        == whole_eclass_norms(times, x, w, eps, m)


def test_study_row_residual_and_limit_error_match_the_oracles(row_calls):
    args = row_calls["residual_report"]
    assert residual_report(*args) == whole_residual_report(*args)
    args = row_calls["jump_error_l2"]
    assert jump_error_l2(*args) == whole_jump_error_l2(*args)


@pytest.mark.parametrize("m", [1, 2])
def test_an_eps_row_holds_few_space_time_fields(jump_data, jump_pieces,
                                                study_cfg, m):
    """Above its entry, one row peaks below five (nt, nx, 3) fields; the
    whole-array diagnostics took 10 (13 at m = 2)."""
    cfg = replace(study_cfg, eclass_m=m)
    eps = 0.1
    nt = knot_times(jump_pieces.T_used, cfg.dt_knot).size
    field = nt * make_epsilon_grid(eps, cfg.cells_per_eps).n * 3 * 8
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    entry = tracemalloc.get_traced_memory()[0]
    try:
        expansion._epsilon_row((jump_pieces, jump_data, eps, cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    assert peak - entry <= 5 * field
