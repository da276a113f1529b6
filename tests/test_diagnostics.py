"""The diagnostics walk the knots in blocks: each must equal its
whole-array evaluation (manufactured.whole_*) bit for bit. One eps row
of the study, one walk over knot blocks, must equal the row built on
whole space-time fields (manufactured.reference_epsilon_row) bit for
bit, and hold only a few windows of levels."""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from llx import expansion
from llx.expansion import (build_expansion_pieces, eclass_norms,
                           jump_error_l2)
from llx.full_model import make_epsilon_grid, residual_report
from llx.geometry import LEVEL_BLOCK, knot_times, level_blocks

import manufactured
from manufactured import (full_model_solution, reference_epsilon_row,
                          whole_eclass_norms, whole_jump_error_l2,
                          whole_residual_report)


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


# --- one eps row of the study ---

@pytest.fixture(scope="module")
def short_pieces(jump_data, study_cfg):
    """Jump pieces on LEVEL_BLOCK + 1 knots: the last level block holds
    one knot, fewer than the halo of 2 at m = 2."""
    return build_expansion_pieces(
        jump_data, replace(study_cfg, T=LEVEL_BLOCK * study_cfg.dt_knot))


@pytest.mark.parametrize("name, eps, m", [
    (name, eps, m) for name in ("jump", "swirl") for eps in (0.1, 0.0125)
    for m in (1, 2)] + [("short", 0.1, 2)])
def test_streamed_row_matches_the_reference_row(name, eps, m, request,
                                                study_cfg):
    pieces = request.getfixturevalue(f"{name}_pieces")
    cfg = replace(study_cfg, eclass_m=m)
    if name == "short":
        assert knot_times(pieces.T_used, cfg.dt_knot).size % LEVEL_BLOCK \
            == 1
    task = (pieces, eps, cfg)
    assert expansion._epsilon_row(task) == reference_epsilon_row(task)


@pytest.fixture(scope="module", params=["jump", "swirl"])
def row_calls(request, study_cfg):
    """The whole-array arguments each diagnostic got in the reference
    eps = 0.1 row, with the task that built them."""
    pieces = request.getfixturevalue(f"{request.param}_pieces")
    task = (pieces, 0.1, study_cfg)
    calls = {"task": task}

    def record(name):
        original = getattr(manufactured, f"whole_{name}")

        def run(*args, **kwargs):
            calls[name] = args
            return original(*args, **kwargs)
        return run

    with pytest.MonkeyPatch.context() as patch:
        for name in ("residual_report", "jump_error_l2", "eclass_norms"):
            patch.setattr(manufactured, f"whole_{name}", record(name))
        reference_epsilon_row(task)
    return calls


@pytest.mark.parametrize("m", [1, 2])
def test_study_row_eclass_matches_the_oracle(row_calls, m):
    times, x, w, eps = row_calls["eclass_norms"][:4]
    expected = whole_eclass_norms(times, x, w, eps, m)
    assert eclass_norms(times, x, w, eps, m) == expected
    pieces, eps, cfg = row_calls["task"]
    row = expansion._epsilon_row((pieces, eps, replace(cfg, eclass_m=m)))
    assert (row["ec0"], row["ecm"]) == expected


def test_study_row_residual_and_limit_error_match_the_oracles(row_calls):
    row = expansion._epsilon_row(row_calls["task"])
    args = row_calls["residual_report"]
    expected = whole_residual_report(*args)
    assert residual_report(*args) == expected
    assert row["residual_l2"] == expected.l2_residual
    args = row_calls["jump_error_l2"]
    expected = whole_jump_error_l2(*args)
    assert jump_error_l2(*args) == expected
    assert row["err_l2"] == expected


def _row_peak(pieces, eps, cfg) -> int:
    """The traced heap peak of one eps row above its entry, in bytes."""
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    entry = tracemalloc.get_traced_memory()[0]
    try:
        expansion._epsilon_row((pieces, eps, cfg))
        return tracemalloc.get_traced_memory()[1] - entry
    finally:
        if started:
            tracemalloc.stop()


def _window_bytes(pieces, eps, cfg) -> int:
    """One level block with its halo on both sides, on the row's own
    grid: the unit of a row's temporaries, whatever the number of
    knots."""
    nx = pieces.grid(eps, cfg.cells_per_eps).n
    return (LEVEL_BLOCK + 2 * max(cfg.eclass_m, 1)) * nx * 3 * 8


@pytest.mark.parametrize("m", [1, 2])
def test_an_eps_row_holds_few_space_time_fields(jump_pieces, study_cfg, m):
    """Above its entry, one row peaks below 11 windows of levels (a level
    block with its halo, on the row's own grid), a bound that does not
    scale with the knots; it reads about 8.9 at either m. The row built
    on whole (nt, nx, 3) fields peaked near 36 windows here (32 at
    m = 2), one that kept each window until the next was built near 12
    (13.4 at m = 2), and one whose conormal walk held every derivative
    of a block near 11 at m = 2. The row holds no trajectory, so the
    peak includes the marched states it keeps."""
    cfg = replace(study_cfg, eclass_m=m)
    bound = 11 * _window_bytes(jump_pieces, 0.1, cfg)
    assert _row_peak(jump_pieces, 0.1, cfg) <= bound


def test_an_eps_row_peak_does_not_grow_with_the_horizon(jump_data,
                                                        jump_pieces,
                                                        study_cfg):
    """Doubling T doubles the knots but adds at most 64 float scalars per
    added knot to the row's traced peak (its per-knot norms), where one
    more (nt, nx) array would add 219. The march streams into the row,
    so the peak includes every marched state the row holds."""
    cfg = replace(study_cfg, eclass_m=2)
    long = build_expansion_pieces(jump_data, replace(cfg, T=2 * cfg.T))
    nt = knot_times(jump_pieces.T_used, cfg.dt_knot).size
    added = knot_times(long.T_used, cfg.dt_knot).size - nt
    assert added == nt - 1
    short = _row_peak(jump_pieces, 0.1, cfg)
    assert _row_peak(long, 0.1, cfg) - short <= added * 64 * 8
