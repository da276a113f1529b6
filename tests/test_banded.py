"""The banded kernel with scalar couplings, pinned against dense linear
algebra, and the one solve path of all three marches."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from llx import banded, boundary_layer, full_model, internal_layer
from llx.banded import (
    block_tridiag_solve,
    cross,
    cross_matrix,
    dot3,
    inv_id_plus_cross,
    norm3,
)
from llx.errors import SolverAbort
from llx.geometry import make_profile_grid, make_wall_grid, time_grid


def _dense(lower, B, upper):
    """The assembled matrix: B[i] on the diagonal, lower[i] I and
    upper[i] I coupling node i to nodes i - 1 and i + 1."""
    n = B.shape[0]
    M = np.zeros((3 * n, 3 * n))
    eye = np.eye(3)
    for i in range(n):
        M[3 * i:3 * i + 3, 3 * i:3 * i + 3] = B[i]
        if i > 0:
            M[3 * i:3 * i + 3, 3 * (i - 1):3 * i] = lower[i] * eye
        if i < n - 1:
            M[3 * i:3 * i + 3, 3 * (i + 1):3 * (i + 2)] = upper[i] * eye
    return M


def _system(rng, n, coupling=0.5, shift=4.0):
    lower = coupling * rng.normal(size=n)
    upper = coupling * rng.normal(size=n)
    B = rng.normal(size=(n, 3, 3)) + shift * np.eye(3)
    return lower, B, upper, rng.normal(size=(n, 3))


@pytest.mark.parametrize("shape_a, shape_b", [
    ((1089, 3), (1089, 3)),
    ((8, 600, 3), (8, 600, 3)),
    ((3,), (50, 3)),
    ((50, 3), (3,)),
])
def test_cross_is_bitwise_np_cross(shape_a, shape_b):
    rng = np.random.default_rng(30)
    a = rng.normal(size=shape_a)
    b = rng.normal(size=shape_b)
    np.testing.assert_array_equal(cross(a, b), np.cross(a, b))


@pytest.mark.parametrize("shape", [(3,), (0, 3), (1125, 3), (8, 600, 3)])
def test_norm3_is_bitwise_np_linalg_norm(shape):
    rng = np.random.default_rng(33)
    a = rng.normal(size=shape)
    # zero rows, and rows whose squares are subnormal or near overflow
    rows = a.reshape(-1, 3)
    rows[1::5] = 0.0
    rows[2::5] *= 1e-160
    rows[3::5] *= 1e150
    np.testing.assert_array_equal(norm3(a), np.linalg.norm(a, axis=-1))


# every float, and the values where a reduction's order shows: signed
# zeros, subnormals, overflow, infinities and NaN
_FLOATS = st.floats(width=64) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e200, -1e200, np.inf, -np.inf,
     np.nan])


@settings(max_examples=300, deadline=None)
@given(lead=st.sampled_from([(), (1,), (2, 5), (4, 3)]),
       layout=st.sampled_from(["contiguous", "strided", "transposed"]),
       data=st.data())
def test_dot3_is_bitwise_np_sum(lead, layout, data):
    # strided: every other entry of a larger array on every axis;
    # transposed: the components are the slowest axis in memory
    def field():
        if layout == "contiguous":
            return data.draw(arrays(np.float64, lead + (3,),
                                    elements=_FLOATS))
        if layout == "strided":
            raw = data.draw(arrays(np.float64,
                                   tuple(2 * n for n in lead) + (6,),
                                   elements=_FLOATS))
            return raw[(slice(None, None, 2),) * raw.ndim]
        raw = data.draw(arrays(np.float64, (3,) + lead, elements=_FLOATS))
        return np.moveaxis(raw, 0, -1)

    a, b = field(), field()
    with np.errstate(all="ignore"):
        want = np.asarray(np.sum(a * b, axis=-1))
        got = np.asarray(dot3(a, b))
    assert got.shape == want.shape == lead
    # every number bit for bit, signed zeros included; a NaN only in
    # place, since IEEE 754 leaves its sign and payload to the hardware,
    # which keeps one operand's (an order numpy's compiled loops differ in)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def test_cross_matrix_action():
    rng = np.random.default_rng(31)
    a = rng.normal(size=(40, 3))
    v = rng.normal(size=(40, 3))
    mats = cross_matrix(a)
    direct = np.cross(a, v)
    via_matrix = np.einsum("nij,nj->ni", mats, v)
    assert np.allclose(via_matrix, direct, atol=1e-15)
    # antisymmetry
    assert np.allclose(mats, -np.swapaxes(mats, -1, -2))


def test_inv_id_plus_cross():
    rng = np.random.default_rng(32)
    a = rng.normal(size=(30, 3)) * rng.uniform(0.1, 5.0, size=(30, 1))
    inv = inv_id_plus_cross(a)
    eye = np.eye(3)
    M = eye + cross_matrix(a)
    prod = np.einsum("nij,njk->nik", inv, M)
    assert np.allclose(prod, np.broadcast_to(eye, prod.shape), atol=1e-13)
    # also against numpy's generic inverse
    assert np.allclose(inv, np.linalg.inv(M), atol=1e-12)
    # any leading shape, one vector alone included
    np.testing.assert_array_equal(inv_id_plus_cross(a[7]), inv[7])
    np.testing.assert_array_equal(
        inv_id_plus_cross(a.reshape(5, 6, 3)), inv.reshape(5, 6, 3, 3))


def test_block_solve_matches_dense_solve():
    rng = np.random.default_rng(34)
    for n in (1, 2, 25, 400):
        lower, B, upper, rhs = _system(rng, n)
        x = block_tridiag_solve(lower, B, upper, rhs)
        x_dense = np.linalg.solve(_dense(lower, B, upper),
                                  rhs.reshape(-1)).reshape(n, 3)
        assert np.max(np.abs(x - x_dense)) \
            <= 1e-12 * np.max(np.abs(x_dense)), n


def test_block_solve_residual():
    # the shape of the marches' systems: a premultiplied diffusion row,
    # couplings the size of the diagonal
    rng = np.random.default_rng(35)
    n = 50
    v = rng.normal(size=(n, 3))
    w = rng.uniform(10.0, 100.0, size=n)
    B = inv_id_plus_cross(v) + (2.0 * w)[:, None, None] * np.eye(3)
    rhs = rng.normal(size=(n, 3))
    x = block_tridiag_solve(-w, B, -w, rhs)
    res = _dense(-w, B, -w) @ x.reshape(-1) - rhs.reshape(-1)
    assert np.max(np.abs(res)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(ncols=st.integers(1, 5), ny=st.integers(3, 14),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_columns_solve_as_one_system(ncols, ny, seed):
    # strictly diagonally dominant columns, each closed by identity rows
    # at both ends, so stacking them couples nothing
    rng = np.random.default_rng(seed)
    lower = rng.uniform(-0.5, 0.5, size=(ncols, ny))
    upper = rng.uniform(-0.5, 0.5, size=(ncols, ny))
    B = rng.uniform(-0.5, 0.5, size=(ncols, ny, 3, 3)) \
        + (5.0 + rng.uniform(size=(ncols, ny, 1, 1))) * np.eye(3)
    for row in (0, ny - 1):
        lower[:, row] = 0.0
        upper[:, row] = 0.0
        B[:, row] = np.eye(3)
    rhs = rng.normal(size=(ncols, ny, 3))
    stacked = block_tridiag_solve(lower, B, upper, rhs)
    per_column = np.stack([block_tridiag_solve(lower[k], B[k], upper[k],
                                               rhs[k])
                           for k in range(ncols)])
    assert np.array_equal(stacked, per_column)
    dense = _dense(lower.reshape(-1), B.reshape(-1, 3, 3), upper.reshape(-1))
    x_dense = np.linalg.solve(dense, rhs.reshape(-1)).reshape(stacked.shape)
    assert np.max(np.abs(stacked - x_dense)) \
        <= 1e-12 * np.max(np.abs(x_dense))


def _nine_way_band(lower, B, upper):
    """dgbsv's (10, 3N) band written one block entry at a time, the
    couplings broadcast over the components."""
    nodes = np.zeros(B.shape[:-2] + (3, 10))
    for r in range(3):
        for c in range(3):
            nodes[..., c, 6 + r - c] = B[..., r, c]
    nodes[..., 1:, :, 3] = upper[..., :-1, None]
    nodes[..., :-1, :, 9] = lower[..., 1:, None]
    return nodes.reshape(-1, 10).T


@pytest.mark.parametrize("rows, couplings", [
    ((40,), (40,)), ((4, 9), (9,)), ((4, 9), (4, 9)),
    ((2, 3, 7), (7,)), ((2, 3, 7), (2, 3, 7))])
def test_band_matches_the_nine_way_assembly(rows, couplings, monkeypatch):
    rng = np.random.default_rng(40)
    lower = rng.normal(size=couplings)
    upper = rng.normal(size=couplings)
    B = rng.normal(size=rows + (3, 3)) + 4.0 * np.eye(3)
    rhs = rng.normal(size=rows + (3,))
    bands = []
    solve = banded.dgbsv

    def recorded(kl, ku, ab, b, **kwargs):
        bands.append(np.array(ab))
        return solve(kl, ku, ab, b, **kwargs)

    monkeypatch.setattr(banded, "dgbsv", recorded)
    block_tridiag_solve(lower, B, upper, rhs)
    assert len(bands) == 1
    assert bands[0].tobytes() == _nine_way_band(lower, B, upper).tobytes()


def test_shared_couplings_never_cross_columns():
    # (n,) couplings broadcast over the columns, every column's
    # lower[0] and upper[-1] nonzero: the kernel ignores both, so no
    # column couples to its neighbours in the stack
    rng = np.random.default_rng(39)
    ncols, n = 4, 9
    lower, _, upper, _ = _system(rng, n)
    assert lower[0] != 0.0 and upper[-1] != 0.0
    B = rng.normal(size=(ncols, n, 3, 3)) + 4.0 * np.eye(3)
    rhs = rng.normal(size=(ncols, n, 3))
    stacked = block_tridiag_solve(lower, B, upper, rhs)
    assert stacked.shape == (ncols, n, 3)
    for k in range(ncols):
        assert np.array_equal(stacked[k],
                              block_tridiag_solve(lower, B[k], upper, rhs[k]))
        x_dense = np.linalg.solve(_dense(lower, B[k], upper),
                                  rhs[k].reshape(-1)).reshape(n, 3)
        assert np.max(np.abs(stacked[k] - x_dense)) \
            <= 1e-12 * np.max(np.abs(x_dense))


def test_non_finite_solution_aborts():
    n = 6
    for where in ("lower", "B", "upper", "rhs"):
        args = {"lower": np.full(n, -0.5),
                "B": np.broadcast_to(2.0 * np.eye(3), (n, 3, 3)).copy(),
                "upper": np.full(n, -0.5), "rhs": np.ones((n, 3))}
        args[where].flat[4] = np.nan
        with pytest.raises(SolverAbort,
                           match="18 unknowns returned non-finite"):
            block_tridiag_solve(**args)


def test_singular_matrix_aborts():
    # a zero diagonal block on an uncoupled node: LAPACK finds a zero
    # pivot, which is a solver failure (exit 3), not a bad config
    n = 5
    B = np.broadcast_to(2.0 * np.eye(3), (n, 3, 3)).copy()
    B[3] = 0.0
    with pytest.raises(SolverAbort, match="15 unknowns is singular"):
        block_tridiag_solve(np.zeros(n), B, np.zeros(n), np.ones((n, 3)))


def test_shape_mismatch_rejected():
    for shapes in [((4,), (5, 3, 3), (5,), (5, 3)),
                   ((5,), (5, 3, 3), (5, 3, 3), (5, 3)),
                   ((5,), (5, 3), (5,), (5, 3)),
                   ((5,), (5, 3, 3), (5,), (15,))]:
        named = ", ".join(map(str, shapes))
        with pytest.raises(ValueError, match=re.escape(f"got {named}")):
            block_tridiag_solve(*map(np.zeros, shapes))


def test_solvers_deterministic():
    rng = np.random.default_rng(37)
    args = _system(rng, 12, coupling=0.1, shift=2.0)
    kept = [arr.copy() for arr in args]
    x1 = block_tridiag_solve(*args)
    for arr, copy in zip(args, kept):
        np.testing.assert_array_equal(arr, copy)
    x2 = block_tridiag_solve(*kept)
    assert np.array_equal(x1, x2)


# --- one solve path: every march hands the kernel scalar couplings ---

def test_every_march_passes_scalar_couplings(monkeypatch):
    calls = {}
    for module in (full_model, internal_layer, boundary_layer):
        name = module.__name__.rsplit(".", 1)[-1]
        calls[name] = []

        def recorded(lower, B, upper, rhs, solve=module.block_tridiag_solve,
                     seen=calls[name]):
            seen.append((np.ndim(lower), np.ndim(upper), np.shape(B)))
            return solve(lower, B, upper, rhs)

        monkeypatch.setattr(module, "block_tridiag_solve", recorded)

    rng = np.random.default_rng(38)
    grid = full_model.make_epsilon_grid(0.1, cells_per_eps=8)
    u = full_model.project_sphere(rng.normal(size=(grid.n, 3)))
    cfg = full_model.FullModelConfig(epsilon=0.1, dt=1e-3, T=1e-3,
                                     drift_tol=1e-3)
    full_model.step_full(u, u, 0.0, 1e-3, full_model._Workspace(grid), cfg)

    y = make_profile_grid(Y=6.0, cells=16)
    times = time_grid(0.01, dt=5e-3)[:3]
    levels = (times.size, y.size, 3)
    (minus, _), (plus, _) = internal_layer.halves(y.size)
    internal_layer._sweep(y, times, np.zeros(levels[1:]),
                          rng.normal(size=levels),
                          rng.normal(size=levels)[:, minus],
                          rng.normal(size=levels)[:, plus])

    z = make_wall_grid(Z=12.0, cells=16)
    times = time_grid(0.01, dt=5e-3)
    boundary_layer.march_wall(z, times, rng.normal(size=(times.size, 2, 3)),
                              rng.normal(size=(times.size, 2, 3)))

    for name, seen in calls.items():
        assert seen, f"{name} made no solve"
        assert all(nd_lo == nd_up == 1 and B[-2:] == (3, 3)
                   for nd_lo, nd_up, B in seen), (name, seen[:3])
