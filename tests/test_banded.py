"""Block-banded assembly and solves, pinned against dense linear algebra."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llx.banded import (
    block_tridiag_solve,
    blocks_to_banded,
    cross,
    cross_matrix,
    inv_id_plus_cross,
)
from llx.errors import SolverAbort


def _dense_from_blocks(A, B, C):
    n = B.shape[0]
    M = np.zeros((3 * n, 3 * n))
    for i in range(n):
        M[3 * i:3 * i + 3, 3 * i:3 * i + 3] = B[i]
        if i > 0:
            M[3 * i:3 * i + 3, 3 * (i - 1):3 * (i - 1) + 3] = A[i]
        if i < n - 1:
            M[3 * i:3 * i + 3, 3 * (i + 1):3 * (i + 1) + 3] = C[i]
    return M


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


def test_banded_layout_matches_dense():
    rng = np.random.default_rng(33)
    n = 7
    A = rng.normal(size=(n, 3, 3))
    B = rng.normal(size=(n, 3, 3)) + 4.0 * np.eye(3)
    C = rng.normal(size=(n, 3, 3))
    ab = blocks_to_banded(A, B, C)
    assert ab.shape == (11, 3 * n)
    dense = _dense_from_blocks(A, B, C)
    # reconstruct the dense matrix from the band storage and compare
    rebuilt = np.zeros_like(dense)
    for j in range(3 * n):
        for i in range(max(0, j - 5), min(3 * n, j + 6)):
            rebuilt[i, j] = ab[5 + i - j, j]
    assert np.array_equal(rebuilt, dense)


def test_block_solve_matches_dense_solve():
    rng = np.random.default_rng(34)
    n = 25
    A = 0.3 * rng.normal(size=(n, 3, 3))
    C = 0.3 * rng.normal(size=(n, 3, 3))
    B = rng.normal(size=(n, 3, 3)) + 5.0 * np.eye(3)
    rhs = rng.normal(size=(n, 3))
    x = block_tridiag_solve(A, B, C, rhs)
    dense = _dense_from_blocks(A, B, C)
    x_dense = np.linalg.solve(dense, rhs.reshape(-1)).reshape(n, 3)
    assert np.allclose(x, x_dense, atol=1e-11)


def test_block_solve_residual():
    rng = np.random.default_rng(35)
    n = 50
    A = 0.2 * rng.normal(size=(n, 3, 3))
    C = 0.2 * rng.normal(size=(n, 3, 3))
    B = np.broadcast_to(np.eye(3), (n, 3, 3)) * 3.0 + 0.2 * rng.normal(
        size=(n, 3, 3))
    rhs = rng.normal(size=(n, 3))
    x = block_tridiag_solve(A, B, C, rhs)
    dense = _dense_from_blocks(A, B, C)
    res = dense @ x.reshape(-1) - rhs.reshape(-1)
    assert np.max(np.abs(res)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(ncols=st.integers(1, 5), ny=st.integers(3, 14),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_columns_solve_as_one_system(ncols, ny, seed):
    # strictly diagonally dominant columns, each closed by identity rows
    # at both ends, so stacking them couples nothing
    rng = np.random.default_rng(seed)
    shape = (ncols, ny, 3, 3)
    A = rng.uniform(-0.5, 0.5, size=shape)
    C = rng.uniform(-0.5, 0.5, size=shape)
    B = rng.uniform(-0.5, 0.5, size=shape) \
        + (5.0 + rng.uniform(size=(ncols, ny, 1, 1))) * np.eye(3)
    for row in (0, ny - 1):
        A[:, row] = 0.0
        C[:, row] = 0.0
        B[:, row] = np.eye(3)
    rhs = rng.normal(size=(ncols, ny, 3))
    stacked = block_tridiag_solve(A.reshape(-1, 3, 3), B.reshape(-1, 3, 3),
                                  C.reshape(-1, 3, 3), rhs.reshape(-1, 3))
    per_column = np.concatenate([block_tridiag_solve(A[k], B[k], C[k],
                                                     rhs[k])
                                 for k in range(ncols)])
    assert np.array_equal(stacked, per_column)
    dense = _dense_from_blocks(A.reshape(-1, 3, 3), B.reshape(-1, 3, 3),
                               C.reshape(-1, 3, 3))
    x_dense = np.linalg.solve(dense, rhs.reshape(-1)).reshape(-1, 3)
    assert np.max(np.abs(stacked - x_dense)) \
        <= 1e-10 * np.max(np.abs(x_dense))


def test_non_finite_solution_aborts():
    n = 6
    A = np.zeros((n, 3, 3))
    B = np.broadcast_to(2.0 * np.eye(3), (n, 3, 3)).copy()
    rhs = np.ones((n, 3))
    rhs[2, 1] = np.nan
    with pytest.raises(SolverAbort, match="18 unknowns"):
        block_tridiag_solve(A, B, A, rhs)


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="share shape"):
        blocks_to_banded(np.zeros((4, 3, 3)), np.zeros((5, 3, 3)),
                         np.zeros((5, 3, 3)))


def test_solvers_deterministic():
    rng = np.random.default_rng(37)
    n = 12
    A = 0.1 * rng.normal(size=(n, 3, 3))
    C = 0.1 * rng.normal(size=(n, 3, 3))
    B = np.broadcast_to(np.eye(3), (n, 3, 3)).copy() * 2.0
    rhs = rng.normal(size=(n, 3))
    x1 = block_tridiag_solve(A, B, C, rhs)
    x2 = block_tridiag_solve(A.copy(), B.copy(), C.copy(), rhs.copy())
    assert np.array_equal(x1, x2)
