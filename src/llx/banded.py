"""Banded linear algebra for 3-vector fields on a line of nodes.

Unknowns are ordered node-major, component-minor: the 3-vector at node i
occupies rows 3i..3i+2. A block-tridiagonal system with 3x3 blocks then
has scalar bandwidth 5 on each side, which scipy's solve_banded handles
directly. The band storage is written by strided slices, one per block
entry, with no index maps.

Several columns whose end rows have no off-block coupling (Dirichlet
identity rows, say) may be stacked along the node axis into one system:
the zero couplings between neighbouring columns decouple them, and the
stacked solve gives each column the same bits as its own solve.

Contains:
- cross: the product a x b of 3-vector fields, broadcast
- cross_matrix: the matrix [a]x with [a]x v = a x v, batched
- inv_id_plus_cross: closed-form inverse of I + [a]x, batched
- blocks_to_banded / block_tridiag_solve: assembly and the one solver
  of all three marches (interface, wall, full model); it raises
  SolverAbort on a non-finite result
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_banded

from .errors import SolverAbort


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the last axis, broadcast over the leading ones.

    Bitwise equal to np.cross, without its moveaxis copies.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2]
    b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    np.subtract(a2 * b3, a3 * b2, out=out[..., 0])
    np.subtract(a3 * b1, a1 * b3, out=out[..., 1])
    np.subtract(a1 * b2, a2 * b1, out=out[..., 2])
    return out


def cross_matrix(a: np.ndarray) -> np.ndarray:
    """Matrix of v -> a x v; a has shape (..., 3), result (..., 3, 3)."""
    a = np.asarray(a, dtype=float)
    out = np.zeros(a.shape + (3,))
    a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2]
    out[..., 0, 1] = -a3
    out[..., 0, 2] = a2
    out[..., 1, 0] = a3
    out[..., 1, 2] = -a1
    out[..., 2, 0] = -a2
    out[..., 2, 1] = a1
    return out


def inv_id_plus_cross(a: np.ndarray) -> np.ndarray:
    """Inverse of I + [a]x in closed form: (I - [a]x + a a^T)/(1 + |a|^2).

    I + [a]x is always invertible (eigenvalues 1, 1 +- i|a|), so no
    conditioning guard is needed.
    """
    a = np.asarray(a, dtype=float)
    eye = np.broadcast_to(np.eye(3), a.shape + (3,))
    outer = a[..., :, None] * a[..., None, :]
    denom = 1.0 + np.sum(a * a, axis=-1)[..., None, None]
    return (eye - cross_matrix(a) + outer) / denom


def blocks_to_banded(A: np.ndarray, B: np.ndarray,
                     C: np.ndarray) -> np.ndarray:
    """Pack block-tridiagonal 3x3 blocks into solve_banded storage.

    A[i] couples node i to node i-1 (A[0] ignored), B[i] is the diagonal
    block, C[i] couples node i to node i+1 (C[-1] ignored). Returns the
    (11, 3N) array for solve_banded with (l, u) = (5, 5).
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    C = np.asarray(C, dtype=float)
    n = B.shape[0]
    if A.shape != (n, 3, 3) or C.shape != (n, 3, 3) or B.shape != (n, 3, 3):
        raise ValueError(
            f"block arrays must share shape (n, 3, 3); got {A.shape}, "
            f"{B.shape}, {C.shape}")
    ab = np.zeros((11, 3 * n))
    # view (band row, node, column component): global column 3i+c
    nodes = ab.reshape(11, n, 3)
    for r in range(3):
        for c in range(3):
            # B[i] at row 3i+r, col 3i+c; A[i] at col 3(i-1)+c; C[i] at
            # col 3(i+1)+c; band row is 5 + global row - global col
            nodes[5 + r - c, :, c] = B[:, r, c]
            nodes[8 + r - c, :-1, c] = A[1:, r, c]
            nodes[2 + r - c, 1:, c] = C[:-1, r, c]
    return ab


def block_tridiag_solve(A: np.ndarray, B: np.ndarray, C: np.ndarray,
                        rhs: np.ndarray) -> np.ndarray:
    """Solve the block-tridiagonal system for a (n, 3) right-hand side.

    Raises SolverAbort when the solution is not finite (a NaN or inf
    reached the matrix or the right-hand side), so a diverged state
    ends the run instead of spreading.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.shape[0]
    ab = blocks_to_banded(A, B, C)
    sol = solve_banded((5, 5), ab, rhs.reshape(3 * n), overwrite_ab=True,
                       check_finite=False)
    if not np.isfinite(sol).all():
        raise SolverAbort(f"block-tridiagonal solve of {sol.size} unknowns "
                          f"returned non-finite values")
    return sol.reshape(n, 3)
