"""Banded linear algebra for 3-vector fields on a line of nodes.

Every march of the slab problem solves a system of the form

    w_i - s M_i (a_i w_{i-1} + b_i w_i + c_i w_{i+1}) = r_i,
    M_i = I + [v_i]x,

a 3-point stencil times a 3x3 matrix per node (the wall layer adds a
reaction matrix to the diagonal). Each march multiplies block row i by
M_i^-1, which inv_id_plus_cross gives in closed form, so the
neighbour couplings become the scalars -s a_i and -s c_i times the
identity and only the diagonal block B_i = M_i^-1 - s b_i I stays a
full 3x3. The premultiplied system has the same solution, and it is
safe to factor: M^-1 has symmetric part at least I/(1 + |v|^2), and
b_i = -(a_i + c_i) on the diffusion rows, so the symmetric part of
B_i exceeds the couplings' total weight s(a_i + c_i) by at least
I/(1 + |v|^2) and the solution is bounded by (1 + |v|^2) times the
right-hand side in the max norm (the wall's reaction term aside).
Unpremultiplied, the couplings s a_i M_i and s c_i M_i, of norm
(1 + |v|^2)^(1/2) times their weight, outweigh the diagonal once
s |b_i| is large and v is not small.

Unknowns are ordered node-major, component-minor: the 3-vector at node
i occupies rows 3i..3i+2. Scalar couplings keep the scalar bandwidth
at 3 on each side (5 with full 3x3 couplings), so the band is 7 rows:
the five diagonals of the 3x3 blocks and one row of couplings on each
side. LAPACK's dgbsv takes it under 3 workspace rows. Each node's 3x3
block lands in the band by one assignment through a strided window,
and each coupling row by one strided slice per component: no index
maps, and no loop over the 3 components broadcast from (n, 1). This
is the one solver of the three marches: each goes through
block_tridiag_solve.

The solver takes a stack of such systems, one per column, along any
leading axes, and solves them in one LAPACK call. It never couples one
column to the next, so every column gets the bits of its own solve.

Contains:
- cross: the product a x b of 3-vector fields, broadcast
- dot3: the product a . b of 3-vector fields, broadcast; every
  reduction over the component axis goes through it
- norm3: the Euclidean length of each 3-vector of a field
- cross_matrix: the matrix [a]x with [a]x v = a x v, batched
- inv_id_plus_cross: closed-form inverse of I + [a]x, batched
- block_tridiag_solve: the one solver of all three marches
  (interface, wall, full model), over stacked columns; it raises
  SolverAbort on a singular matrix or a non-finite result
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgbsv

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


def dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b over the last axis of length 3, broadcast over the leading
    ones: a1 b1 + a2 b2 + a3 b3, summed left to right.

    Bitwise equal to np.sum(a * b, axis=-1), which adds the length-3
    axis in the same order onto its identity +0.0, at a fraction of its
    general reduction's cost; a NaN lands in the same place, though its
    sign and payload may differ. The closing + 0.0 is that identity: it
    turns a sum of three -0.0 into +0.0 and leaves every other value as
    it is.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = a[..., 0] * b[..., 0]
    out += a[..., 1] * b[..., 1]
    out += a[..., 2] * b[..., 2]
    out += 0.0
    return out


def norm3(a: np.ndarray) -> np.ndarray:
    """|a| over the last axis of length 3, shape a.shape[:-1].

    Bitwise equal to np.linalg.norm(a, axis=-1), without its general
    reduction.
    """
    return np.sqrt(dot3(a, a))


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
    conditioning guard is needed. Written entry by entry; a has shape
    (..., 3), the result (..., 3, 3).
    """
    a = np.asarray(a, dtype=float)
    a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2]
    s1, s2, s3 = a1 * a1, a2 * a2, a3 * a3
    p12, p13, p23 = a1 * a2, a1 * a3, a2 * a3
    out = np.empty(a.shape + (3,))
    np.add(1.0, s1, out=out[..., 0, 0])
    np.add(a3, p12, out=out[..., 0, 1])
    np.subtract(p13, a2, out=out[..., 0, 2])
    np.subtract(p12, a3, out=out[..., 1, 0])
    np.add(1.0, s2, out=out[..., 1, 1])
    np.add(a1, p23, out=out[..., 1, 2])
    np.add(a2, p13, out=out[..., 2, 0])
    np.subtract(p23, a1, out=out[..., 2, 1])
    np.add(1.0, s3, out=out[..., 2, 2])
    out /= (1.0 + (s1 + s2 + s3))[..., None, None]
    return out


def block_tridiag_solve(lower: np.ndarray, B: np.ndarray,
                        upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve stacked systems with scalar couplings; returns (..., n, 3).

    Row i of each column reads
    lower[i] w[i-1] + B[i] w[i] + upper[i] w[i+1] = rhs[i]: B holds the
    (..., n, 3, 3) diagonal blocks, rhs is (..., n, 3), and the scalar
    couplings are (n,), shared by every column, or (..., n). Each
    column's lower[0] and upper[-1] are ignored. Raises SolverAbort
    when the matrix is singular or the solution is not finite (a NaN
    or inf reached the matrix or the right-hand side), so a diverged
    state ends the run instead of spreading.
    """
    lower = np.asarray(lower, dtype=float)
    B = np.asarray(B, dtype=float)
    upper = np.asarray(upper, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    rows = rhs.shape[:-1]
    if (rhs.ndim < 2 or rhs.shape[-1] != 3 or B.shape != rhs.shape + (3,)
            or lower.shape not in (rows[-1:], rows)
            or upper.shape not in (rows[-1:], rows)):
        raise ValueError(
            f"need lower and upper (n,) or (..., n), B (..., n, 3, 3) and "
            f"rhs (..., n, 3); "
            f"got {lower.shape}, {B.shape}, {upper.shape}, {rhs.shape}")
    # dgbsv's (10, 3N) Fortran band seen per band column 3i+c as
    # nodes[..., i, c]: entry (row, col) sits at band row 6 + row - col,
    # rows 0-2 are LAPACK's workspace. Block entry (r, c) of node i is
    # then slot 6 + 9c + r of the node's 30, so the blocks land through
    # one (3, 3) window of stride (9, 1) per node
    nodes = np.zeros(rows + (3, 10))
    step = nodes.itemsize
    slots = np.ndarray(rows + (3, 3), buffer=nodes, offset=6 * step,
                       strides=nodes.strides[:-2] + (9 * step, step))
    slots[...] = np.swapaxes(B, -1, -2)
    for c in range(3):
        nodes[..., 1:, c, 3] = upper[..., :-1]
        nodes[..., :-1, c, 9] = lower[..., 1:]
    size = rhs.size
    _, _, sol, info = dgbsv(3, 3, nodes.reshape(size, 10).T,
                            rhs.reshape(size), overwrite_ab=True)
    if info > 0:
        raise SolverAbort(f"block-tridiagonal system of {size} unknowns "
                          f"is singular (zero pivot in row {info})")
    if not np.isfinite(sol).all():
        raise SolverAbort(f"block-tridiagonal solve of {size} unknowns "
                          f"returned non-finite values")
    return sol.reshape(rhs.shape)
