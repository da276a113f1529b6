"""Spline sampling of layer profiles onto solver grids.

The layer profiles live on their own stretched meshes (y for the
transmission layer, z for the wall layer). A solver node x needs the
profile at its own stretched coordinate (y = x/eps or z = (1 - |x|)/eps).
The natural spline in the stretched direction is fitted once on the
stored columns (one shared knot set, many right-hand sides, a single
banded solve) and every column is evaluated at every node's stretched
coordinate. The wall layer also lives on the coarse parameter mesh in
x, and its values are then contracted with the cardinal x-weights of
the node (the cubic x-resample of an identity matrix): both steps are
linear in the data, so they commute.

Contains:
- natural_spline_coeffs: second derivatives of the natural cubic spline
- spline_eval: evaluate every batch column at every query point
- contract_columns: weighted sum over parameter columns, in fixed order
- x_resample: the natural cubic spline along the first axis, evaluated
  on new nodes
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded


def natural_spline_coeffs(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Second derivatives m of the natural cubic spline through v.

    x (nk,) strictly increasing knots, v (nk, ...) values with any
    batch shape trailing; the tridiagonal system is solved once for all
    batch columns. m has the shape of v with m[0] = m[-1] = 0.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 3:
        raise ValueError(f"need at least 3 knots, got shape {x.shape}")
    h = np.diff(x)
    if np.any(h <= 0):
        raise ValueError("knots must be strictly increasing")
    if v.shape[0] != x.size:
        raise ValueError(
            f"values have {v.shape[0]} rows for {x.size} knots")
    nk = x.size
    flat = v.reshape(nk, -1)
    slope = np.diff(flat, axis=0) / h[:, None]
    rhs = np.zeros_like(flat)
    rhs[1:-1] = slope[1:] - slope[:-1]
    ab = np.zeros((3, nk))
    ab[0, 2:] = h[1:] / 6.0
    ab[1, 0] = 1.0
    ab[1, -1] = 1.0
    ab[1, 1:-1] = (h[:-1] + h[1:]) / 3.0
    ab[2, :-2] = h[:-1] / 6.0
    m = solve_banded((1, 1), ab, rhs)
    return m.reshape(v.shape)


def spline_eval(x: np.ndarray, v: np.ndarray, m: np.ndarray,
                q: np.ndarray) -> np.ndarray:
    """Evaluate every batch column of the spline at every query point.

    v, m (nk, ...) as from natural_spline_coeffs, q (nq,) query points
    inside [x[0], x[-1]]. Returns (nq, ...): entry i is the whole batch
    evaluated at q[i]. Each entry is an elementwise combination of four
    knot rows, so it does not depend on the other columns or queries.
    """
    x = np.asarray(x, dtype=float)
    q = np.asarray(q, dtype=float)
    if v.shape != m.shape or v.shape[0] != x.size or q.ndim != 1:
        raise ValueError(
            f"shape mismatch: x {x.shape}, v {v.shape}, m {m.shape}, "
            f"q {q.shape}")
    lo, hi = x[0], x[-1]
    span = hi - lo
    if np.any(q < lo - 1e-12 * span) or np.any(q > hi + 1e-12 * span):
        raise ValueError(
            f"query points leave [{lo:g}, {hi:g}]: "
            f"[{q.min():g}, {q.max():g}]")
    qc = np.clip(q, lo, hi)
    j = np.clip(np.searchsorted(x, qc, side="right") - 1, 0, x.size - 2)
    h = x[j + 1] - x[j]
    tl = x[j + 1] - qc
    tr = qc - x[j]
    shape = (q.size,) + (1,) * (v.ndim - 1)
    wl = (tl / h).reshape(shape)
    wr = (tr / h).reshape(shape)
    cl = ((tl ** 3 / h - h * tl) / 6.0).reshape(shape)
    cr = ((tr ** 3 / h - h * tr) / 6.0).reshape(shape)
    return v[j] * wl + v[j + 1] * wr + m[j] * cl + m[j + 1] * cr


def contract_columns(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Sum of weights[:, i] * values[..., i, :] over the columns i.

    weights (nq, nc) are per-node column weights; values (..., nq, nc, c)
    hold the column data seen from each node (a length-1 node axis
    broadcasts). Returns (..., nq, c). The sum runs over i in order with
    elementwise updates, so no entry depends on the batch around it.
    """
    if weights.ndim != 2 or values.shape[-2] != weights.shape[1]:
        raise ValueError(
            f"shape mismatch: weights {weights.shape}, values "
            f"{values.shape}")
    acc = weights[:, :1] * values[..., 0, :]
    for i in range(1, weights.shape[1]):
        acc += weights[:, i:i + 1] * values[..., i, :]
    return acc


def x_resample(x_src: np.ndarray, values: np.ndarray,
               x_tgt: np.ndarray) -> np.ndarray:
    """Natural cubic resampling of values along axis 0 onto x_tgt.

    Natural suits fields that flatten toward the ends (layer profiles at
    their support edges). The fit solves one tridiagonal system for
    every batch entry at once.
    """
    x_src = np.asarray(x_src, dtype=float)
    if x_src.size != values.shape[0]:
        raise ValueError(
            f"axis 0 has {values.shape[0]} entries for {x_src.size} "
            f"source nodes")
    return CubicSpline(x_src, values, bc_type="natural")(
        np.asarray(x_tgt, dtype=float))
