"""Slab geometry: meshes, finite-difference stencils, the two cutoffs.

Every mesh of the slab problem is assembled the same way: cumulative
cell widths from 0, the last node pinned to the exact end, and the
two-sided meshes mirrored through 0 with the interface node once.

Contains:
- quintic_smoothstep: the C2 polynomial ramp used by every cutoff here
- nodes / mirrored: the one-sided and the mirrored node assembly
- param_nodes: the uniform parameter mesh of (-1, 1), interface 0 once
- graded_widths / make_profile_grid / make_wall_grid: the graded layer
  meshes in the stretched variables y on [-Y, Y] and z on [0, Z]
- d2_coefficients / d1_coefficients / apply_tridiagonal_stencil:
  nonuniform 3-point stencils with the Neumann walls built in
- one_sided_d1 / profile_d1: second-order first derivatives at an end
  and along a whole node axis
- theta / chi_sigma / in_v_sigma: the wall cutoff, the interface
  blending weight and the interface neighborhood, all of fixed width
- conormal_weight: weight of the vector field x(1-x^2) d/dx tangent to
  both the interface and the boundary
"""

from __future__ import annotations

import numpy as np


def quintic_smoothstep(t):
    """C2 ramp: 0 for t <= 0, 1 for t >= 1, 6t^5 - 15t^4 + 10t^3 between.

    First and second derivatives vanish at both ends, so products with it
    keep two continuous derivatives.
    """
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


# === meshes ===

def nodes(widths: np.ndarray, end: float) -> np.ndarray:
    """Nodes 0, cumsum(widths), the last one pinned to end exactly."""
    x = np.concatenate([[0.0], np.cumsum(widths)])
    x[-1] = end
    return x


def mirrored(half: np.ndarray) -> np.ndarray:
    """Nodes half (starting at 0) mirrored through 0, the 0 once."""
    return np.concatenate([-half[::-1][:-1], half])


def param_nodes(cells: int) -> np.ndarray:
    """Uniform parameter mesh of (-1, 1): cells (at least 8) per side.

    The nodes increase strictly and include -1, 0 and 1 once each.
    """
    if cells < 8:
        raise ValueError(f"cells must be at least 8, got {cells}")
    return mirrored(nodes(np.full(cells, 1.0 / cells), 1.0))


def graded_widths(length: float, cells: int) -> np.ndarray:
    """Cell widths min(w0 1.12^j, h_max) summing exactly to length.

    h_max = max(2 length / cells, 0.25), so the capped cells alone cover
    the length twice; w0 is found by bisection. The finest cells sit at
    index 0 where the fast-variable curvature concentrates.
    """
    if length <= 0.0 or cells < 8:
        raise ValueError(
            f"need length > 0 and cells >= 8, got {length}, cells={cells}")
    h_max = max(2.0 * length / cells, 0.25)
    powers = 1.12 ** np.arange(cells)

    def total(w0: float) -> float:
        return float(np.minimum(w0 * powers, h_max).sum())

    lo, hi = 1e-14, h_max
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if total(mid) < length:
            lo = mid
        else:
            hi = mid
    w = np.minimum(hi * powers, h_max)
    return w * (length / w.sum())


def make_profile_grid(Y: float, cells: int) -> np.ndarray:
    """Graded y-mesh on [-Y, Y]: the graded_widths cells on [0, Y],
    mirrored, so y = 0 sits at index cells = y.size // 2.

    The junction row of the transmission march carries an O(h) local
    consistency error, so the junction cell must stay small: at the
    study's box 15 and 128 cells the grading puts it near 4e-5 while
    the outer cells remain O(0.25).
    """
    return mirrored(nodes(graded_widths(Y, cells), Y))


def make_wall_grid(Z: float, cells: int) -> np.ndarray:
    """Graded z-mesh on [0, Z] (graded_widths), finest at the wall z = 0."""
    return nodes(graded_widths(Z, cells), Z)


# === stencils ===

def d2_coefficients(x: np.ndarray):
    """Nonuniform 3-point second-derivative weights (a, b, c).

    Row i applies a[i] u[i-1] + b[i] u[i] + c[i] u[i+1]. The wall rows
    fold in the mirrored Neumann ghost (u[-1] = u[1] at equal spacing),
    so a[0] = c[-1] = 0 and the zero-flux condition is built in.
    """
    x = np.asarray(x, dtype=float)
    h = np.diff(x)
    a = np.zeros_like(x)
    b = np.zeros_like(x)
    c = np.zeros_like(x)
    hm, hp = h[:-1], h[1:]
    a[1:-1] = 2.0 / (hm * (hm + hp))
    c[1:-1] = 2.0 / (hp * (hm + hp))
    b[1:-1] = -(a[1:-1] + c[1:-1])
    c[0] = 2.0 / h[0] ** 2
    b[0] = -c[0]
    a[-1] = 2.0 / h[-1] ** 2
    b[-1] = -a[-1]
    return a, b, c


def d1_coefficients(x: np.ndarray):
    """Nonuniform centered first-derivative weights (a, b, c).

    Wall rows are zero: under the mirrored ghost the centered derivative
    at the walls vanishes identically, which is the boundary condition.
    """
    x = np.asarray(x, dtype=float)
    h = np.diff(x)
    a = np.zeros_like(x)
    b = np.zeros_like(x)
    c = np.zeros_like(x)
    hm, hp = h[:-1], h[1:]
    a[1:-1] = -hp / (hm * (hm + hp))
    c[1:-1] = hm / (hp * (hm + hp))
    b[1:-1] = -(a[1:-1] + c[1:-1])
    return a, b, c


def apply_tridiagonal_stencil(coeffs, u: np.ndarray) -> np.ndarray:
    """Apply 3-point weights (a, b, c) along axis 0 of u, shape (n, ...)."""
    a, b, c = coeffs
    out = b.reshape(-1, *([1] * (u.ndim - 1))) * u
    out[1:] += a[1:].reshape(-1, *([1] * (u.ndim - 1))) * u[:-1]
    out[:-1] += c[:-1].reshape(-1, *([1] * (u.ndim - 1))) * u[1:]
    return out


def one_sided_d1(x: np.ndarray, u: np.ndarray, end: str) -> np.ndarray:
    """Second-order one-sided first derivative at an endpoint of axis 0.

    Evaluated on telescoped differences, so constant data returns an
    exact zero rather than rounding noise.
    """
    x = np.asarray(x, dtype=float)
    if end == "left":
        h1 = x[1] - x[0]
        h2 = x[2] - x[1]
        return ((2 * h1 + h2) / (h1 * (h1 + h2)) * (u[1] - u[0])
                - h1 / (h2 * (h1 + h2)) * (u[2] - u[1]))
    h1 = x[-1] - x[-2]
    h2 = x[-2] - x[-3]
    return ((2 * h1 + h2) / (h1 * (h1 + h2)) * (u[-1] - u[-2])
            - h1 / (h2 * (h1 + h2)) * (u[-2] - u[-3]))


def profile_d1(y: np.ndarray, W: np.ndarray) -> np.ndarray:
    """d/dy along axis -2 of W (..., ny, 3): centered interior,
    second-order one-sided at both ends. Telescoped differences, so
    constant data returns an exact zero."""
    Wm = np.moveaxis(W, -2, 0)
    out = np.empty_like(Wm)
    h = np.diff(y)
    shape = (-1,) + (1,) * (Wm.ndim - 1)
    hm = h[:-1].reshape(shape)
    hp = h[1:].reshape(shape)
    out[1:-1] = (hm / (hp * (hm + hp)) * (Wm[2:] - Wm[1:-1])
                 + hp / (hm * (hm + hp)) * (Wm[1:-1] - Wm[:-2]))
    out[0] = one_sided_d1(y, Wm, "left")
    out[-1] = one_sided_d1(y, Wm, "right")
    return np.moveaxis(out, 0, -2)


# === the two neighborhoods and their cutoffs ===

# the interface neighborhood |x| < 0.35 and the disjoint wall
# neighborhood 1 - |x| < 0.25, whose cutoff is 1 on 1 - |x| <= 0.125
V_SIGMA_HALFWIDTH = 0.35
V_GAMMA_WIDTH = 0.25
THETA_INNER = 0.125


def theta(x):
    """Wall cutoff: 1 where 1 - |x| <= THETA_INNER, 0 where
    1 - |x| >= V_GAMMA_WIDTH, C2 in between."""
    t = (1.0 - np.abs(x) - THETA_INNER) / (V_GAMMA_WIDTH - THETA_INNER)
    return 1.0 - quintic_smoothstep(t)


def chi_sigma(x):
    """Interface blending weight: 1 at x = 0, 0 outside the neighborhood."""
    return 1.0 - quintic_smoothstep(np.abs(x) / V_SIGMA_HALFWIDTH)


def in_v_sigma(x):
    """Membership of the interface neighborhood |x| < V_SIGMA_HALFWIDTH."""
    return np.abs(x) < V_SIGMA_HALFWIDTH


def conormal_weight(x):
    """Weight of the generating conormal field Z = x(1-x^2) d/dx.

    Vanishes to first order at the interface (x=0) and the boundary
    (x=+-1), so Z is tangent to both.
    """
    x = np.asarray(x, dtype=float)
    return x * (1.0 - x * x)
