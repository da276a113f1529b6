"""Slab geometry: meshes, finite-difference stencils, the two cutoffs.

Every mesh of the slab problem is assembled the same way: cumulative
cell widths from 0, the last node pinned to the exact end, and the
two-sided meshes mirrored through 0 with the interface node once. The
time grids are built here too, their last level pinned to the horizon.
A field is stored node-major, (..., n, 3), and every stencil here acts
along its node axis -2, as the banded kernel solves along it. A node
weight multiplies a field laid out (n, 3) (field_weights), so the
product is one contiguous loop over the nodes: broadcast from (n, 1),
its inner loop runs over the 3 components only, several times slower.

Contains:
- quintic_smoothstep: the C2 polynomial ramp used by every cutoff here
- nodes / mirrored: the one-sided and the mirrored node assembly
- param_nodes: the uniform parameter mesh of (-1, 1), interface 0 once
- graded_widths / make_profile_grid / make_wall_grid: the graded layer
  meshes in the stretched variables y on [-Y, Y] and z on [0, Z]
- d2_coefficients / d1_coefficients / apply_tridiagonal_stencil:
  nonuniform 3-point stencils with the Neumann walls built in
- field_weights: a node weight laid out (n, 3) for its products with
  a field
- one_sided_d1 / profile_d1: second-order first derivatives at an end
  and along the whole node axis
- x_squares: the composite-trapezoid squared L2 norm along the node axis
- time_d1 / level_blocks: np.gradient's time derivative on a window of
  levels, and the blocks with halo the diagnostics walk the levels in
- theta / chi_sigma / in_v_sigma: the wall cutoff, the interface
  blending weight and the interface neighborhood, all of fixed width
- conormal_weight: weight of the vector field x(1-x^2) d/dx tangent to
  both the interface and the boundary
"""

from __future__ import annotations

import numpy as np

from .banded import dot3


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


def knot_times(T: float, dt: float) -> np.ndarray:
    """Uniform knots 0, dt, 2 dt, ... up to T, the last one pinned to T.

    A multiple of dt within rounding of T gives way to T, so no step is
    a rounding sliver; a T that is no multiple of dt ends on a short
    step.
    """
    if T <= 0.0 or dt <= 0.0:
        raise ValueError(f"need positive T and dt, got T={T}, dt={dt}")
    knots = dt * np.arange(int(np.floor(T / dt + 1e-9)) + 1)
    return np.append(knots[knots < T - 1e-12 * max(T, 1.0)], T)


def time_grid(T: float, dt: float) -> np.ndarray:
    """knot_times(T, dt) with the first knot cell subdivided.

    The first cell is split into binary pieces c/64, c/64, c/32, ...,
    c/2 that sum exactly to c = min(dt, T), so the knots are levels of
    the grid, bit for bit; the tiny opening steps absorb the start-up
    stiffness of discontinuous data.
    """
    knots = knot_times(T, dt)
    ramp = min(dt, T) * 2.0 ** np.arange(6) / 64.0
    return np.concatenate([[0.0], ramp, knots[1:]])


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


def field_weights(w: np.ndarray) -> np.ndarray:
    """The node weight w (n,) laid out (n, 3), one copy per component."""
    return np.repeat(np.asarray(w, dtype=float)[:, None], 3, axis=1)


def apply_tridiagonal_stencil(coeffs, u: np.ndarray) -> np.ndarray:
    """Apply 3-point weights (a, b, c) along the node axis of u (..., n, 3).

    The weights are (n,), or laid out (n, 3) by field_weights, as a
    caller applying them often keeps them; both give the same bits.
    """
    a, b, c = (w if w.ndim == 2 else field_weights(w) for w in coeffs)
    out = b * u
    out[..., 1:, :] += a[1:] * u[..., :-1, :]
    out[..., :-1, :] += c[:-1] * u[..., 1:, :]
    return out


def time_d1(times: np.ndarray, f: np.ndarray, first: int,
            rows: slice) -> np.ndarray:
    """d/dt at the levels rows of a field F on times, from the window
    f = F[first:first + len(f)].

    Bit for bit np.gradient(F, times, axis=0)[rows]: centered inside,
    first order at both ends. The window must hold one level past each
    end of rows that is not an end of times. numpy takes its uniform-spacing
    formula when every spacing of its input is equal, so the formula is
    chosen once from the whole of times, never from f's window.
    """
    h = np.diff(times)
    out = np.empty((rows.stop - rows.start,) + f.shape[1:])
    i0, i1 = max(rows.start, 1), min(rows.stop, times.size - 1)
    fm, f0, fp = (f[i0 + s - first:i1 + s - first] for s in (-1, 0, 1))
    inside = out[i0 - rows.start:i1 - rows.start]
    if np.all(h == h[0]):
        inside[...] = (fp - fm) / (2.0 * h[0])
    else:
        shape = (-1,) + (1,) * (f.ndim - 1)
        dx1 = h[i0 - 1:i1 - 1].reshape(shape)
        dx2 = h[i0:i1].reshape(shape)
        inside[...] = (-(dx2) / (dx1 * (dx1 + dx2)) * fm
                       + (dx2 - dx1) / (dx1 * dx2) * f0
                       + dx1 / (dx2 * (dx1 + dx2)) * fp)
    if rows.start == 0:
        out[0] = (f[1] - f[0]) / h[0]
    if rows.stop == times.size:
        out[-1] = (f[-1] - f[-2]) / h[-1]
    return out


# levels per block of the streamed space-time diagnostics: bounds their
# temporaries (levels x nodes x 3) whatever the number of levels
LEVEL_BLOCK = 16


def level_blocks(n: int, halo: int):
    """The levels 0..n in blocks of LEVEL_BLOCK: (lo, start, stop, hi)
    per block start..stop, whose window lo..hi reaches halo levels
    past each end, clipped to 0..n."""
    for start in range(0, n, LEVEL_BLOCK):
        stop = min(start + LEVEL_BLOCK, n)
        yield max(start - halo, 0), start, stop, min(stop + halo, n)


def one_sided_d1(x: np.ndarray, u: np.ndarray, end: str) -> np.ndarray:
    """Second-order one-sided first derivative at an end of the node
    axis of u (..., n, 3): (..., 3).

    Evaluated on telescoped differences, so constant data returns an
    exact zero rather than rounding noise.
    """
    x = np.asarray(x, dtype=float)
    if end != "left":
        # reversal negates both spacings and both differences exactly
        x, u = x[::-1], u[..., ::-1, :]
    h1 = x[1] - x[0]
    h2 = x[2] - x[1]
    return ((2 * h1 + h2) / (h1 * (h1 + h2)) * (u[..., 1, :] - u[..., 0, :])
            - h1 / (h2 * (h1 + h2)) * (u[..., 2, :] - u[..., 1, :]))


def profile_d1(y: np.ndarray, W: np.ndarray) -> np.ndarray:
    """d/dy along the node axis of W (..., ny, 3): centered interior,
    second-order one-sided at both ends. Telescoped differences, so
    constant data returns an exact zero."""
    out = np.empty_like(W)
    h = np.diff(y)
    hm, hp = h[:-1], h[1:]
    above = field_weights(hm / (hp * (hm + hp)))
    below = field_weights(hp / (hm * (hm + hp)))
    out[..., 1:-1, :] = (above * (W[..., 2:, :] - W[..., 1:-1, :])
                         + below * (W[..., 1:-1, :] - W[..., :-2, :]))
    out[..., 0, :] = one_sided_d1(y, W, "left")
    out[..., -1, :] = one_sided_d1(y, W, "right")
    return out


def x_squares(x: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Squared L2 norm along the node axis of a field (..., n, 3) on
    the nodes x by the composite trapezoid: one per leading index."""
    return np.trapezoid(dot3(values, values), x, axis=-1)


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
