"""Zero-exchange limit flow: a pointwise precession/relaxation ODE.

With the exchange term switched off the magnetization at each node obeys
    du/dt = u x H(u) - u x (u x H(u)),      H(u) = (-u1, 0, 0),
which preserves |u| and drives u1 toward 0 through du1/dt = u1(u1^2 - 1)
on the unit sphere. Nodes never couple, and the flow is solved in closed
form, so nothing here takes a time step; everything is vectorized over
an arbitrary leading shape. The full model's reaction term F lives here
too, the one home all three physics layers take it from.

Contains:
- F_slab: the reaction term |V|^2 u + u x H - u x (u x H) with the slab
  stray field H = (-u1, 0, 0) written out
- rhs_limit: the limit flow's right-hand side, F_slab at V = 0
- renormalize: projection onto the unit sphere
- simulate_limit: the exact solution on a given time grid
- ExtendedLimit / extend_limit: the limit flow of each data branch,
  continued across the interface, and the cutoff jump's leak outside
  the interface neighborhood (support_defect)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .banded import dot3, norm3
from .fields import MagnetizationField
from .geometry import chi_sigma, in_v_sigma


def F_slab(u: np.ndarray, V: np.ndarray) -> np.ndarray:
    """F(u, V, H) = |V|^2 u + u x H - u x (u x H) with the slab stray
    field H = (-u1, 0, 0), broadcast, with only the arithmetic H leaves:
    u x H = (0, -u1 u3, u1 u2), and

        F = |V|^2 u - (u2 u1u2 + u3 u1u3, u1u3 - u1 u1u2, -u1u2 - u1 u1u3),

    each term rounded as two cross products with H round it, so equal
    to that form under ==: only the sign of a zero may differ.
    """
    u1, u2, u3 = u[..., 0], u[..., 1], u[..., 2]
    p2, p3 = u1 * u2, u1 * u3
    n = dot3(V, V)
    out = np.empty(np.broadcast_shapes(u.shape, V.shape))
    np.subtract(n * u1, u2 * p2 + u3 * p3, out=out[..., 0])
    np.add(n * u2 - p3, u1 * p2, out=out[..., 1])
    np.add(n * u3 + p2, u1 * p3, out=out[..., 2])
    return out


def rhs_limit(u: np.ndarray) -> np.ndarray:
    """Limit-flow right-hand side: the reaction term at V = 0."""
    return F_slab(u, np.zeros(3))


def renormalize(u: np.ndarray,
                norms: Optional[np.ndarray] = None) -> np.ndarray:
    """Project onto the unit sphere; zero vectors are rejected. norms,
    if given, is norm3(u), already taken by the caller."""
    if norms is None:
        norms = norm3(u)
    if np.any(norms == 0.0):
        raise ValueError("cannot renormalize a zero magnetization vector")
    return u / norms[..., None]


def simulate_limit(u0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The limit flow's exact solution at times: (nt,) + u0.shape.

    times must start at 0 and increase strictly. values[0] is u0 as
    given; every later time is the solution from u = renormalize(u0).
    With a = |u1|, rho^2 = u2^2 + u3^2, ae = a e^{-t} and
    D = sqrt(rho^2 + ae^2), u1(t) = sign(u1) ae / D, and (u2, u3) is
    scaled by 1/D and turned by phi = sign(u1) log((1 + a) / (ae + D)),
    the integral of u1 (for unit u it equals asinh(u1 / rho) -
    asinh(u1 e^{-t} / rho)). No division by rho, so the fixed points
    +-e1 need no guard. Nodes never couple, so each distinct initial
    vector is solved once (constant-per-side data holds two), with the
    bits of solving every node.
    """
    times = np.asarray(times, dtype=float)
    if times[0] != 0.0 or np.any(np.diff(times) <= 0.0):
        raise ValueError(f"times must start at 0 and increase strictly, "
                         f"got {times.tolist()}")
    u0 = np.asarray(u0, dtype=float)
    # distinct to the bit, as bytes: a float comparison would merge -0.0
    # with 0.0
    rows = np.ascontiguousarray(u0.reshape(-1, 3))
    _, first, inverse = np.unique(
        rows.view(np.dtype((np.void, rows.itemsize * 3))).ravel(),
        return_index=True, return_inverse=True)
    u = renormalize(rows[first])
    sign = np.sign(u[:, 0])
    a = np.abs(u[:, 0])
    rho2 = u[:, 1] * u[:, 1] + u[:, 2] * u[:, 2]
    values = np.empty((times.size,) + u0.shape)
    values[0] = u0
    level = np.empty_like(u)
    for k in range(1, times.size):
        ae = a * np.exp(-times[k])
        D = np.sqrt(rho2 + ae * ae)
        phi = sign * np.log((1.0 + a) / (ae + D))
        c, s = np.cos(phi) / D, np.sin(phi) / D
        level[:, 0] = sign * ae / D
        level[:, 1] = c * u[:, 1] - s * u[:, 2]
        level[:, 2] = s * u[:, 1] + c * u[:, 2]
        # inverse holds valid indices only; "clip" writes in place,
        # where the default "raise" would buffer
        np.take(level, inverse, axis=0, out=values[k].reshape(-1, 3),
                mode="clip")
    return values


# === the limit flow of each data branch ===

@dataclass(frozen=True)
class ExtendedLimit:
    """The limit flow of each data branch on the parameter nodes.

    u_plus[k, i] is the plus-side branch's flow at (times[k],
    x_param[i]), u_minus the minus-side one's; each is the limit
    solution on its own side. The jump field chi_sigma(x) (u_plus -
    u_minus) is bitwise zero for continuous data.
    """

    times: np.ndarray
    x_param: np.ndarray
    u_plus: np.ndarray
    u_minus: np.ndarray

    def support_defect(self) -> float:
        """Largest |chi_sigma (u_plus - u_minus)| outside the interface
        neighborhood."""
        x = self.x_param
        jump = chi_sigma(x)[:, None] * (self.u_plus - self.u_minus)
        return float(np.max(np.abs(jump[:, ~in_v_sigma(x)]), initial=0.0))


def extend_limit(data: MagnetizationField, x: np.ndarray,
                 times: np.ndarray) -> ExtendedLimit:
    """Solve the limit flow exactly from both data branches on the
    parameter nodes x.

    Each side's initial branch continues smoothly across the interface
    (constants broadcast, a continuous field is its own continuation),
    and the limit flow is pointwise, so the branch flows are global
    one-sided solutions.
    """
    times = np.asarray(times, dtype=float)
    i_zero = int(np.argmin(np.abs(x)))
    if x[i_zero] != 0.0:
        raise ValueError("parameter mesh must contain the interface node")
    vals = simulate_limit(np.stack([data.branch(x, "minus"),
                                    data.branch(x, "plus")]), times)
    return ExtendedLimit(times=times, x_param=x, u_plus=vals[:, 1],
                         u_minus=vals[:, 0])
