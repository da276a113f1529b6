"""Zero-exchange limit flow: a pointwise precession/relaxation ODE.

With the exchange term switched off the magnetization at each node obeys
    du/dt = u x H(u) - u x (u x H(u)),      H(u) = (-u1, 0, 0),
which preserves |u| and drives u1 toward 0 through du1/dt = u1(u1^2 - 1)
on the unit sphere. Nodes never couple, and the flow is solved in closed
form, so nothing here takes a time step; everything is vectorized over
an arbitrary leading shape. The full model's reaction term F lives here
too, the one home all three physics layers take it from.

Contains:
- precession_rhs: u x H - u x (u x H) for a given field H
- F_rhs: the reaction term |V|^2 u + u x H - u x (u x H)
- F_slab: F_rhs with the slab stray field H = (-u1, 0, 0), written out
  (the full model's reaction term)
- rhs_limit: the limit flow's right-hand side, precession_rhs with the
  slab stray field
- renormalize: projection onto the unit sphere
- simulate_limit: the exact solution on a given time grid
- ExtendedLimit / extend_limit: one-sided limit states extended across
  the interface by branch continuation and cutoff blending, with exact
  time derivatives, and the jump's leak outside the interface
  neighborhood (support_defect)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .banded import cross, dot3, norm3
from .fields import MagnetizationField
from .geometry import chi_sigma, in_v_sigma
from .strayfield import stray_field_slab


def precession_rhs(u: np.ndarray, H: np.ndarray) -> np.ndarray:
    """u x H - u x (u x H), broadcast over leading axes."""
    uxH = cross(u, H)
    return uxH - cross(u, uxH)


def F_rhs(u: np.ndarray, V: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Reaction term |V|^2 u + u x H - u x (u x H)."""
    uxH = cross(u, H)
    return dot3(V, V)[..., None] * u + uxH - cross(u, uxH)


def F_slab(u: np.ndarray, V: np.ndarray) -> np.ndarray:
    """F_rhs(u, V, stray_field_slab(u)), with only the arithmetic the
    field (-u1, 0, 0) leaves: u x H = (0, -u1 u3, u1 u2), and

        F = |V|^2 u - (u2 u1u2 + u3 u1u3, u1u3 - u1 u1u2, -u1u2 - u1 u1u3),

    each term rounded as F_rhs rounds it. Equal to F_rhs under ==: only
    the sign of a zero may differ, where F_rhs adds or subtracts the
    exact zeros of H.
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
    """Limit-flow right-hand side with the slab stray field."""
    return precession_rhs(u, stray_field_slab(u))


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


# === the limit flow extended across the interface ===

@dataclass(frozen=True)
class ExtendedLimit:
    """One-sided limit states extended across the interface.

    u_plus[k, i] is the plus-side extension at (times[k], x_param[i]);
    on x >= 0 it equals the limit solution, on x < 0 it blends the
    continuation of the plus-side data branch with the local solution
    using the interface cutoff, so the jump field u_plus - u_minus is
    chi_sigma(x) times the branch gap: supported inside the interface
    neighborhood, and bitwise zero everywhere for continuous data.
    du_* are exact time derivatives (the blend is a time-independent
    linear combination of pointwise solutions).
    """

    times: np.ndarray
    x_param: np.ndarray
    u_plus: np.ndarray
    u_minus: np.ndarray
    du_plus: np.ndarray
    du_minus: np.ndarray

    @property
    def delta(self) -> np.ndarray:
        return self.u_plus - self.u_minus

    @property
    def delta_dt(self) -> np.ndarray:
        return self.du_plus - self.du_minus

    def support_defect(self) -> float:
        """Largest |delta| outside the interface neighborhood."""
        outside = ~in_v_sigma(self.x_param)
        return float(np.max(np.abs(self.delta[:, outside]), initial=0.0))


def extend_limit(data: MagnetizationField, x: np.ndarray,
                 times: np.ndarray) -> ExtendedLimit:
    """Solve the limit flow exactly from both data branches on the
    parameter nodes x, and blend.

    Each side's initial branch continues smoothly across the interface
    (constants broadcast, a continuous field is its own continuation),
    and the limit flow is pointwise, so the branch evolutions are
    global one-sided solutions. The extension keeps each branch on its
    own side and fades it into the other side's solution with the
    interface blending weight geometry.chi_sigma, whose window
    |x| < 0.35 is fixed.
    """
    times = np.asarray(times, dtype=float)
    i_zero = int(np.argmin(np.abs(x)))
    if x[i_zero] != 0.0:
        raise ValueError("parameter mesh must contain the interface node")

    u_init = np.stack([data.branch(x, "minus"), data.branch(x, "plus")])
    vals = simulate_limit(u_init, times)
    v_minus, v_plus = vals[:, 0], vals[:, 1]
    r_minus, r_plus = rhs_limit(v_minus), rhs_limit(v_plus)

    chi = chi_sigma(x)

    def blend(own, other, keep_on):
        out = own.copy()
        mask = x < 0.0 if keep_on == "plus" else x > 0.0
        cm = chi[None, mask, None]
        # incremental form: identical branches stay bitwise jump-free
        out[:, mask] = other[:, mask] \
            + cm * (own[:, mask] - other[:, mask])
        return out

    return ExtendedLimit(times=times, x_param=x,
                         u_plus=blend(v_plus, v_minus, "plus"),
                         u_minus=blend(v_minus, v_plus, "minus"),
                         du_plus=blend(r_plus, r_minus, "plus"),
                         du_minus=blend(r_minus, r_plus, "minus"))
