"""Boundary profile at the slab walls and its Neumann corrector.

The limit flow satisfies no flux condition at the walls x = +-1; the
full model does. The first-order boundary profile U(t, x, z), living on
the stretched distance z = (1 - |x|)/eps, restores the wall flux at
leading order through the inhomogeneous Neumann condition

    dU/dz|_{z=0} = theta(x) d_n u0(t, x),

with d_n the outward normal slow derivative and theta the wall cutoff.
The profile solves the linear parabolic system

    dU/dt = (I + [u0]x) U_zz + L(t, x) U,

where L is the exact linearization of the layer reaction at zero
profile amplitude (a closed-form 3x3 matrix of u0, its stray field and
the slab normal e1; even in the normal, so both walls share one form).
z is truncated at Z with Dirichlet zero, the start U(0) = 0 is
zero-compatible through the same graded opening steps as the
transmission layer, and the x dependence is parametric: columns where
theta vanishes are identically zero and skipped.

The slow corrector rho(t, x) = phi(x) theta(x) g_side(t) repairs the
O(eps) wall flux left by the x dependence of the profile trace:
g_side is the outward normal derivative of U(t, . , 0) at the wall, so
d_n rho|_wall = -g_side exactly cancels it.

Contains:
- linearized_reaction_matrix: the operator L as a 3x3 matrix
- march_wall: theta-step march of stacked columns, one banded solve
  per step (backward Euler on the graded opening steps,
  Crank-Nicolson after)
- BoundaryProfile / solve_boundary_profile: all wall columns
- wall_slopes: outward trace derivatives at the walls
- neumann_corrector: the corrector rho from the wall trace slopes
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .banded import (block_tridiag_solve, cross, cross_matrix,
                     inv_id_plus_cross)
from .errors import ValidationError
from .geometry import (apply_tridiagonal_stencil, d2_coefficients,
                       field_weights, one_sided_d1, profile_d1, theta)
from .limit_model import ExtendedLimit
from .strayfield import E1, stray_field_slab


# === linearized layer reaction ===

def linearized_reaction_matrix(u0: np.ndarray, H0: np.ndarray) -> np.ndarray:
    """Derivative of the layer reaction at zero profile amplitude,
    d/ds F_pm(s U, 0, u0, H0) at s = 0 = L U, as the (..., 3, 3) matrix

        L = [u0 x H0]x - [H0]x + [u0]x [H0]x
            + (u0 x (u0 x e1) - u0 x e1) e1^T.

    Even in the normal e1, so the two walls share it.
    """
    w_e1 = cross(u0, E1)
    return (cross_matrix(cross(u0, H0)) - cross_matrix(H0)
            + cross_matrix(u0) @ cross_matrix(H0)
            + (cross(u0, w_e1) - w_e1)[..., :, None] * E1)


# === the stacked march ===

def _ramp_end(times: np.ndarray) -> int:
    """Level where the graded opening steps end: the first step of the
    longest length starts there (0 on a grid without a ramp)."""
    dts = np.diff(times)
    return int(np.argmax(dts >= (1.0 - 1e-12) * dts.max()))


def march_wall(z: np.ndarray, times: np.ndarray, u0: np.ndarray,
               g: np.ndarray, source: Optional[np.ndarray] = None
               ) -> np.ndarray:
    """Theta-step march of stacked wall columns; U is (nt, ncols, nz, 3).

    u0 (nt, ncols, 3) carries each column's slow coefficients
    (z-independent), g (nt, ncols, 3) its Neumann data dU/dz(z=0) =
    g(t), folded in through the mirror ghost u[-1] = u[1] - 2 h g.
    Dirichlet zero at z = Z; U(0) = 0. source (nt, ncols, nz, 3), if
    given, is an extra volume forcing (used by the manufactured-solution
    tests). Steps shorter than the longest one at the head of the grid
    (the graded opening) run backward Euler (theta = 1), the rest
    Crank-Nicolson (theta = 1/2).

    A step freezes M = I + [u0]x and L at the theta-weighted level, one
    3x3 each per column for every z, and solves its rows premultiplied
    by M^-1: diagonal blocks M^-1 (I - w L) - w b I with w = theta dt,
    scalar couplings -w a and -w c from the z weights (a, b, c), and
    the ghost's wall source without its M. The columns share the z
    weights and the steps, so each step is one banded solve of all of
    them, and each column gets the bits of its own march.
    """
    nz = z.size
    nt = times.size
    if u0.ndim != 3 or u0.shape[::2] != (nt, 3) or g.shape != u0.shape:
        raise ValueError(f"u0/g must be (nt, ncols, 3) with nt = {nt}, "
                         f"got {u0.shape}, {g.shape}")
    a, b, c = d2_coefficients(z)
    d2 = tuple(map(field_weights, (a, b, c)))
    h0 = z[1] - z[0]
    eye = np.eye(3)
    L_all = linearized_reaction_matrix(u0, stray_field_slab(u0))

    # graded opening steps run backward Euler: the start U = 0 cannot
    # carry the wall flux, and on the fine wall cells Crank-Nicolson
    # leaves that incompatibility ringing instead of damping it
    first_full = _ramp_end(times)

    U = np.zeros((nt, u0.shape[1], nz, 3))
    for k in range(nt - 1):
        dt = times[k + 1] - times[k]
        th = 1.0 if k < first_full else 0.5
        w_new, w_old = th * dt, (1.0 - th) * dt
        u0_step, L, g_step = (th * f[k + 1] + (1.0 - th) * f[k]
                              for f in (u0, L_all, g))
        m_inv = inv_id_plus_cross(u0_step)
        lower = -w_new * a
        upper = -w_new * c
        B = (m_inv @ (eye - w_new * L))[:, None] \
            - (w_new * b)[:, None, None] * eye
        rhs = U[k] @ np.swapaxes(m_inv @ (eye + w_old * L), -1, -2) \
            + w_old * apply_tridiagonal_stencil(d2, U[k])
        # ghost inhomogeneity: the Neumann data acts as a wall source
        rhs[:, 0] += dt * (-2.0 * g_step / h0)
        if source is not None:
            rhs += dt * ((th * source[k + 1] + (1.0 - th) * source[k])
                         @ np.swapaxes(m_inv, -1, -2))
        # Dirichlet at the far end
        lower[-1] = 0.0
        B[:, -1] = eye
        rhs[:, -1] = 0.0
        U[k + 1] = block_tridiag_solve(lower, B, upper, rhs)
    return U


# === all wall columns ===

@dataclass(frozen=True)
class BoundaryProfile:
    """Wall profiles U(t, x, z) on the wall-cutoff support.

    U is stored only on the x_support columns (where the wall cutoff is
    positive); elsewhere the profile is identically zero. g_data is the
    applied Neumann trace theta(x) d_n u0.
    """

    times: np.ndarray
    z: np.ndarray
    x_param: np.ndarray
    x_support: np.ndarray
    U: np.ndarray
    g_data: np.ndarray

    @property
    def Z(self) -> float:
        return float(self.z[-1])

    def trace(self) -> np.ndarray:
        """U at the wall z = 0: (nt, nxs, 3)."""
        return self.U[:, :, 0, :]

    def tail_max(self) -> float:
        """Largest |U| on the last interior node before the truncation."""
        if self.U.size == 0:
            return 0.0
        return float(np.max(np.abs(self.U[:, :, -2, :])))

    def neumann_defect(self) -> float:
        """Mismatch between dU/dz at z = 0 and the applied data.

        The start level and the graded opening levels after it are
        excluded: the zero start carries no flux, and the opening steps
        absorb the switch-on.
        """
        if self.U.size == 0:
            return 0.0
        start = max(_ramp_end(self.times), 1)
        slope = one_sided_d1(self.z, self.U, "left")
        return float(np.max(np.abs(slope - self.g_data)[start:]))

    def validate(self, tail_tol: float = 1e-6,
                 neumann_tol: float = 1e-3) -> None:
        """Raise ValidationError if the wall layer is unresolved."""
        tail = self.tail_max()
        if tail > tail_tol:
            raise ValidationError(
                f"wall profile tail {tail:.3e} exceeds {tail_tol:.1e}; "
                f"enlarge the wall box")
        defect = self.neumann_defect()
        if defect > neumann_tol:
            raise ValidationError(
                f"wall flux defect {defect:.3e} exceeds {neumann_tol:.1e}")


def solve_boundary_profile(ext: ExtendedLimit,
                           z: np.ndarray) -> BoundaryProfile:
    """Solve the wall layer on every column where the wall cutoff
    geometry.theta is positive.

    The limit solution and its slow normal derivative come from the
    extended states (each side's extension equals the limit solution on
    its own side); the Neumann data is theta(x) d_n u0 with the outward
    normal at the nearer wall. The columns with nonzero data march
    together in one march_wall call; the rest stay exactly zero.
    """
    x = ext.x_param
    theta_x = theta(x)
    mask = theta_x > 0.0
    idx = np.nonzero(mask)[0]

    u0_true = np.where((x < 0.0)[None, :, None], ext.u_minus, ext.u_plus)
    dx_u0 = profile_d1(x, u0_true)
    g_data = (theta_x[idx] * np.sign(x[idx]))[None, :, None] * dx_u0[:, idx]
    # columns with zero data stay identically zero
    active = np.max(np.abs(g_data), axis=(0, 2)) > 0.0
    U = np.zeros((ext.times.size, idx.size, z.size, 3))
    if active.any():
        U[:, active] = march_wall(z, ext.times, u0_true[:, idx[active]],
                                  g_data[:, active])

    return BoundaryProfile(times=ext.times, z=z, x_param=x,
                           x_support=x[mask], U=U, g_data=g_data)


def wall_slopes(profile: BoundaryProfile) -> tuple:
    """Outward normal x-derivatives of the wall trace at each wall.

    Returns (g_minus, g_plus), each (nt, 3), by one-sided second-order
    stencils over the support columns nearest the respective wall;
    zero when a wall has fewer than 3 support columns.
    """
    nt = profile.times.size
    g_minus = np.zeros((nt, 3))
    g_plus = np.zeros((nt, 3))
    if profile.x_support.size >= 3:
        trace = profile.trace()
        xs = profile.x_support
        right = xs > 0.0
        left = xs < 0.0
        if right.sum() >= 3:
            g_plus = one_sided_d1(xs[right], trace[:, right], "right")
        if left.sum() >= 3:
            g_minus = -one_sided_d1(xs[left], trace[:, left], "left")
    return g_minus, g_plus


def neumann_corrector(x: np.ndarray, g_minus: np.ndarray,
                      g_plus: np.ndarray) -> np.ndarray:
    """Neumann corrector rho(t, x) = phi(x) theta(x) g_side(t): (nt, nx, 3).

    phi(x) = 1 - |x| is the distance to the wall and theta the wall
    cutoff on the nodes x; g_minus and g_plus (nt, 3) are the outward
    normal x-derivatives of the wall trace U(t, . , 0) at each wall
    (wall_slopes), so d_n rho = -g_side at each wall and the O(eps)
    flux of the assembled expansion cancels there. Supported where
    theta is.
    """
    rho = np.zeros((g_plus.shape[0], x.size, 3))
    phi_theta = (1.0 - np.abs(x)) * theta(x)
    right = x > 0.0
    left = x < 0.0
    rho[:, right] = phi_theta[right, None] * g_plus[:, None]
    rho[:, left] = phi_theta[left, None] * g_minus[:, None]
    return rho
