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
profile amplitude (five terms built from u0, its stray field, and the
wall normal n = e1; every term is even in n, so both walls share one
form). z is truncated at Z with Dirichlet zero, the start U(0) = 0 is
zero-compatible through the same graded opening steps as the
transmission layer, and the x dependence is parametric: columns where
theta vanishes are identically zero and skipped.

The slow corrector rho(t, x) = phi(x) theta(x) g_side(t) repairs the
O(eps) wall flux left by the x dependence of the profile trace:
g_side is the outward normal derivative of U(t, . , 0) at the wall, so
d_n rho|_wall = -g_side exactly cancels it.

Contains:
- make_wall_grid: graded one-sided z-mesh on [0, Z]
- linearized_reaction / linearized_reaction_matrix: the operator L
- march_wall: Crank-Nicolson march of one column
- BoundaryProfile / solve_boundary_profile: all wall columns
- wall_slopes: outward trace derivatives at the walls
- neumann_corrector: the corrector rho from the wall trace slopes
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .banded import block_tridiag_solve, cross_matrix
from .errors import ValidationError
from .full_model import apply_tridiagonal_stencil, d2_coefficients, one_sided_d1
from .geometry import LevelSets
from .internal_layer import E1, ExtendedLimit, graded_widths, profile_d1
from .strayfield import stray_field_slab


def make_wall_grid(Z: float = 15.0, cells: int = 96) -> np.ndarray:
    """Graded nodes on [0, Z] (graded_widths), finest at the wall z = 0."""
    w = graded_widths(Z, cells)
    z = np.concatenate([[0.0], np.cumsum(w)])
    z[-1] = Z
    return z


# === linearized layer reaction ===

def linearized_reaction(U: np.ndarray, u0: np.ndarray, H0: np.ndarray,
                        n: np.ndarray = E1) -> np.ndarray:
    """Derivative of the layer reaction at zero profile amplitude.

    d/ds F_pm(s U, 0)|_{s=0}: the gradient part drops (quadratic), the
    stray-field correction -(U.n)n survives linearly. Even in n, so the
    two walls share the same expression.
    """
    Un = np.sum(U * n, axis=-1, keepdims=True)
    return (np.cross(U, H0)
            - Un * np.cross(u0, n)
            - np.cross(U, np.cross(u0, H0))
            - np.cross(u0, np.cross(U, H0))
            + Un * np.cross(u0, np.cross(u0, n)))


def linearized_reaction_matrix(u0: np.ndarray, H0: np.ndarray,
                               n: np.ndarray = E1) -> np.ndarray:
    """The same operator as a (..., 3, 3) matrix, built column by column."""
    cols = []
    for j in range(3):
        e = np.zeros(3)
        e[j] = 1.0
        cols.append(linearized_reaction(e, u0, H0, n))
    return np.stack(cols, axis=-1)


# === one column ===

def march_wall(z: np.ndarray, times: np.ndarray, u0: np.ndarray,
               g: np.ndarray, source: Optional[np.ndarray] = None
               ) -> np.ndarray:
    """Crank-Nicolson march of one wall column.

    u0 (nt, 3) carries the slow coefficients (z-independent), g (nt, 3)
    the Neumann data dU/dz(z=0) = g(t), folded in through the mirror
    ghost u[-1] = u[1] - 2 h g. Dirichlet zero at z = Z; U(0) = 0.
    source (nt, nz, 3), if given, is an extra volume forcing (used by
    the manufactured-solution tests). Steps shorter than the longest
    one at the head of the grid (the graded opening) run backward
    Euler, the rest Crank-Nicolson.
    """
    nz = z.size
    nt = times.size
    if u0.shape != (nt, 3) or g.shape != (nt, 3):
        raise ValueError(
            f"u0/g must be (nt, 3) = {(nt, 3)}, got {u0.shape}, {g.shape}")
    d2 = d2_coefficients(z)
    a, b, c = d2
    h0 = z[1] - z[0]
    eye = np.eye(3)
    eye_rows = np.broadcast_to(eye, (nz, 3, 3))
    H0 = stray_field_slab(u0)
    M_all = eye + cross_matrix(u0)
    L_all = linearized_reaction_matrix(u0, H0)

    # graded opening steps run backward Euler: the start U = 0 cannot
    # carry the wall flux, and on the fine wall cells Crank-Nicolson
    # leaves that incompatibility ringing instead of damping it
    dts = np.diff(times)
    first_full = int(np.argmax(dts >= (1.0 - 1e-12) * dts.max()))

    U = np.zeros((nt, nz, 3))
    for k in range(nt - 1):
        dt = times[k + 1] - times[k]
        if k < first_full:
            w_new, w_old = dt, 0.0
            M = M_all[k + 1]
            L = L_all[k + 1]
            g_step = g[k + 1]
            src = source[k + 1] if source is not None else None
        else:
            w_new, w_old = 0.5 * dt, 0.5 * dt
            M = 0.5 * (M_all[k] + M_all[k + 1])
            L = 0.5 * (L_all[k] + L_all[k + 1])
            g_step = 0.5 * (g[k] + g[k + 1])
            if source is not None:
                src = 0.5 * (source[k] + source[k + 1])
            else:
                src = None

        A = -w_new * a[:, None, None] * M
        B = eye_rows - w_new * b[:, None, None] * M - w_new * L
        C = -w_new * c[:, None, None] * M
        d2U = apply_tridiagonal_stencil(d2, U[k])
        rhs = (U[k] + w_old * (d2U @ M.T) + w_old * (U[k] @ L.T))
        # ghost inhomogeneity: the Neumann data acts as a wall source
        rhs[0] += dt * (M @ (-2.0 * g_step / h0))
        if src is not None:
            rhs += dt * src
        # Dirichlet at the far end
        A[-1] = 0.0
        C[-1] = 0.0
        B[-1] = eye
        rhs[-1] = 0.0
        U[k + 1] = block_tridiag_solve(A, B, C, rhs)
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

        Levels inside the opening cell are excluded: the zero start
        carries no flux, and the graded opening steps absorb the
        switch-on before the first full step ends.
        """
        if self.U.size == 0:
            return 0.0
        dts = np.diff(self.times)
        start = int(np.searchsorted(self.times,
                                    (1.0 - 1e-12) * dts.max()))
        stack = np.moveaxis(self.U, 2, 0)
        slope = one_sided_d1(self.z, stack, "left")
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


def solve_boundary_profile(ext: ExtendedLimit, levelsets: LevelSets,
                           z: np.ndarray) -> BoundaryProfile:
    """Solve the wall layer on every column with positive wall cutoff.

    The limit solution and its slow normal derivative come from the
    extended states (each side's extension equals the limit solution on
    its own side); the Neumann data is theta(x) d_n u0 with the outward
    normal at the nearer wall.
    """
    x = ext.x_param
    theta = levelsets.theta(x)
    mask = theta > 0.0
    idx = np.nonzero(mask)[0]

    side_minus = (x < 0.0)[None, :, None]
    u0_true = np.where(side_minus, ext.u_minus, ext.u_plus)
    dx_u0 = profile_d1(x, u0_true)
    normal_sign = np.sign(x)[None, :, None]

    nt = ext.times.size
    U = np.zeros((nt, idx.size, z.size, 3))
    g_data = np.zeros((nt, idx.size, 3))
    for col, i in enumerate(idx):
        g = theta[i] * normal_sign[0, i] * dx_u0[:, i]
        if np.max(np.abs(g)) == 0.0:
            continue
        g_data[:, col] = g
        U[:, col] = march_wall(z, ext.times, u0_true[:, i], g)

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
            g_plus = one_sided_d1(xs[right],
                                  np.moveaxis(trace[:, right], 1, 0), "right")
        if left.sum() >= 3:
            g_minus = -one_sided_d1(xs[left],
                                    np.moveaxis(trace[:, left], 1, 0), "left")
    return g_minus, g_plus


def neumann_corrector(x: np.ndarray, theta: np.ndarray,
                      g_minus: np.ndarray, g_plus: np.ndarray) -> np.ndarray:
    """Neumann corrector rho(t, x) = phi(x) theta(x) g_side(t): (nt, nx, 3).

    theta is the wall cutoff on the nodes x, g_minus and g_plus (nt, 3)
    the outward normal x-derivatives of the wall trace U(t, . , 0) at
    each wall (wall_slopes), so d_n rho = -g_side at each wall and the
    O(eps) flux of the assembled expansion cancels there. Supported
    where theta is.
    """
    rho = np.zeros((g_plus.shape[0], x.size, 3))
    phi_theta = (1.0 - np.abs(x)) * theta
    right = x > 0.0
    left = x < 0.0
    rho[:, right] = phi_theta[right, None] * g_plus[:, None]
    rho[:, left] = phi_theta[left, None] * g_minus[:, None]
    return rho
