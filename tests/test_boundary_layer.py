"""Tests for the wall profile and its Neumann corrector."""

import numpy as np
import pytest

from llx.banded import block_tridiag_solve, cross_matrix
from llx.boundary_layer import (BoundaryProfile, linearized_reaction_matrix,
                                march_wall, neumann_corrector,
                                solve_boundary_profile, wall_slopes)
from llx.errors import ValidationError
from llx.fields import constant_per_side, named_field
from llx.geometry import (apply_tridiagonal_stencil, d2_coefficients,
                          make_wall_grid, one_sided_d1, param_nodes, theta)
from llx.internal_layer import F_pm, make_time_grid
from llx.limit_model import extend_limit
from llx.strayfield import E1, stray_field_slab


# --- linearized reaction ---

def test_linearized_reaction_is_layer_derivative():
    # the exact increment is cubic in U, so a centered difference keeps a
    # cubic remainder; one Richardson step removes it exactly
    rng = np.random.default_rng(19)
    z = np.zeros(3)

    def central(U, u0, H0, s):
        return (F_pm(s * U, z, u0, H0) - F_pm(-s * U, z, u0, H0)) / (2 * s)

    for _ in range(50):
        U, u0, H0 = rng.normal(size=(3, 3))
        exact = (4.0 * central(U, u0, H0, 0.5) - central(U, u0, H0, 1.0)) / 3.0
        np.testing.assert_allclose(linearized_reaction_matrix(u0, H0) @ U,
                                   exact, atol=1e-12, rtol=1e-12)


# --- references: the operator built column by column, the two-branch march

def _reaction_derivative(U, u0, H0):
    """The derivative of the layer reaction written term by term."""
    Un = np.sum(U * E1, axis=-1, keepdims=True)
    return (np.cross(U, H0)
            - Un * np.cross(u0, E1)
            - np.cross(U, np.cross(u0, H0))
            - np.cross(u0, np.cross(U, H0))
            + Un * np.cross(u0, np.cross(u0, E1)))


def _two_branch_march(z, times, u0, g):
    """march_wall with a backward Euler branch for the graded opening
    steps, a Crank-Nicolson branch after, and L built column by column."""
    nz = z.size
    d2 = d2_coefficients(z)
    a, b, c = d2
    h0 = z[1] - z[0]
    eye = np.eye(3)
    eye_rows = np.broadcast_to(eye, (nz, 3, 3))
    H0 = stray_field_slab(u0)
    M_all = eye + cross_matrix(u0)
    L_all = np.stack([_reaction_derivative(e, u0, H0) for e in eye], axis=-1)
    dts = np.diff(times)
    first_full = int(np.argmax(dts >= (1.0 - 1e-12) * dts.max()))
    U = np.zeros((times.size, nz, 3))
    for k in range(times.size - 1):
        dt = times[k + 1] - times[k]
        if k < first_full:
            w_new, w_old = dt, 0.0
            M, L, g_step = M_all[k + 1], L_all[k + 1], g[k + 1]
        else:
            w_new, w_old = 0.5 * dt, 0.5 * dt
            M = 0.5 * (M_all[k] + M_all[k + 1])
            L = 0.5 * (L_all[k] + L_all[k + 1])
            g_step = 0.5 * (g[k] + g[k + 1])
        A = -w_new * a[:, None, None] * M
        B = eye_rows - w_new * b[:, None, None] * M - w_new * L
        C = -w_new * c[:, None, None] * M
        d2U = apply_tridiagonal_stencil(d2, U[k])
        rhs = (U[k] + w_old * (d2U @ M.T) + w_old * (U[k] @ L.T))
        rhs[0] += dt * (M @ (-2.0 * g_step / h0))
        A[-1] = 0.0
        C[-1] = 0.0
        B[-1] = eye
        rhs[-1] = 0.0
        U[k + 1] = block_tridiag_solve(A, B, C, rhs)
    return U


# --- marching kernel (manufactured solution) ---

def _wall_mms(n_cells: int, dt: float, T: float = 0.5):
    """Uniform-grid manufactured march U_m = sin(t) e^{-z} v."""
    Z = 12.0
    z = np.linspace(0.0, Z, n_cells + 1)
    times = np.linspace(0.0, T, int(round(T / dt)) + 1)
    v = np.array([0.3, -0.5, 0.8])
    u0_vec = np.array([0.6, 0.8, 0.0])
    u0 = np.tile(u0_vec, (times.size, 1))
    # source = dU/dt - (I + [u0]x) U_zz - L U with U_zz = U
    Lv = linearized_reaction_matrix(u0_vec, np.array([-0.6, 0.0, 0.0])) @ v
    ez = np.exp(-z)
    src = (np.cos(times)[:, None, None] * ez[None, :, None] * v
           - np.sin(times)[:, None, None] * ez[None, :, None]
           * (v + np.cross(u0_vec, v) + Lv))
    g = -np.sin(times)[:, None] * v
    U = march_wall(z, times, u0, g, source=src)
    exact = np.sin(times[-1]) * ez[:, None] * v
    return float(np.max(np.abs(U[-1] - exact)))


def test_wall_march_corefined_second_order():
    errs = [_wall_mms(n, dt) for n, dt in
            [(48, 0.05), (96, 0.025), (192, 0.0125)]]
    rates = [np.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert min(rates) > 1.8, f"rates {rates}, errors {errs}"


def test_wall_march_linearity():
    z = make_wall_grid(Z=12.0, cells=64)
    times = make_time_grid(0.05, dt=5e-3)
    u0 = np.tile([0.6, 0.8, 0.0], (times.size, 1))
    g = np.sin(times)[:, None] * np.array([0.2, -0.1, 0.4])
    U1 = march_wall(z, times, u0, g)
    U2 = march_wall(z, times, u0, 2.0 * g)
    np.testing.assert_allclose(U2, 2.0 * U1, atol=1e-12)
    assert np.max(np.abs(U1)) > 1e-3


def test_wall_march_zero_data_is_zero():
    z = make_wall_grid(Z=12.0, cells=64)
    times = make_time_grid(0.05, dt=5e-3)
    u0 = np.tile([0.6, 0.8, 0.0], (times.size, 1))
    U = march_wall(z, times, u0, np.zeros((times.size, 3)))
    assert np.max(np.abs(U)) == 0.0


def test_wall_march_validates_shapes():
    z = make_wall_grid(Z=12.0, cells=64)
    times = make_time_grid(0.05, dt=5e-3)
    u0 = np.tile([0.6, 0.8, 0.0], (times.size, 1))
    with pytest.raises(ValueError, match="nt, 3"):
        march_wall(z, times, u0[:-1], np.zeros((times.size, 3)))


# --- full wall solve ---

@pytest.fixture(scope="module")
def swirl_wall():
    x = param_nodes(16)
    times = make_time_grid(0.05, dt=2.5e-3)
    ext = extend_limit(named_field("swirl"), x, times)
    z = make_wall_grid(Z=15.0, cells=96)
    return ext, z, solve_boundary_profile(ext, z)


def test_swirl_wall_matches_the_two_branch_march(swirl_wall):
    # the theta-step march and the closed-form operator keep the bits
    ext, z, prof = swirl_wall
    x = ext.x_param
    u0 = np.where((x < 0.0)[None, :, None], ext.u_minus, ext.u_plus)
    marched = 0
    for col, i in enumerate(np.nonzero(theta(x) > 0.0)[0]):
        g = prof.g_data[:, col]
        if np.max(np.abs(g)) > 0.0:
            np.testing.assert_array_equal(
                prof.U[:, col], _two_branch_march(z, ext.times, u0[:, i], g))
            marched += 1
    assert marched >= 4


def test_wall_profile_nonzero_with_decaying_tail(swirl_wall):
    _, _, prof = swirl_wall
    assert np.max(np.abs(prof.U)) > 1e-3
    assert prof.tail_max() <= 1e-6
    prof.validate()


def test_wall_profile_neumann_defect_small(swirl_wall):
    _, _, prof = swirl_wall
    assert prof.neumann_defect() < 1e-3
    # the applied data is the cutoff-weighted outward slow derivative
    assert np.max(np.abs(prof.g_data)) > 1e-3


def test_wall_profile_supported_at_walls_only(swirl_wall):
    _, _, prof = swirl_wall
    assert np.all(np.abs(prof.x_support) > 0.75)
    assert np.all(theta(prof.x_support) > 0.0)


def test_wall_profile_zero_for_constant_data():
    x = param_nodes(8)
    times = make_time_grid(0.02, dt=5e-3)
    ext = extend_limit(constant_per_side((0.6, 0.8, 0.0), (-0.6, 0.8, 0.0)),
                       x, times)
    z = make_wall_grid(Z=15.0, cells=48)
    prof = solve_boundary_profile(ext, z)
    assert np.max(np.abs(prof.U)) == 0.0
    assert np.max(np.abs(prof.g_data)) == 0.0
    assert np.max(np.abs(_rho(prof))) == 0.0


def test_wall_profile_deterministic(swirl_wall):
    ext, z, prof = swirl_wall
    again = solve_boundary_profile(ext, z)
    assert np.array_equal(prof.U, again.U)


def test_wall_validate_flags_defects(swirl_wall):
    _, _, prof = swirl_wall
    with pytest.raises(ValidationError, match="flux defect"):
        prof.validate(neumann_tol=1e-15)
    with pytest.raises(ValidationError, match="tail"):
        prof.validate(tail_tol=0.0)


# --- corrector ---

def _rho(prof):
    return neumann_corrector(prof.x_param, *wall_slopes(prof))


def test_rho_cancels_unit_trace_slope():
    # fabricated wall trace x e2: the required normal derivative is 1 at
    # the right wall and the corrector slope there must be exactly -1
    x = param_nodes(16)
    xs = x[theta(x) > 0.0]
    times = np.array([0.0, 0.1, 0.2])
    z = make_wall_grid(Z=6.0, cells=16)
    U = np.zeros((times.size, xs.size, z.size, 3))
    U[:, :, 0, 1] = xs
    prof = BoundaryProfile(times=times, z=z, x_param=x, x_support=xs, U=U,
                           g_data=np.zeros((times.size, xs.size, 3)))
    rho = _rho(prof)
    # phi * theta is exactly 1 - x on the three nodes nearest the wall,
    # so the one-sided stencil evaluates the slope without error
    right = np.moveaxis(rho[:, x > 0.0], 1, 0)
    slope = one_sided_d1(x[x > 0.0], right, "right")
    np.testing.assert_allclose(slope[:, 1], -1.0, atol=1e-12)
    np.testing.assert_allclose(slope[:, [0, 2]], 0.0, atol=1e-12)
    # left wall: trace slope 1, outward normal -d/dx, so g_minus = -1
    left = np.moveaxis(rho[:, x < 0.0], 1, 0)
    slope_l = one_sided_d1(x[x < 0.0], left, "left")
    np.testing.assert_allclose(slope_l[:, 1], -1.0, atol=1e-12)


def test_rho_supported_in_wall_neighborhood(swirl_wall):
    _, _, prof = swirl_wall
    rho = _rho(prof)
    inland = np.abs(prof.x_param) <= 0.75
    assert np.max(np.abs(rho[:, inland])) == 0.0
    assert np.max(np.abs(rho)) > 0.0


def test_rho_flux_cancellation(swirl_wall):
    # (B1): the corrector's wall slope cancels the trace's wall slope
    _, _, prof = swirl_wall
    rho = _rho(prof)
    x = prof.x_param
    xs = prof.x_support
    trace = prof.trace()
    g_plus = one_sided_d1(xs[xs > 0], np.moveaxis(trace[:, xs > 0], 1, 0),
                          "right")
    rho_slope = one_sided_d1(x[x > 0], np.moveaxis(rho[:, x > 0], 1, 0),
                             "right")
    np.testing.assert_allclose(rho_slope, -g_plus, atol=1e-12)
