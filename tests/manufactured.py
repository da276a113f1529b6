"""Manufactured problems and reference steppers shared by the test files.

Each problem has one home here, so the unit tests and the acceptance
gate measure the same thing:

- full_model_solution: an exactly-unit field with zero wall derivative
  and the source that makes it solve the full model, derived
  symbolically, never by hand
- march_column / transmission_march_error: the Crank-Nicolson
  transmission march on one column, and its error against a profile
  whose curvature jumps at the junction
- step_midpoint: the explicit midpoint rule of the limit flow, the
  full integrator's first step at zero exchange length
- step_rk4 / march_rk4: the classic fourth-order rule of the limit flow
  and a projected uniform-substep march with it, the independent oracle
  of the limit flow's closed form
- l2_space_time: the composite-trapezoid L2([0,T] x Omega) norm of a
  vector field, from geometry.x_squares
- whole_jump_error_l2 / whole_residual_report / whole_eclass_norms: the
  diagnostics evaluated on whole (nt, nx, 3) arrays, the oracles of the
  knot-block walks in the package
- whole_simulate_limit: the limit flow's closed form solved at every
  node, the oracle of its one solve per distinct initial vector
- reference_epsilon_row: one eps row of the study on whole (nt, nx, 3)
  arrays, measured by the whole-array diagnostics: the oracle of the
  row's one walk over knot blocks
- reaction_term: the textbook reaction term F(u, V, H) with a free
  field H, the oracle of the slab reaction term limit_model.F_slab
- broadcast_stencil / reference_step_full / reference_sweep: the
  3-point stencil with its (n,) weights broadcast over the components,
  and the full-model step and the transmission march built from it,
  the generic reaction term and one level at a time: the oracles of
  the laid-out weights, the slab reaction term and the steps' shared
  set-up
"""

from __future__ import annotations

import numpy as np
import sympy as sp

from llx.banded import (block_tridiag_solve, cross, inv_id_plus_cross,
                        norm3)
from llx.expansion import EClassNorms, ExpansionAnsatz
from llx.full_model import (FullModelConfig, ResidualReport, _forcing,
                            _Workspace, output_times,
                            simulate_full, substeps)
from llx.geometry import (apply_tridiagonal_stencil, conormal_weight,
                          d1_coefficients, d2_coefficients, knot_times,
                          one_sided_d1, profile_d1, x_squares)
from llx.internal_layer import _sweep, halves
from llx.limit_model import renormalize, rhs_limit
from llx.strayfield import stray_field_slab


def full_model_solution():
    """Exact solution and source of the full model, as callables.

    u = (2/sqrt(5)) (sin(2t + cos pi x), cos(2t + cos pi x), 1/2).
    Returns (u_eval, source_for): u_eval(t, x) is (n, 3), and
    source_for(eps) is the source (t, x) -> (n, 3) at that eps.
    """
    eps_s, t, x = sp.symbols("eps t x", real=True)
    c = 2 / sp.sqrt(5)
    phase = 2 * t + sp.cos(sp.pi * x)
    u = sp.Matrix([c * sp.sin(phase), c * sp.cos(phase), c / 2])
    uxx = u.diff(x, 2)
    H = sp.Matrix([-u[0], 0, 0])
    V = eps_s * u.diff(x)
    F = V.dot(V) * u + u.cross(H) - u.cross(u.cross(H))
    S = u.diff(t) - eps_s**2 * uxx - eps_s**2 * u.cross(uxx) - F

    u_fns = [sp.lambdify((t, x), u[i], "numpy") for i in range(3)]
    s_fns = [sp.lambdify((eps_s, t, x), S[i], "numpy") for i in range(3)]

    def u_eval(tv, xv):
        xv = np.asarray(xv, dtype=float)
        return np.stack(
            [np.broadcast_to(f(tv, xv), xv.shape) for f in u_fns], axis=-1)

    def source_for(eps):
        def src(tv, xv):
            xv = np.asarray(xv, dtype=float)
            return np.stack(
                [np.broadcast_to(f(eps, tv, xv), xv.shape) for f in s_fns],
                axis=-1)
        return src

    return u_eval, source_for


def march_column(y, times, coeff, f_minus, f_plus):
    """The transmission march from W = 0; coeff, f_minus and f_plus are
    (nt, ny, 3) on the whole mesh, and each side's forcing is handed on
    its own half-line. Returns W (nt, ny, 3)."""
    W = np.zeros((times.size, y.size, 3))
    (minus, _), (plus, _) = halves(y.size)
    W[1:] = _sweep(y, times, W[0], coeff, f_minus[:, minus],
                   f_plus[:, plus])
    return W


def transmission_march_error(n_cells: int, dt: float,
                             T: float = 0.5) -> float:
    """Sup error at T of the transmission march on a uniform y-mesh.

    W = sin(t) g_s(y) v with g_s = (1 + s y^2 / 10) e^{-y^2} on the side
    s = sign(y): continuous with continuous slope at the junction,
    jumping curvature, so both one-sided forcing values matter.
    """
    yy = sp.symbols("yy")
    v = np.array([0.3, -0.5, 0.8])
    g, g2 = {}, {}
    for s in (1, -1):
        expr = (1 + sp.Rational(s, 10) * yy**2) * sp.exp(-(yy**2))
        g[s] = sp.lambdify(yy, expr, "numpy")
        g2[s] = sp.lambdify(yy, sp.diff(expr, yy, 2), "numpy")
    y = np.linspace(-6.0, 6.0, 2 * n_cells + 1)
    times = np.linspace(0.0, T, int(round(T / dt)) + 1)
    env = np.exp(-(y**2))
    coeff = np.empty((times.size, y.size, 3))
    coeff[..., 0] = np.cos(times)[:, None] * env[None, :]
    coeff[..., 1] = np.sin(times)[:, None] * env[None, :]
    coeff[..., 2] = 0.5 * env[None, :]

    def forcing(side):
        gv = g[side](y)[None, :, None]
        g2v = g2[side](y)[None, :, None]
        cross = np.cross(coeff, v[None, None, :])
        return (np.cos(times)[:, None, None] * gv * v
                - np.sin(times)[:, None, None] * g2v
                * (v[None, None, :] + cross))

    W = march_column(y, times, coeff, forcing(-1), forcing(1))
    exact = np.where((y >= 0.0)[:, None], g[1](y)[:, None] * v,
                     g[-1](y)[:, None] * v) * np.sin(times[-1])
    return float(np.max(np.abs(W[-1] - exact)))


def step_midpoint(u: np.ndarray, dt: float) -> np.ndarray:
    """One explicit midpoint (second-order) step of the limit flow,
    unprojected."""
    mid = u + 0.5 * dt * rhs_limit(u)
    return u + dt * rhs_limit(mid)


def step_rk4(u: np.ndarray, dt: float) -> np.ndarray:
    """One classic fourth-order step of the limit flow, unprojected."""
    k1 = rhs_limit(u)
    k2 = rhs_limit(u + 0.5 * dt * k1)
    k3 = rhs_limit(u + 0.5 * dt * k2)
    k4 = rhs_limit(u + dt * k3)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def march_rk4(u0: np.ndarray, T: float, dt: float, t_eval=None):
    """(times, values) of the limit flow marched by RK4 to T.

    Each interval between output times ({0, T} joined with t_eval) is
    covered by uniform substeps of size at most dt, each projected back
    onto the sphere; values[0] is u0 as given.
    """
    u0 = np.asarray(u0, dtype=float)
    times = output_times(T, t_eval)
    values = np.empty((times.size,) + u0.shape)
    values[0] = u = u0
    for k in range(times.size - 1):
        span = times[k + 1] - times[k]
        nsub = substeps(span, dt)
        for _ in range(nsub):
            u = renormalize(step_rk4(u, span / nsub))
        values[k + 1] = u
    return times, values


# === whole-array diagnostics ===

def l2_space_time(times, x, values) -> float:
    """Composite-trapezoid L2([0,T] x Omega) norm of a vector field."""
    values = np.asarray(values, dtype=float)
    if values.shape[:2] != (np.size(times), np.size(x)):
        raise ValueError(
            f"values shape {values.shape} does not match "
            f"({np.size(times)}, {np.size(x)}, ...)")
    return float(np.sqrt(np.trapezoid(x_squares(x, values), times)))


def whole_jump_error_l2(times, x, u, ref_minus, ref_plus) -> float:
    """expansion.jump_error_l2 on whole arrays."""
    x = np.asarray(x, dtype=float)
    i0 = ref_minus.shape[1] - 1
    dm = np.sum((u[:, :i0 + 1] - ref_minus) ** 2, axis=-1)
    dp = np.sum((u[:, i0:] - ref_plus) ** 2, axis=-1)
    inner = (np.trapezoid(dm, x[:i0 + 1], axis=1)
             + np.trapezoid(dp, x[i0:], axis=1))
    return float(np.sqrt(np.trapezoid(inner, times)))


def whole_residual_report(times, values, grid, epsilon,
                          source=None) -> ResidualReport:
    """full_model.residual_report with the time derivative and the
    residual stacked over every level."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    ws = _Workspace(grid)
    du_dt = np.gradient(values, times, axis=0)
    residuals = np.empty((times.size - 2, grid.n - 2, 3))
    for k in range(1, times.size - 1):
        u = values[k]
        d2u = apply_tridiagonal_stencil(ws.d2, u)
        g = _forcing(u, epsilon, ws)
        if source is not None:
            g = g + source(times[k], grid.x)
        rhs = epsilon**2 * (d2u + cross(u, d2u)) + g
        residuals[k - 1] = (du_dt[k] - rhs)[1:-1]
    l2 = l2_space_time(times[1:-1], grid.x[1:-1], residuals)
    max_r = float(np.max(np.abs(residuals)))
    nd = float(max(np.max(np.abs(one_sided_d1(grid.x, values, end)))
                   for end in ("left", "right")))
    norm_defect = float(np.max(np.abs(np.sum(values**2, axis=-1) - 1.0)))
    return ResidualReport(l2_residual=l2, max_residual=max_r,
                          neumann_defect=nd, norm_defect=norm_defect)


def whole_eclass_norms(times, x, w, epsilon, m) -> tuple:
    """expansion.eclass_norms with each derivative table built on the
    whole of w."""
    w = np.asarray(w, dtype=float)
    times = np.asarray(times, dtype=float)
    x = np.asarray(x, dtype=float)
    omega = conormal_weight(x)[None, :, None]

    def table(v, order):
        derivs = {(0, 0): v}
        for total in range(1, order + 1):
            for b in range(total + 1):
                a = total - b
                derivs[(a, b)] = (
                    omega * profile_d1(x, derivs[(a, b - 1)]) if b
                    else np.gradient(derivs[(a - 1, 0)], times, axis=0))
        return derivs

    def sobolev(derivs):
        squares = [l2_space_time(times, x, term) ** 2
                   for (a, b), term in derivs.items() if a + b <= m]
        return (float(np.sqrt(sum(squares[:1]))),
                float(np.sqrt(sum(squares))))

    def sup(v):
        return float(np.sqrt(np.max(np.sum(v * v, axis=-1))))

    derivs = table(w, max(m, 1))
    conormal = sobolev(derivs)
    sups = (epsilon * sup(w),
            epsilon * max(sup(derivs[(1, 0)]), sup(derivs[(0, 1)])))
    wn = epsilon * profile_d1(x, w)
    normal_conormal = sobolev(table(wn, m))
    sups += (epsilon * sup(wn),)
    return tuple(EClassNorms(order, c, n, *sups) for order, c, n
                 in zip((0, m), conormal, normal_conormal))


def whole_simulate_limit(u0, times) -> np.ndarray:
    """limit_model.simulate_limit with every node solved, repeated
    initial vectors included."""
    times = np.asarray(times, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    u = renormalize(u0)
    sign = np.sign(u[..., 0])
    a = np.abs(u[..., 0])
    rho2 = u[..., 1] * u[..., 1] + u[..., 2] * u[..., 2]
    values = np.empty((times.size,) + u0.shape)
    values[0] = u0
    for k in range(1, times.size):
        ae = a * np.exp(-times[k])
        D = np.sqrt(rho2 + ae * ae)
        phi = sign * np.log((1.0 + a) / (ae + D))
        c, s = np.cos(phi) / D, np.sin(phi) / D
        values[k, ..., 0] = sign * ae / D
        values[k, ..., 1] = c * u[..., 1] - s * u[..., 2]
        values[k, ..., 2] = s * u[..., 1] + c * u[..., 2]
    return values


def reference_epsilon_row(task) -> dict:
    """expansion._epsilon_row with the ansatz a, the knot rows u of the
    trajectory, w = (u - a) / eps and the limit state each built at
    every knot at once, and measured by the whole-array diagnostics."""
    pieces, eps, cfg = task
    grid = pieces.grid(eps, cfg.cells_per_eps)
    times = knot_times(pieces.T_used, cfg.dt_knot)
    a = ExpansionAnsatz(pieces, eps).sample_times(times, grid.x)
    fcfg = FullModelConfig(epsilon=eps, dt=cfg.dt_full, T=pieces.T_used,
                           drift_tol=cfg.drift_tol)
    traj = simulate_full(renormalize(a[0]), grid, fcfg,
                         t_eval=pieces.ext.times)
    u = traj.values[np.isin(traj.times, times)]
    w = (u - a) / eps
    i0 = int(np.searchsorted(grid.x, 0.0))
    limit = whole_simulate_limit(
        np.concatenate([pieces.data(grid.x[:i0 + 1], "minus"),
                        pieces.data(grid.x[i0:], "plus")]), times)
    ec0, ecm = whole_eclass_norms(times, grid.x, w, eps, cfg.eclass_m)
    return {
        "epsilon": eps,
        "err_l2": whole_jump_error_l2(times, grid.x, u, limit[:, :i0 + 1],
                                      limit[:, i0 + 1:]),
        "residual_l2": whole_residual_report(times, a, grid,
                                             eps).l2_residual,
        "ec0": ec0,
        "ecm": ecm,
        "nx": grid.n,
        "drift_max": traj.drift_max,
    }


# === the steps before their shared set-up ===

def reaction_term(u, V, H):
    """F(u, V, H) = |V|^2 u + u x H - u x (u x H), broadcast over the
    leading axes, from numpy's own cross product and sum."""
    uxH = np.cross(u, H)
    return np.sum(V * V, axis=-1)[..., None] * u + uxH - np.cross(u, uxH)


def broadcast_stencil(coeffs, u: np.ndarray) -> np.ndarray:
    """3-point weights (a, b, c), each (n,), applied along the node axis
    of u (..., n, 3), broadcast from (n, 1) over the components."""
    a, b, c = (w[:, None] for w in coeffs)
    out = b * u
    out[..., 1:, :] += a[1:] * u[..., :-1, :]
    out[..., :-1, :] += c[:-1] * u[..., 1:, :]
    return out


def reference_step_full(u, v, t, dt, grid, cfg, source=None):
    """full_model.step_full on the grid, with the broadcast stencils,
    the textbook reaction term and the stray field (-u1, 0, 0) built as
    a field."""
    coef = 0.5 * dt * cfg.epsilon**2
    V = cfg.epsilon * broadcast_stencil(d1_coefficients(grid.x), v)
    g = reaction_term(v, V, stray_field_slab(v))
    if source is not None:
        g = g + source(t + 0.5 * dt, grid.x)
    d2 = d2_coefficients(grid.x)
    a, b, c = d2
    B = inv_id_plus_cross(v)
    rhs = (np.einsum("nij,nj->ni", B, u + dt * g)
           + coef * broadcast_stencil(d2, u))
    diagonal = np.einsum("nii->ni", B)
    diagonal -= coef * b[:, None]
    u_new = block_tridiag_solve(-coef * a, B, -coef * c, rhs)
    drift = float(np.max(np.abs(norm3(u_new) - 1.0)))
    return u_new, drift


def reference_sweep(y, times, w_k, coeff, f_minus, f_plus):
    """internal_layer._sweep with every matrix, coupling and forcing
    built anew at each step, and the broadcast stencil."""
    ny = y.size
    j0 = ny // 2
    d2 = d2_coefficients(y)
    a, b, c = d2
    hm = y[j0] - y[j0 - 1]
    hp = y[j0 + 1] - y[j0]
    eye = np.eye(3)
    f = np.concatenate([f_minus[..., :-1, :], f_plus], axis=-2)

    new = np.empty((times.size - 1,) + w_k.shape)
    for j in range(times.size - 1):
        dt = times[j + 1] - times[j]
        half = 0.5 * dt
        f_mid = 0.5 * (f[j] + f[j + 1])
        B = inv_id_plus_cross(0.5 * (coeff[j] + coeff[j + 1]))
        rhs = np.einsum("...ij,...j->...i", B, w_k + dt * f_mid) \
            + half * broadcast_stencil(d2, w_k)
        diagonal = np.einsum("...ii->...i", B)
        diagonal -= half * b[:, None]
        lower = -half * a
        upper = -half * c
        for row in (0, ny - 1):
            lower[row] = 0.0
            upper[row] = 0.0
            B[row] = eye
            rhs[row] = 0.0
        mj_inv = inv_id_plus_cross(coeff[j + 1][j0])
        lower[j0] = -1.0 / hm
        upper[j0] = -1.0 / hp
        B[j0] = (1.0 / hm + 1.0 / hp) * eye \
            + ((hm + hp) / (2.0 * dt)) * mj_inv
        rhs[j0] = (((hm + hp) / (2.0 * dt)) * (mj_inv @ w_k[j0])
                   + 0.5 * hm * (mj_inv @ f_minus[j + 1][-1])
                   + 0.5 * hp * (mj_inv @ f_plus[j + 1][0]))
        w_k = block_tridiag_solve(lower, B, upper, rhs)
        new[j] = w_k
    return new
