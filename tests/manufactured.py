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
"""

from __future__ import annotations

import numpy as np
import sympy as sp

from llx.full_model import output_times, substeps
from llx.internal_layer import _sweep, halves
from llx.limit_model import renormalize, rhs_limit


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
    """One column of the stacked march from W = 0; coeff, f_minus and
    f_plus are (nt, ny, 3) on the whole mesh, and each side's forcing is
    handed on its own half-line. Returns W (nt, ny, 3)."""
    W = np.zeros((times.size, y.size, 3))
    (minus, _), (plus, _) = halves(y.size)
    W[1:] = _sweep(y, times, W[:1], coeff[:, None],
                   f_minus[:, None, minus], f_plus[:, None, plus])[:, 0]
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
