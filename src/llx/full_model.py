"""Full exchange model on the slab: quasilinear diffusion plus precession.

The equation marched here, for magnetization u(t, x) on (-1, 1) with
homogeneous Neumann walls, is

    du/dt = eps^2 uxx + eps^2 u x uxx + F(u, eps ux, H(u)),
    F(u, V, H) = |V|^2 u + u x H - u x (u x H),      H(u) = (-u1, 0, 0).

Time stepping is linearly implicit with theta fixed at 1/2: half of the
stiff quasilinear part eps^2 (I + [v]x) uxx is taken at the old level,
half implicitly at the new one, with the matrix and the explicit F
(limit_model.F_rhs) both frozen at a state v approximating u at the
step's midpoint. Each row of the step's system is premultiplied by
(I + [v]x)^-1, so the explicit half is plain eps^2 uxx / 2 and the
implicit one couples neighbours by scalars (banded module docstring).
After the first accepted step v is extrapolated from
the last two accepted states, v = u + (tau / 2 tau_prev)(u - u_prev),
as in Akrivis, Feischl, Kovacs & Lubich, Math. Comp. 90 (2021), so
each step costs one banded solve. The first step has no earlier state:
each of its attempts takes v as the mean of u and one extra solve
frozen at u, so the run starts at second order too. Both time and
space errors are second order, and at eps = 0 the scheme degenerates
to the explicit scheme u+ = u + tau F(v) of the limit flow, its first
step the explicit midpoint rule.

Contains:
- Grid1D / make_epsilon_grid: single-valued meshes, layer-refined
- output_times / substeps: a run's output times, {0, T} joined with
  requested ones, and the nominal substep count of one output interval
- FullModelConfig, step_full, simulate_full, FullTrajectory
- residual_report / ResidualReport: a-posteriori defect of any
  space-time field against the equation above
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .banded import (block_tridiag_solve, cross, dot3, inv_id_plus_cross,
                     norm3)
from .errors import SolverAbort
from .geometry import (apply_tridiagonal_stencil, d1_coefficients,
                       d2_coefficients, level_blocks, mirrored, nodes,
                       one_sided_d1, time_d1, x_squares)
from .limit_model import F_rhs, renormalize as project_sphere
from .strayfield import stray_field_slab


# === meshes ===

@dataclass(frozen=True)
class Grid1D:
    """Strictly increasing nodes spanning [-1, 1], interface node once."""

    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 1 or x.size < 5:
            raise ValueError(f"need at least 5 nodes, got shape {x.shape}")
        if not (np.all(np.diff(x) > 0) and x[0] == -1.0 and x[-1] == 1.0):
            raise ValueError("nodes must increase strictly from -1 to 1")

    @property
    def n(self) -> int:
        return self.x.size


def _half_widths(h_fine: float, band: float) -> np.ndarray:
    """Cell widths covering [0, 1/2]: fine band, cells growing by 1.15
    up to max(1/48, h_fine), globally rescaled to land exactly on 1/2."""
    h_max = max(1.0 / 48.0, h_fine)
    widths = []
    cum = 0.0
    h = h_fine
    while cum < band and cum < 0.5:
        widths.append(h_fine)
        cum += h_fine
    while cum < 0.5:
        h = min(h * 1.15, h_max)
        widths.append(h)
        cum += h
    w = np.array(widths)
    return w * (0.5 / cum)


def make_epsilon_grid(epsilon: float, cells_per_eps: int) -> Grid1D:
    """Layer-refined mesh: spacing eps/cells_per_eps within 15 eps of
    the interface and both walls, geometric coarsening to 1/48 in
    between. Each side of the interface is symmetric about its
    midpoint, so the whole mesh is symmetric about x = 0.
    """
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if cells_per_eps < 4:
        raise ValueError(f"cells_per_eps must be at least 4, got {cells_per_eps}")
    half = _half_widths(epsilon / cells_per_eps, 15.0 * epsilon)
    # one side = fine at interface -> coarse at 0.5 -> fine at wall
    side = np.concatenate([half, half[::-1]])
    return Grid1D(x=mirrored(nodes(side, 1.0)))


# === time stepping ===

def output_times(T: float, t_eval: Optional[Sequence[float]]) -> np.ndarray:
    """Sorted output times: {0, T} joined with t_eval.

    Requested times must lie in [0, T]; one overshooting T by rounding
    (1e-12 relative) is taken as T.
    """
    marks = {0.0, float(T)}
    if t_eval is not None:
        for t in t_eval:
            t = float(t)
            if not 0.0 <= t <= T + 1e-12 * max(1.0, T):
                raise ValueError(f"output time {t} outside [0, {T}]")
            marks.add(min(t, float(T)))
    return np.array(sorted(marks))


def substeps(span: float, dt: float) -> int:
    """Number of uniform substeps of size at most dt covering span."""
    return max(1, int(np.ceil(span / dt - 1e-12)))


# consecutive halvings of one step the drift guard allows before the
# run aborts
MAX_HALVINGS = 10


@dataclass
class FullModelConfig:
    """Parameters of a full-model run."""

    epsilon: float
    dt: float
    T: float
    drift_tol: float

    def __post_init__(self):
        if self.epsilon < 0.0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.dt <= 0.0 or self.T <= 0.0:
            raise ValueError(
                f"dt and T must be positive, got dt={self.dt}, T={self.T}")


class _Workspace:
    """Precomputed stencils for one grid."""

    def __init__(self, grid: Grid1D):
        self.grid = grid
        self.d2 = d2_coefficients(grid.x)
        self.d1 = d1_coefficients(grid.x)


def _forcing(u: np.ndarray, epsilon: float, ws: _Workspace) -> np.ndarray:
    V = epsilon * apply_tridiagonal_stencil(ws.d1, u)
    return F_rhs(u, V, stray_field_slab(u))


def step_full(u: np.ndarray, v: np.ndarray, t: float, dt: float,
              ws: _Workspace, cfg: FullModelConfig,
              source: Optional[Callable] = None):
    """One linearly implicit step from time t; returns (u_new, drift).

    The matrix M = I + [v]x of the theta = 1/2 diffusion and the
    explicit forcing are frozen at v, the caller's approximation of
    u(t + dt/2); the source is taken at t + dt/2. The system
    (I - s M D2) u_new = u + s M D2 u + dt g, s = dt eps^2 / 2, is
    solved premultiplied by M^-1: diagonal blocks M^-1 - s b I and
    scalar couplings -s a, -s c from the D2 weights (a, b, c), right
    side M^-1 (u + dt g) + s D2 u. drift is the largest
    deviation of |u_new| from 1 before any projection, the quantity
    the step-size guard watches.
    """
    coef = 0.5 * dt * cfg.epsilon**2
    g = _forcing(v, cfg.epsilon, ws)
    if source is not None:
        g = g + source(t + 0.5 * dt, ws.grid.x)
    a, b, c = ws.d2
    # B holds M^-1 until its diagonal is shifted below
    B = inv_id_plus_cross(v)
    rhs = (np.einsum("nij,nj->ni", B, u + dt * g)
           + coef * apply_tridiagonal_stencil(ws.d2, u))
    diagonal = np.einsum("nii->ni", B)
    diagonal -= coef * b[:, None]
    u_new = block_tridiag_solve(-coef * a, B, -coef * c, rhs)
    drift = float(np.max(np.abs(norm3(u_new) - 1.0)))
    return u_new, drift


@dataclass(frozen=True)
class FullTrajectory:
    """Full-model values at requested output times.

    drift_max is the largest pre-projection norm deviation seen in any
    accepted step; halvings_used counts step halvings forced by the
    drift guard.
    """

    times: np.ndarray
    values: np.ndarray
    grid: Grid1D
    drift_max: float
    steps_taken: int
    halvings_used: int


def simulate_full(u0: np.ndarray, grid: Grid1D, cfg: FullModelConfig,
                  t_eval: Optional[Sequence[float]] = None,
                  source: Optional[Callable] = None) -> FullTrajectory:
    """March the full model to cfg.T, recording requested output times.

    Output times are {0, T} joined with t_eval, and every one is hit
    exactly. Each output interval has a nominal step, the uniform
    substep of at most cfg.dt that divides it. A step whose
    pre-projection norm drift exceeds cfg.drift_tol is redone at half
    the size, up to MAX_HALVINGS times in a row, after which the run
    aborts; a redone step extrapolates its midpoint from the same two
    accepted states, with the new size. An accepted step is projected
    back onto the unit sphere. After an accepted step of drift d the
    next step is grow times this one, at most the nominal, with
    grow = min(2, 0.9 sqrt(drift_tol / d)), or 2 when d = 0, an
    elementary controller (Soderlind, Numer. Algorithms 31, 2002); a
    step shortened to land on an output time leaves the size as it
    was. A size the controller cut below the nominal carries over an
    output time, limited by the next interval's nominal; any other
    interval starts at its own nominal, so a run that never nears the
    tolerance marches the uniform nominal steps.
    """
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (grid.n, 3):
        raise ValueError(
            f"initial data shape {u0.shape} does not match grid ({grid.n}, 3)")
    ws = _Workspace(grid)
    times = output_times(cfg.T, t_eval)

    values = np.empty((times.size, grid.n, 3))
    values[0] = u0
    u = u0
    # the last accepted state and its step, for the midpoint extrapolation
    u_prev, tau_prev = None, None
    drift_max = 0.0
    steps_taken = 0
    halvings_total = 0
    # the controller's step size and the nominal it is held below
    tau = tau_nominal = np.inf

    for k in range(times.size - 1):
        t0, t1 = times[k], times[k + 1]
        span = t1 - t0
        cut = tau < tau_nominal
        tau_nominal = span / substeps(span, cfg.dt)
        # restarting a drift-limited march at the nominal would make it
        # halve its way back down at every output time
        tau = min(tau, tau_nominal) if cut else tau_nominal
        t = t0
        consecutive = 0
        while t < t1 - 1e-12 * max(span, 1.0):
            tau_step = min(tau, t1 - t)
            if u_prev is None:
                # starting procedure: a solve frozen at u predicts the
                # end of the step, and v is the mean
                u_star, _ = step_full(u, u, t, tau_step, ws, cfg,
                                      source=source)
                v = 0.5 * (u + u_star)
            else:
                v = u + (0.5 * tau_step / tau_prev) * (u - u_prev)
            u_next, drift = step_full(u, v, t, tau_step, ws, cfg,
                                      source=source)
            if drift > cfg.drift_tol:
                consecutive += 1
                halvings_total += 1
                if consecutive > MAX_HALVINGS:
                    raise SolverAbort(
                        f"step at t={t:.6g} halved {MAX_HALVINGS} "
                        f"times without meeting the drift tolerance "
                        f"(last drift {drift:.3e})")
                # rough data needs tiny opening steps while the layer
                # is still under-resolved
                tau = tau_step / 2.0
                continue
            consecutive = 0
            drift_max = max(drift_max, drift)
            u_prev, tau_prev = u, tau_step
            u = project_sphere(u_next)
            t += tau_step
            steps_taken += 1
            # drift-ratio control: for drift growing like tau^p with
            # 0 < p < 4 (jump data opens at p = 1), a drift-limited
            # march settles at drift 0.81 drift_tol
            if tau_step == tau:
                grow = (min(2.0, 0.9 * np.sqrt(cfg.drift_tol / drift))
                        if drift > 0.0 else 2.0)
                tau = min(grow * tau, tau_nominal)
        values[k + 1] = u
    return FullTrajectory(times=times, values=values, grid=grid,
                          drift_max=drift_max, steps_taken=steps_taken,
                          halvings_used=halvings_total)


# === a-posteriori residual ===

@dataclass(frozen=True)
class ResidualReport:
    """Defect of a space-time field against the full model.

    l2_residual and max_residual measure the interior equation defect
    (walls and the first/last time slice excluded, time derivative by
    centered differences). neumann_defect is the largest one-sided
    wall derivative over the sampled times; norm_defect the largest
    deviation of |u|^2 from 1.
    """

    l2_residual: float
    max_residual: float
    neumann_defect: float
    norm_defect: float


def residual_report(times: np.ndarray, values: np.ndarray, grid: Grid1D,
                    epsilon: float,
                    source: Optional[Callable] = None) -> ResidualReport:
    """Measure how well values[k] = u(times[k], grid.x) solves the model.

    values has shape (nt, n, 3) with nt >= 3. The interior residual uses
    the same second-order stencils as the solver, so smooth fields score
    O(dt^2 + h^2). The levels are walked in blocks
    (geometry.level_blocks), the time derivative np.gradient's centered
    difference read from one level past each end (geometry.time_d1);
    each block leaves its levels' squared L2 norms and largest entries,
    and a trapezoid in time ends the L2 norm. The report is the
    whole-array evaluation's bit for bit, with no temporary larger than
    one level block.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.shape != (times.size, grid.n, 3):
        raise ValueError(
            f"values shape {values.shape} does not match "
            f"({times.size}, {grid.n}, 3)")
    if times.size < 3:
        raise ValueError("need at least 3 time slices for a residual")
    ws = _Workspace(grid)
    x_in = grid.x[1:-1]
    squares = np.empty(times.size - 2)
    peaks = np.empty(times.size - 2)
    norms = []
    for lo, start, stop, hi in level_blocks(times.size, 1):
        block = values[start:stop]
        norms.append(np.max(np.abs(dot3(block, block) - 1.0)))
        inside = slice(max(start, 1), min(stop, times.size - 1))
        u = values[inside]
        d2u = apply_tridiagonal_stencil(ws.d2, u)
        g = _forcing(u, epsilon, ws)
        if source is not None:
            g = g + np.reshape([source(t, grid.x) for t in times[inside]],
                               u.shape)
        rhs = epsilon**2 * (d2u + cross(u, d2u)) + g
        residual = (time_d1(times, values[lo:hi], lo, inside) - rhs)[:, 1:-1]
        rows = slice(inside.start - 1, inside.stop - 1)
        squares[rows] = x_squares(x_in, residual)
        peaks[rows] = np.max(np.abs(residual), axis=(1, 2))
    l2 = float(np.sqrt(np.trapezoid(squares, times[1:-1])))
    max_r = float(np.max(peaks))

    nd = float(max(np.max(np.abs(one_sided_d1(grid.x, values, end)))
                   for end in ("left", "right")))
    norm_defect = float(np.max(norms))
    return ResidualReport(l2_residual=l2, max_residual=max_r,
                          neumann_defect=nd, norm_defect=norm_defect)
