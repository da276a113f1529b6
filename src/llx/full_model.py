"""Full exchange model on the slab: quasilinear diffusion plus precession.

The equation marched here, for magnetization u(t, x) on (-1, 1) with
homogeneous Neumann walls, is

    du/dt = eps^2 uxx + eps^2 u x uxx + F(u, eps ux, H(u)),
    F(u, V, H) = |V|^2 u + u x H - u x (u x H),      H(u) = (-u1, 0, 0).

Time stepping is a theta-weighted predictor/corrector with theta fixed
at 1/2: half of the stiff quasilinear part eps^2 (I + [v]x) uxx is
taken at the old level, half implicitly at the new one, with the matrix
frozen at the old state (predictor) and then at the midpoint state
(corrector); F (limit_model.F_rhs) stays explicit, evaluated at the
same states. Both time and space errors are second order, and at
eps = 0 the scheme degenerates to the explicit midpoint rule of the
limit flow.

Contains:
- Grid1D / make_epsilon_grid: single-valued meshes, layer-refined
- FullModelConfig, step_full, simulate_full, FullTrajectory
- l2_space_time: composite-trapezoid space-time L2 norm
- residual_report / ResidualReport: a-posteriori defect of any
  space-time field against the equation above
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .banded import block_tridiag_solve, cross_matrix
from .errors import SolverAbort
from .geometry import (apply_tridiagonal_stencil, d1_coefficients,
                       d2_coefficients, mirrored, nodes, one_sided_d1)
from .limit_model import (F_rhs, output_times, renormalize as project_sphere,
                          substeps)
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
    renormalize: bool = True

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


def _implicit_solve(v: np.ndarray, coef: float, ws: _Workspace,
                    rhs: np.ndarray) -> np.ndarray:
    """Solve (I - coef M D2) w = rhs with M = I + [v]x frozen."""
    a, b, c = ws.d2
    n = ws.grid.n
    M = np.broadcast_to(np.eye(3), (n, 3, 3)) + cross_matrix(v)
    A = -coef * a[:, None, None] * M
    B = np.broadcast_to(np.eye(3), (n, 3, 3)) - coef * b[:, None, None] * M
    C = -coef * c[:, None, None] * M
    return block_tridiag_solve(A, B, C, rhs)


def _explicit_diffusion(u: np.ndarray, v: np.ndarray, coef: float,
                        ws: _Workspace) -> np.ndarray:
    """coef M D2 u with the frozen matrix at v."""
    d2u = apply_tridiagonal_stencil(ws.d2, u)
    return coef * (d2u + np.cross(v, d2u))


def step_full(u: np.ndarray, t: float, dt: float, ws: _Workspace,
              cfg: FullModelConfig,
              source: Optional[Callable] = None):
    """One predictor/corrector step from time t; returns (u_new, drift).

    drift is the largest deviation of |u_new| from 1 before any
    projection, the quantity the step-size guard watches.
    """
    # theta = 1/2: half the diffusion at the old level, half implicit
    coef = 0.5 * dt * cfg.epsilon**2

    def explicit_rhs(state, v_frozen, t_src):
        g = _forcing(state, cfg.epsilon, ws)
        if source is not None:
            g = g + source(t_src, ws.grid.x)
        return u + _explicit_diffusion(u, v_frozen, coef, ws) + dt * g

    # predictor: everything frozen at the old state
    u_star = _implicit_solve(u, coef, ws, explicit_rhs(u, u, t))
    # corrector: re-solve with matrix and forcing at the midpoint
    u_mid = 0.5 * (u + u_star)
    u_new = _implicit_solve(u_mid, coef, ws,
                            explicit_rhs(u_mid, u_mid, t + 0.5 * dt))
    drift = float(np.max(np.abs(np.linalg.norm(u_new, axis=-1) - 1.0)))
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

    Output times are {0, T} joined with t_eval, each hit exactly by
    uniform substeps of at most cfg.dt. When renormalization is on, a
    step whose pre-projection norm drift exceeds cfg.drift_tol causes
    the step to be redone at half the size, up to MAX_HALVINGS times in
    a row, after which the run aborts.
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
    drift_max = 0.0
    steps_taken = 0
    halvings_total = 0

    for k in range(times.size - 1):
        t0, t1 = times[k], times[k + 1]
        span = t1 - t0
        tau_nominal = span / substeps(span, cfg.dt)
        # adaptive sub-stepping within the interval: a rejected step is
        # halved in place (rough data needs tiny opening steps while the
        # layer is still under-resolved); accepted steps double back
        # toward the nominal size, so smooth runs march uniformly
        t = t0
        tau = tau_nominal
        consecutive = 0
        while t < t1 - 1e-12 * max(span, 1.0):
            tau_step = min(tau, t1 - t)
            u_next, drift = step_full(u, t, tau_step, ws, cfg,
                                      source=source)
            if cfg.renormalize and drift > cfg.drift_tol:
                consecutive += 1
                halvings_total += 1
                if consecutive > MAX_HALVINGS:
                    raise SolverAbort(
                        f"step at t={t:.6g} halved {MAX_HALVINGS} "
                        f"times without meeting the drift tolerance "
                        f"(last drift {drift:.3e})")
                tau = tau_step / 2.0
                continue
            consecutive = 0
            drift_max = max(drift_max, drift)
            if cfg.renormalize:
                u_next = project_sphere(u_next)
            u = u_next
            t += tau_step
            steps_taken += 1
            tau = min(2.0 * tau_step, tau_nominal)
        values[k + 1] = u
    return FullTrajectory(times=times, values=values, grid=grid,
                          drift_max=drift_max, steps_taken=steps_taken,
                          halvings_used=halvings_total)


# === a-posteriori residual ===

def l2_space_time(times: np.ndarray, x: np.ndarray,
                  values: np.ndarray) -> float:
    """Composite-trapezoid L2([0,T] x Omega) norm of a vector field."""
    values = np.asarray(values, dtype=float)
    if values.shape[:2] != (np.size(times), np.size(x)):
        raise ValueError(
            f"values shape {values.shape} does not match "
            f"({np.size(times)}, {np.size(x)}, ...)")
    sq = np.sum(values * values, axis=-1)
    inner = np.trapezoid(sq, x, axis=1)
    return float(np.sqrt(np.trapezoid(inner, times)))


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
    O(dt^2 + h^2).
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
    du_dt = np.gradient(values, times, axis=0)

    # slice by slice: the whole stack at once would hold several
    # (nt, n, 3) temporaries, 2.5x the peak memory of this loop
    residuals = np.empty((times.size - 2, grid.n - 2, 3))
    for k in range(1, times.size - 1):
        u = values[k]
        d2u = apply_tridiagonal_stencil(ws.d2, u)
        g = _forcing(u, epsilon, ws)
        if source is not None:
            g = g + source(times[k], grid.x)
        rhs = epsilon**2 * (d2u + np.cross(u, d2u)) + g
        residuals[k - 1] = (du_dt[k] - rhs)[1:-1]
    l2 = l2_space_time(times[1:-1], grid.x[1:-1], residuals)
    max_r = float(np.max(np.abs(residuals)))

    walls = np.moveaxis(values, 1, 0)
    nd = float(max(np.max(np.abs(one_sided_d1(grid.x, walls, end)))
                   for end in ("left", "right")))
    norm_defect = float(np.max(np.abs(np.sum(values**2, axis=-1) - 1.0)))
    return ResidualReport(l2_residual=l2, max_residual=max_r,
                          neumann_defect=nd, norm_defect=norm_defect)
