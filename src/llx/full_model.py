"""Full exchange model on the slab: quasilinear diffusion plus precession.

The equation marched here, for magnetization u(t, x) on (-1, 1) with
homogeneous Neumann walls, is

    du/dt = eps^2 uxx + eps^2 u x uxx + F(u, eps ux, H(u)),
    F(u, V, H) = |V|^2 u + u x H - u x (u x H),      H(u) = (-u1, 0, 0).

Time stepping is linearly implicit with theta fixed at 1/2: half of the
stiff quasilinear part eps^2 (I + [v]x) uxx is taken at the old level,
half implicitly at the new one, with the matrix and the explicit F
(limit_model.F_slab, F_rhs with H(u) written out) both frozen at a
state v approximating u at the step's midpoint. Each row of the step's
system is premultiplied by (I + [v]x)^-1, so the explicit half is
plain eps^2 uxx / 2 and the implicit one couples neighbours by scalars
(banded module docstring).
After the first accepted step v is extrapolated from
the last two accepted states, v = u + (tau / 2 tau_prev)(u - u_prev),
as in Akrivis, Feischl, Kovacs & Lubich, Math. Comp. 90 (2021), so
each step costs one banded solve. The first step has no earlier state:
each of its attempts takes v as the mean of u and one extra solve
frozen at u, so the run starts at second order too. Both time and
space errors are second order, and at eps = 0 the scheme degenerates
to the explicit scheme u+ = u + tau F(v) of the limit flow, its first
step the explicit midpoint rule. Besides the banded solve a step does
only the arithmetic its state needs: the stencil weights are laid out
(n, 3) once per grid (geometry.field_weights), and the diagonal shift
runs one component at a time, and the norms that measure a step's
drift also project it back onto the sphere. FullMarch yields the
state at each output time as it goes, so a caller that walks the
levels holds only the ones it still reads; simulate_full collects
every level into an anonymous mapping of its own, outside the heap.

Contains:
- Grid1D / make_epsilon_grid: single-valued meshes, layer-refined
- output_times / substeps: a run's output times, {0, T} joined with
  requested ones, and the nominal substep count of one output interval
- FullModelConfig, step_full
- FullMarch: the march, one output time at a time
- simulate_full / FullTrajectory: every output time of a march, stored
- residual_report / ResidualReport: a-posteriori defect of any
  space-time field against the equation above; ResidualWalk: its
  sums one block of levels at a time
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .banded import (block_tridiag_solve, cross, dot3, inv_id_plus_cross,
                     norm3)
from .errors import SolverAbort
from .geometry import (apply_tridiagonal_stencil, d1_coefficients,
                       d2_coefficients, field_weights, level_blocks,
                       mirrored, nodes, one_sided_d1, time_d1, x_squares)
from .limit_model import F_slab, renormalize as project_sphere


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
    """Precomputed stencils for one grid: the D2 weights (a, b, c),
    each (n,), and both stencils' weights laid out (n, 3) for fields
    (geometry.field_weights)."""

    def __init__(self, grid: Grid1D):
        self.grid = grid
        self.d2_nodes = d2_coefficients(grid.x)
        self.d2 = tuple(map(field_weights, self.d2_nodes))
        self.d1 = tuple(map(field_weights, d1_coefficients(grid.x)))


def _forcing(u: np.ndarray, epsilon: float, ws: _Workspace) -> np.ndarray:
    V = epsilon * apply_tridiagonal_stencil(ws.d1, u)
    return F_slab(u, V)


def step_full(u: np.ndarray, v: np.ndarray, t: float, dt: float,
              ws: _Workspace, cfg: FullModelConfig,
              source: Optional[Callable] = None):
    """One linearly implicit step from time t; returns (u_new, drift,
    norms).

    The matrix M = I + [v]x of the theta = 1/2 diffusion and the
    explicit forcing are frozen at v, the caller's approximation of
    u(t + dt/2); the source is taken at t + dt/2. The system
    (I - s M D2) u_new = u + s M D2 u + dt g, s = dt eps^2 / 2, is
    solved premultiplied by M^-1: diagonal blocks M^-1 - s b I and
    scalar couplings -s a, -s c from the D2 weights (a, b, c), right
    side M^-1 (u + dt g) + s D2 u. norms is |u_new| per node before
    any projection, and drift its largest deviation from 1, the
    quantity the step-size guard watches.
    """
    coef = 0.5 * dt * cfg.epsilon**2
    g = _forcing(v, cfg.epsilon, ws)
    if source is not None:
        g = g + source(t + 0.5 * dt, ws.grid.x)
    a, b, c = ws.d2_nodes
    # B holds M^-1 until its diagonal is shifted below
    B = inv_id_plus_cross(v)
    rhs = (np.einsum("nij,nj->ni", B, u + dt * g)
           + coef * apply_tridiagonal_stencil(ws.d2, u))
    shift = coef * b
    for i in range(3):
        B[:, i, i] -= shift
    u_new = block_tridiag_solve(-coef * a, B, -coef * c, rhs)
    norms = norm3(u_new)
    drift = float(np.max(np.abs(norms - 1.0)))
    return u_new, drift, norms


def _trajectory_buffer(shape: tuple) -> np.ndarray:
    """An uninitialised float array in an anonymous mapping of its own.

    A run's values are the largest array a march makes, and they outlive
    it. Taken from the heap, the space they leave when dropped is reused
    by a later array of similar size, or not, depending on where earlier
    small arrays happened to land, so a process's peak resident size
    would differ from one run to the next by the size of a trajectory.
    A mapping of their own goes back to the system when they are
    dropped, whatever the heap looks like. The mapping is private, so a
    forked worker never shares it.
    """
    count = int(np.prod(shape))
    buffer = mmap.mmap(-1, 8 * count,
                       flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    return np.frombuffer(buffer, count=count).reshape(shape)


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


class FullMarch:
    """The full model marched to cfg.T, one output time at a time.

    Iterating it yields u at each output time, u0 first: {0, T} joined
    with t_eval (times), every one hit exactly. Each output interval has
    a nominal step, the uniform substep of at most cfg.dt that divides
    it. A step whose pre-projection norm drift exceeds cfg.drift_tol is
    redone at half the size, up to MAX_HALVINGS times in a row, after
    which the march aborts; a redone step extrapolates its midpoint from
    the same two accepted states, with the new size. An accepted step is
    projected back onto the unit sphere, through the norms its drift was
    taken from. After an accepted step of drift d the next step is grow
    times this one, at most the nominal, with
    grow = min(2, 0.9 sqrt(drift_tol / d)), or 2 when d = 0, an
    elementary controller (Soderlind, Numer. Algorithms 31, 2002); a
    step shortened to land on an output time leaves the size as it
    was. A size the controller cut below the nominal carries over an
    output time, limited by the next interval's nominal; any other
    interval starts at its own nominal, so a march that never nears the
    tolerance takes the uniform nominal steps.

    drift_max (the largest pre-projection norm deviation of an accepted
    step), steps_taken and halvings_used (step halvings forced by the
    drift guard) count the steps marched so far. The yielded states are
    the march's own: a caller copies one before writing to it. The
    initial data and the output times are checked when the march is
    built, before any step.
    """

    def __init__(self, u0: np.ndarray, grid: Grid1D, cfg: FullModelConfig,
                 t_eval: Optional[Sequence[float]] = None,
                 source: Optional[Callable] = None):
        u0 = np.asarray(u0, dtype=float)
        if u0.shape != (grid.n, 3):
            raise ValueError(
                f"initial data shape {u0.shape} does not match grid "
                f"({grid.n}, 3)")
        self.times = output_times(cfg.T, t_eval)
        self.drift_max = 0.0
        self.steps_taken = 0
        self.halvings_used = 0
        self._levels = self._march(u0, _Workspace(grid), cfg, source)

    def __iter__(self):
        return self

    def __next__(self) -> np.ndarray:
        return next(self._levels)

    def _march(self, u, ws, cfg, source):
        times = self.times
        yield u
        # the last accepted state and its step, for the midpoint extrapolation
        u_prev, tau_prev = None, None
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
                    u_star, _, _ = step_full(u, u, t, tau_step, ws, cfg,
                                             source=source)
                    v = 0.5 * (u + u_star)
                else:
                    v = u + (0.5 * tau_step / tau_prev) * (u - u_prev)
                u_next, drift, norms = step_full(u, v, t, tau_step, ws, cfg,
                                                 source=source)
                if drift > cfg.drift_tol:
                    consecutive += 1
                    self.halvings_used += 1
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
                self.drift_max = max(self.drift_max, drift)
                u_prev, tau_prev = u, tau_step
                u = project_sphere(u_next, norms)
                t += tau_step
                self.steps_taken += 1
                # drift-ratio control: for drift growing like tau^p with
                # 0 < p < 4 (jump data opens at p = 1), a drift-limited
                # march settles at drift 0.81 drift_tol
                if tau_step == tau:
                    grow = (min(2.0, 0.9 * np.sqrt(cfg.drift_tol / drift))
                            if drift > 0.0 else 2.0)
                    tau = min(grow * tau, tau_nominal)
            yield u


def simulate_full(u0: np.ndarray, grid: Grid1D, cfg: FullModelConfig,
                  t_eval: Optional[Sequence[float]] = None,
                  source: Optional[Callable] = None) -> FullTrajectory:
    """March the full model to cfg.T (FullMarch), recording every output
    time in a mapping of its own (_trajectory_buffer)."""
    march = FullMarch(u0, grid, cfg, t_eval, source)
    values = _trajectory_buffer((march.times.size, grid.n, 3))
    for k, u in enumerate(march):
        values[k] = u
    return FullTrajectory(times=march.times, values=values, grid=grid,
                          drift_max=march.drift_max,
                          steps_taken=march.steps_taken,
                          halvings_used=march.halvings_used)


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


class ResidualWalk:
    """residual_report's sums, one block of levels at a time.

    add takes a block start..stop through its window values[lo:hi],
    which must reach one level past each end of the block that is not
    an end of times (geometry.level_blocks with halo >= 1), and leaves
    the block's levels' squared L2 norms and largest entries, its
    largest one-sided wall derivative and its largest deviation of
    |u|^2 from 1. report ends the norms once every level was added: a
    trapezoid in time for the L2 norm, a maximum for the others. The
    time derivative is np.gradient's centered difference read from the
    window (geometry.time_d1), so the report is the whole-array
    evaluation's bit for bit, with no temporary larger than one window.
    """

    def __init__(self, times: np.ndarray, grid: Grid1D, epsilon: float,
                 source: Optional[Callable] = None):
        self.times = np.asarray(times, dtype=float)
        if self.times.size < 3:
            raise ValueError("need at least 3 time slices for a residual")
        self.grid, self.epsilon, self.source = grid, epsilon, source
        self.ws = _Workspace(grid)
        self.squares = np.empty(self.times.size - 2)
        self.peaks = np.empty(self.times.size - 2)
        self.neumann = []
        self.norms = []

    def add(self, window: np.ndarray, lo: int, start: int,
            stop: int) -> None:
        times, x, ws = self.times, self.grid.x, self.ws
        block = window[start - lo:stop - lo]
        self.norms.append(np.max(np.abs(dot3(block, block) - 1.0)))
        self.neumann.append(max(np.max(np.abs(one_sided_d1(x, block, end)))
                              for end in ("left", "right")))
        inside = slice(max(start, 1), min(stop, times.size - 1))
        u = window[inside.start - lo:inside.stop - lo]
        d2u = apply_tridiagonal_stencil(ws.d2, u)
        g = _forcing(u, self.epsilon, ws)
        if self.source is not None:
            g = g + np.reshape([self.source(t, x) for t in times[inside]],
                               u.shape)
        rhs = self.epsilon**2 * (d2u + cross(u, d2u)) + g
        residual = (time_d1(times, window, lo, inside) - rhs)[:, 1:-1]
        rows = slice(inside.start - 1, inside.stop - 1)
        self.squares[rows] = x_squares(x[1:-1], residual)
        self.peaks[rows] = np.max(np.abs(residual), axis=(1, 2))

    def report(self) -> ResidualReport:
        l2 = float(np.sqrt(np.trapezoid(self.squares, self.times[1:-1])))
        return ResidualReport(l2_residual=l2,
                              max_residual=float(np.max(self.peaks)),
                              neumann_defect=float(np.max(self.neumann)),
                              norm_defect=float(np.max(self.norms)))


def residual_report(times: np.ndarray, values: np.ndarray, grid: Grid1D,
                    epsilon: float,
                    source: Optional[Callable] = None) -> ResidualReport:
    """Measure how well values[k] = u(times[k], grid.x) solves the model.

    values has shape (nt, n, 3) with nt >= 3. The interior residual uses
    the same second-order stencils as the solver, so smooth fields score
    O(dt^2 + h^2). The levels are walked in blocks
    (geometry.level_blocks) with a halo of one level, through
    ResidualWalk.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.shape != (times.size, grid.n, 3):
        raise ValueError(
            f"values shape {values.shape} does not match "
            f"({times.size}, {grid.n}, 3)")
    walk = ResidualWalk(times, grid, epsilon, source)
    for lo, start, stop, hi in level_blocks(times.size, 1):
        walk.add(values[lo:hi], lo, start, stop)
    return walk.report()
