"""Two-scale approximate solution and the epsilon-convergence study.

The approximation at scale eps combines the slow limit state with the
stretched interface and wall profiles:

    a(t, x) = U_int(t, x, x/eps) + eps * (U_wall(t, x, (1-|x|)/eps)
                                          + rho(t, x)),

where U_int = u0 + chi_sigma(x) (W + S_pm)(t, x/eps): the one-sided
limit state u0 plus the transmission increment of the interface x = 0,
weighted by the interface cutoff (u0 alone outside the interface
neighborhood or beyond |y| = Y). This is exact for every accepted
input, whose jump is delta(t, x) = chi_sigma(x) delta(t, 0). U_wall is
the wall profile on its cutoff support, and rho the slow Neumann
corrector. Sampling on a solver grid takes the knots in blocks of
KNOT_BLOCK. The base state is a not-a-knot cubic spline in the slow
direction, each side from its own half (so the blend region never
contaminates it), fitted once per build over every knot and carried by
the pieces; a block evaluates it on its knots' coefficients only, with
the bits of a fit on that block alone. Both layers share one path: once
per pass, each layer side reaching the nodes (either interface half,
either wall) gets its nodes' stretched coordinates and x-weights (the
cutoff chi_sigma for the interface, the wall columns' cardinal
x-weights), and a layer holding only zeros gets no side. Per block the
natural spline in the fast direction is fitted on each side's stored
columns and evaluated at every node's stretched coordinate; a wall
side contracts it with the node's x-weights (the two linear steps in
swapped order), an interface half adds its lift and scales by chi.
Those fits stay per block, since holding them for every knot would
outweigh the stored layers. S and rho are closed form. The wall's
x-weights add an exactly-zero anchor column past its inland support
end.

The convergence study builds the profiles once (they do not depend on
eps), then for each eps: samples the ansatz on an eps-refined grid,
marches the full model from the renormalized ansatz over the pieces'
time grid, and records the distance to the limit state, the ansatz
residual, and the conormal norms of (u - a) / eps at orders 0 and m.
The diagnostics walk the knots in blocks (geometry.level_blocks), so a
row holds a few space-time fields, not one per derivative.

Contains:
- ExpansionPieces / build_expansion_pieces: the eps-independent half,
  on geometry.time_grid, with the base state's x-splines; its horizon
  T_used is the grid's last level
- ExpansionAnsatz: the pieces sampled at one eps
- jump_error_l2: the space-time distance to a two-valued state
- EClassNorms / eclass_norms: conormal norm records
- StudyConfig / ConvergenceReport / convergence_study: the experiment
- fit_slope: log-log least-squares rate
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .banded import dot3
from .boundary_layer import (BoundaryProfile, neumann_corrector,
                             solve_boundary_profile, wall_slopes)
from .errors import ConfigError, NonContraction, SolverAbort
from .fields import MagnetizationField
from .full_model import (FullModelConfig, make_epsilon_grid,
                         residual_report, simulate_full)
from .geometry import (chi_sigma, conormal_weight, in_v_sigma, knot_times,
                       level_blocks, make_profile_grid, make_wall_grid,
                       param_nodes, profile_d1, theta, time_d1, time_grid,
                       x_squares)
from .internal_layer import ProfilePair, halves, lift, picard_profiles
from .interp import (contract_columns, natural_spline_coeffs, spline_eval,
                     spline_rows, x_resample, x_spline)
from .limit_model import (ExtendedLimit, extend_limit, renormalize,
                          simulate_limit)


# === the assembled ansatz ===

# knots sampled together: bounds the block temporaries (knots x nodes x
# wall columns x 3) whatever the number of knots
KNOT_BLOCK = 8


@dataclass(frozen=True)
class ExpansionAnsatz:
    """Sampler for the two-scale approximation at one eps.

    The eps-independent pieces (limit states, the interface profile at
    x = 0, the wall layer and its trace slopes) are shared; eps enters
    only through the stretched coordinates x/eps and (1-|x|)/eps and the
    O(eps) weight.
    """

    pieces: ExpansionPieces
    epsilon: float

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")

    @property
    def times(self) -> np.ndarray:
        return self.pieces.profiles.times

    def knot_index(self, t: float) -> int:
        """Index of t among the stored knots; off-knot times are errors."""
        times = self.times
        k = int(np.searchsorted(times, t))
        if k < times.size and times[k] == t:
            return k
        raise ValueError(
            f"time {t!r} is not a stored knot (spacing "
            f"{np.max(np.diff(times)):g}, end {times[-1]:g})")

    def _base(self, ks: np.ndarray, x: np.ndarray) -> np.ndarray:
        # each side's spline (fitted once per build) on its own half,
        # evaluated on the knots ks only
        out = np.empty((ks.size, x.size, 3))
        left = x < 0.0
        for sel, spline in zip((left, ~left), self.pieces.base):
            if sel.any():
                out[:, sel] = spline_rows(spline, ks, x[sel])
        return out

    def _layer_sides(self, x: np.ndarray) -> list:
        """Each layer side that reaches the nodes x, built once per pass.

        (layer, nodes, knots, cols, s, weights, delta, sign) holds the
        node indices, stretched knots, a view of the stored profile, and
        the nodes' stretched coordinates and x-weights. An interface
        half y < 0 or y >= 0 (the rows of internal_layer.halves) stores
        the one column (nt, ns, 3), weights it by the cutoff chi (nq,)
        and carries its lift as delta and sign. A wall side stores its
        columns (nt, nc, ns, 3), weights them by their cardinal x-weights
        (nq, nc), and has no lift. A layer whose stored data is all zero
        lists no side.
        """
        pair, prof = self.pieces.profiles, self.pieces.boundary
        sides = []
        ys = x / self.epsilon
        nodes = np.flatnonzero(in_v_sigma(x) & (np.abs(ys) <= pair.Y))
        if nodes.size and (pair.W.any() or pair.delta.any()):
            chi = chi_sigma(x[nodes])
            below = ys[nodes] < 0.0
            for sel, (half, sign) in zip((below, ~below),
                                         halves(pair.y.size)):
                if sel.any():
                    sides.append(("interface", nodes[sel], pair.y[half],
                                  pair.W[:, half], ys[nodes[sel]],
                                  chi[sel], pair.delta, sign))
        zs = (1.0 - np.abs(x)) / self.epsilon
        near = (theta(x) > 0.0) & (zs <= prof.Z)
        for sign in (-1.0, 1.0):
            nodes = np.flatnonzero(near & (sign * x > 0.0))
            cols = np.flatnonzero(sign * prof.x_support > 0.0)
            if nodes.size and cols.size >= 2 and prof.U.any():
                # each side's support columns run contiguously to its wall
                i0 = int(np.searchsorted(prof.x_param,
                                         prof.x_support[cols[0]]))
                weights = _cardinal_weights(prof.x_param, i0,
                                            i0 + cols.size - 1, x[nodes])
                sides.append(("wall", nodes, prof.z,
                              prof.U[:, cols[0]:cols[-1] + 1], zs[nodes],
                              weights, None, 0.0))
        return sides

    def _parts(self, ks: np.ndarray, x: np.ndarray, sides: list) -> dict:
        """The four summands at the knot indices ks: each (nk, nx, 3).

        Per knot block each of the pass's sides (from _layer_sides) only
        fits its natural spline: a wall side contracts it with its
        x-weights, an interface half adds its lift in closed form and
        scales by the cutoff.
        """
        parts = {"base": self._base(ks, x),
                 "interface": np.zeros((ks.size, x.size, 3)),
                 "wall": np.zeros((ks.size, x.size, 3)),
                 "rho": neumann_corrector(x, self.pieces.g_minus[ks],
                                          self.pieces.g_plus[ks])}
        for layer, nodes, knots, cols, s, weights, delta, sign in sides:
            vals = _layer_values(knots, cols[ks], s)
            if delta is None:
                vals = contract_columns(weights, vals)
            else:
                vals += lift(delta[ks][:, None], s[:, None], sign)
                vals *= weights[:, None]
            parts[layer][:, nodes] = vals
        return parts

    def sample_times(self, times: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Stacked samples at several knots: (nt, nx, 3).

        The knots are sampled in blocks of KNOT_BLOCK. Nothing sums
        across the knots of a block, so a knot gives the same bits
        whichever block it falls in.
        """
        ks = np.array([self.knot_index(t) for t in np.asarray(times)],
                      dtype=int)
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or np.any(np.abs(x) > 1.0 + 1e-12):
            raise ValueError("sample nodes must lie in [-1, 1]")
        sides = self._layer_sides(x)
        out = np.empty((ks.size, x.size, 3))
        for start in range(0, ks.size, KNOT_BLOCK):
            p = self._parts(ks[start:start + KNOT_BLOCK], x, sides)
            out[start:start + KNOT_BLOCK] = (
                p["base"] + p["interface"]
                + self.epsilon * (p["wall"] + p["rho"]))
        return out


def _cardinal_weights(xp: np.ndarray, i0: int, i1: int,
                      x: np.ndarray) -> np.ndarray:
    """Natural-spline x-weights of a layer's support columns xp[i0..i1]
    at x: column i is the resample of unit data at xp[i0 + i], so any
    resample is weights @ data, (nx, i1 - i0 + 1).

    The layer vanishes identically past its support, so one exactly-zero
    anchor column is added past each end that is not a domain end; an
    anchor carries no weight and is dropped.
    """
    lo = max(i0 - 1, 0)
    hi = min(i1 + 1, xp.size - 1)
    xs = xp[lo:hi + 1]
    return x_resample(xs, np.eye(xs.size), x)[:, i0 - lo:i1 - lo + 1]


def _layer_values(s_knots: np.ndarray, U: np.ndarray,
                  s: np.ndarray) -> np.ndarray:
    """Layer profile at each node's stretched coordinate.

    U (nk, ..., ns, 3) holds a knot block of the stored columns on the
    stretched mesh s_knots, node q sits at s[q]. The natural spline in
    s is fitted on every column and evaluated at every node: (nk, nq,
    ..., 3). A wall contracts the result with its x-weights: the order
    is swapped against resampling first, which is exact because both
    steps are linear.
    """
    v = np.moveaxis(U, -2, 0)
    m = natural_spline_coeffs(s_knots, v)
    return np.moveaxis(spline_eval(s_knots, v, m, s), 0, 1)


# === space-time norms ===

def jump_error_l2(times: np.ndarray, x: np.ndarray, u: np.ndarray,
                  ref_minus: np.ndarray, ref_plus: np.ndarray) -> float:
    """Distance of u to a two-valued reference with interface cells split.

    ref_minus (nt, i0 + 1, 3) is the reference on the nodes x[:i0 + 1]
    up to the interface node x[i0] = 0, ref_plus (nt, nx - i0, 3) the one
    on x[i0:]; each is integrated over its own half, so the interface
    node contributes half a cell to each side and the jump never incurs
    O(1) quadrature error. The knots are walked in blocks
    (geometry.level_blocks), each leaving one x-integral per knot, and
    one trapezoid in time ends the norm.
    """
    x = np.asarray(x, dtype=float)
    i0 = ref_minus.shape[1] - 1
    if x[i0] != 0.0 or ref_plus.shape[1] != x.size - i0:
        raise ValueError("the references must meet at the interface node 0")
    inner = np.empty(len(u))
    for _, start, stop, _ in level_blocks(len(u), 0):
        rows = slice(start, stop)
        dm = u[rows, :i0 + 1] - ref_minus[rows]
        dp = u[rows, i0:] - ref_plus[rows]
        inner[rows] = x_squares(x[:i0 + 1], dm) + x_squares(x[i0:], dp)
    return float(np.sqrt(np.trapezoid(inner, times)))


def fit_slope(epsilons: np.ndarray, errors: np.ndarray) -> float:
    """Least-squares slope of log(error) against log(eps)."""
    eps = np.asarray(epsilons, dtype=float)
    err = np.asarray(errors, dtype=float)
    if eps.size < 2 or eps.size != err.size:
        raise ValueError(f"need >= 2 paired values, got {eps.size}")
    bad = ~(np.isfinite(eps) & np.isfinite(err))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"slope fit needs finite values: entry {i} has "
                         f"eps={eps[i]:g}, error={err[i]:g}")
    if np.any(err <= 0.0) or np.any(eps <= 0.0):
        raise ValueError("slope fit needs positive errors and eps")
    return float(np.polyfit(np.log(eps), np.log(err), 1)[0])


# === conormal (E-class) norms ===

@dataclass(frozen=True)
class EClassNorms:
    """The five summands of the weighted conormal norm at order m.

    conormal = |w|_m over the fields {d_t, omega(x) d_x}, omega the
    conormal weight vanishing at interface and walls; normal_conormal =
    |eps d_x w|_m; the sup entries carry their eps prefactors already.
    """

    m: int
    conormal: float
    normal_conormal: float
    sup: float
    sup_conormal: float
    sup_normal: float

    @property
    def total(self) -> float:
        return (self.conormal + self.normal_conormal + self.sup
                + self.sup_conormal + self.sup_normal)

    def summands(self) -> np.ndarray:
        return np.array([self.conormal, self.normal_conormal, self.sup,
                         self.sup_conormal, self.sup_normal])


def eclass_norms(times: np.ndarray, x: np.ndarray, w: np.ndarray,
                 epsilon: float, m: int) -> tuple:
    """Discrete conormal norms of a space-time field w (nt, nx, 3): the
    pair of records (order 0, order m).

    The generators are Z0 = d_t and Z1 = omega(x) d_x with the weight
    omega(x) = x(1 - x^2) tangent to interface and walls; the normal
    derivative enters through eps d_x. All differences are second
    order on the sampling grid. The knots are walked in blocks
    (geometry.level_blocks) reading max(m, 1) knots of w past each end,
    one per time derivative. Per block one derivative table of w, then
    one of eps d_x w, serves both orders: each term leaves its squared
    L2(x) norm per knot and a running sup, and one trapezoid in time
    ends each norm. The records are the whole-array evaluation's bit for
    bit.
    """
    w = np.asarray(w, dtype=float)
    times = np.asarray(times, dtype=float)
    x = np.asarray(x, dtype=float)
    if m not in (0, 1, 2):
        raise ValueError(f"m must be 0, 1 or 2, got {m}")
    if w.shape != (times.size, x.size, 3):
        raise ValueError(
            f"w shape {w.shape} does not match ({times.size}, {x.size}, 3)")
    if times.size < 2:
        raise ValueError("need at least 2 knots for the time derivative")
    omega = conormal_weight(x)[None, :, None]
    halo = max(m, 1)

    def table(v, lo, start, stop, order):
        # Z0^a Z1^b v keyed (a, b), lower totals first, on the knots
        # start..stop of v = field[lo:]; a time derivative is taken on
        # as many knots past the block as later ones still read
        derivs = {}
        chain, first = v, lo
        for total in range(order + 1):
            for b in range(total + 1):
                a = total - b
                if b:
                    derivs[(a, b)] = (omega
                                      * profile_d1(x, derivs[(a, b - 1)]))
                    continue
                if a:
                    reach = order - a
                    rows = slice(max(start - reach, 0),
                                 min(stop + reach, times.size))
                    chain = time_d1(times, chain, first, rows)
                    first = rows.start
                derivs[(a, 0)] = chain[start - first:stop - first]
        return derivs

    # per table: each term of order <= m squared per knot, and the
    # squared sups of w, of its Z-derivatives and of eps d_x w
    squares = ({}, {})
    peaks = np.zeros(3)

    def add(derivs, part, start, stop):
        for key, term in derivs.items():
            if sum(key) <= m:
                squares[part].setdefault(key, np.empty(times.size))[
                    start:stop] = x_squares(x, term)

    def sup2(v):
        return np.max(dot3(v, v))

    for lo, start, stop, hi in level_blocks(times.size, halo):
        derivs = table(w[lo:hi], lo, start, stop, halo)
        add(derivs, 0, start, stop)
        block = [sup2(derivs[(0, 0)]),
                 max(sup2(derivs[(1, 0)]), sup2(derivs[(0, 1)]))]
        del derivs
        wn = epsilon * profile_d1(x, w[lo:hi])
        add(table(wn, lo, start, stop, m), 1, start, stop)
        block.append(sup2(wn[start - lo:stop - lo]))
        peaks = np.maximum(peaks, block)

    def sobolev(rows):
        # each square rounded through its norm: the square of the
        # space-time trapezoid norm of one term
        sq = [float(np.sqrt(np.trapezoid(r, times))) ** 2
              for r in rows.values()]
        return float(np.sqrt(sum(sq[:1]))), float(np.sqrt(sum(sq)))

    sups = tuple(epsilon * float(np.sqrt(p)) for p in peaks)
    return tuple(EClassNorms(order, c, n, *sups) for order, c, n
                 in zip((0, m), sobolev(squares[0]), sobolev(squares[1])))


# === the convergence experiment ===

_POSITIVE_FIELDS = ("T", "dt_full", "dt_knot", "box_y", "box_z",
                    "picard_tol", "drift_tol")
# the smallest value each mesh or loop builder accepts
_FIELD_MINIMA = {"cells_per_eps": 4, "param_cells": 8, "profile_cells": 8,
                 "wall_cells": 8, "picard_max_iter": 1}
# the most nominal full-model steps T / dt_full one study may ask for:
# 500 times the default 200, so a mistyped step is refused, not marched
MAX_FULL_STEPS = 100_000


@dataclass(frozen=True)
class StudyConfig:
    """Knobs of the eps-convergence experiment. dt_full is the full
    model's largest step: the march takes every level of the pieces'
    grid, one step each at the default dt_full = dt_knot. picard_tol
    bounds, per Picard window of the interface profile at x = 0, the
    L2(y) change of the last sweep at every time or the geometric bound
    on the changes still to come, so the profile W ends about picard_tol
    from its fixed point; picard_max_iter caps the sweeps of one
    window."""

    T: float = 0.5
    dt_full: float = 2.5e-3
    dt_knot: float = 2.5e-3
    cells_per_eps: int = 16
    param_cells: int = 16
    profile_cells: int = 128
    wall_cells: int = 96
    box_y: float = 15.0
    box_z: float = 15.0
    picard_tol: float = 1e-8
    picard_max_iter: int = 40
    drift_tol: float = 1e-3
    eclass_m: int = 1

    def __post_init__(self):
        for name in _POSITIVE_FIELDS:
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise ConfigError(f"study.{name} must be positive and "
                                  f"finite, got {value!r}")
        for name, least in _FIELD_MINIMA.items():
            value = getattr(self, name)
            if value < least:
                raise ConfigError(
                    f"study.{name} must be at least {least}, got {value!r}")
        if self.dt_full > self.dt_knot + 1e-15:
            raise ConfigError(
                f"study.dt_full={self.dt_full} must not exceed "
                f"study.dt_knot={self.dt_knot}: lower study.dt_full "
                f"with study.dt_knot")
        if self.T / self.dt_full > MAX_FULL_STEPS:
            raise ConfigError(
                f"study.dt_full={self.dt_full} asks for "
                f"{self.T / self.dt_full:.3g} steps over T={self.T}, more "
                f"than the budget of {MAX_FULL_STEPS}")
        ratio = self.T / self.dt_knot
        if abs(ratio - round(ratio)) > 1e-9:
            raise ConfigError(
                f"study.T={self.T} must be an integer multiple of "
                f"study.dt_knot={self.dt_knot}")
        if self.eclass_m not in (1, 2):
            # the m = 0 norms are always reported in their own column
            raise ConfigError(f"study.eclass_m must be 1 or 2, "
                              f"got {self.eclass_m}")


@dataclass(frozen=True)
class ExpansionPieces:
    """The eps-independent half of the experiment.

    ext, profiles and boundary share one set of time knots, ext and
    boundary one parameter mesh, and profiles holds the interface
    column x = 0 of it; g_minus and g_plus (nt, 3) are the wall trace slopes
    feeding the corrector rho = phi * theta * g_side. base holds the
    (minus, plus) not-a-knot x-splines of the base state over every
    knot (built by _base_splines).
    """

    ext: ExtendedLimit
    profiles: ProfilePair
    boundary: BoundaryProfile
    g_minus: np.ndarray
    g_plus: np.ndarray
    base: tuple

    @property
    def T_used(self) -> float:
        """The horizon the pieces reach: the last level of their grid."""
        return float(self.ext.times[-1])


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-eps measurements plus the fitted rate.

    slope_running[i] is the pairwise rate between rows i-1 and i
    (nan in row 0); eclass_m0/m1 are the summed five-part norms at
    m = 0 and at m = cfg.eclass_m (1 or 2); the records tuples keep the
    individual summands for each eps.
    """

    epsilons: np.ndarray
    errors_l2: np.ndarray
    residuals: np.ndarray
    slope: float
    slope_running: np.ndarray
    eclass_m0: np.ndarray
    eclass_m1: np.ndarray
    records_m0: tuple
    records_m1: tuple
    T_used: float
    grid_sizes: np.ndarray
    drift_max: np.ndarray


def _base_splines(ext: ExtendedLimit) -> tuple:
    """The base state's not-a-knot x-splines, (minus, plus), each along
    axis 1 of (nt, ncols, 3) and fitted over every knot at once.

    Each side is fitted on its own half only, x <= 0 for u_minus and
    x >= 0 for u_plus, where the extended state equals the bare limit
    solution (no blend contamination).
    """
    xp = ext.x_param
    return tuple(x_spline(xp[cols], u[:, cols], axis=1, bc="not-a-knot")
                 for cols, u in ((xp <= 0.0, ext.u_minus),
                                 (xp >= 0.0, ext.u_plus)))


def build_expansion_pieces(data: MagnetizationField,
                           cfg: StudyConfig = StudyConfig()
                           ) -> ExpansionPieces:
    """Run the eps-independent pipeline: limit, extension, both layers,
    and the base state's x-splines.

    If a profile window opening at an interior time t stops contracting,
    the pieces are rebuilt on the horizon t (at least 4 knot cells),
    whose knots, limit values and windows are a prefix of this run's.
    The report carries the shortened horizon. The wall layer validates.
    """
    y = make_profile_grid(Y=cfg.box_y, cells=cfg.profile_cells)
    ext = extend_limit(data, param_nodes(cfg.param_cells),
                       time_grid(cfg.T, dt=cfg.dt_knot))
    try:
        pair = picard_profiles(ext, y, tol=cfg.picard_tol,
                               max_iter=cfg.picard_max_iter)
    except NonContraction as exc:
        # a window opens on a knot, the last level of the shorter grid
        if exc.t_converged < 4.0 * cfg.dt_knot:
            raise
        return build_expansion_pieces(data, replace(cfg, T=exc.t_converged))
    z = make_wall_grid(Z=cfg.box_z, cells=cfg.wall_cells)
    boundary = solve_boundary_profile(ext, z)
    boundary.validate()
    g_minus, g_plus = wall_slopes(boundary)
    return ExpansionPieces(ext=ext, profiles=pair, boundary=boundary,
                           g_minus=g_minus, g_plus=g_plus,
                           base=_base_splines(ext))


def _epsilon_row(task) -> dict:
    """One eps of the study: sample, march, measure. Top level so the
    process pool can ship it. The full model marches every level of the
    pieces' grid (the opening ramp, then steps of at most dt_full); only
    its knot rows are kept, and a missed knot is a solver abort.

    The row holds at most three space-time fields at once: the ansatz
    a, the knot rows u and the trajectory they are copied from, then a,
    u and w = (u - a) / eps, then u, w and the limit values; each is
    dropped once used. The diagnostics walk the knots in blocks and add
    only block temporaries.
    """
    pieces, data, eps, cfg = task
    grid = make_epsilon_grid(eps, cells_per_eps=cfg.cells_per_eps)
    times_eval = knot_times(pieces.T_used, cfg.dt_knot)
    a_vals = ExpansionAnsatz(pieces, eps).sample_times(times_eval, grid.x)

    u_init = renormalize(a_vals[0])
    fcfg = FullModelConfig(epsilon=eps, dt=cfg.dt_full, T=pieces.T_used,
                           drift_tol=cfg.drift_tol)
    traj = simulate_full(u_init, grid, fcfg, t_eval=pieces.ext.times)
    knots = np.isin(traj.times, times_eval)
    if not np.array_equal(traj.times[knots], times_eval):
        raise SolverAbort("solver output times drifted off the knots")
    u, drift_max = traj.values[knots], traj.drift_max
    del traj

    res = residual_report(times_eval, a_vals, grid, eps)
    w = u - a_vals
    w /= eps
    del a_vals

    # each node's limit trajectory once: the minus data up to the
    # interface node, the plus data from it on (that node twice)
    i0 = int(np.searchsorted(grid.x, 0.0))
    limit_init = np.concatenate([data(grid.x[:i0 + 1], "minus"),
                                 data(grid.x[i0:], "plus")])
    limit = simulate_limit(limit_init, times_eval)
    err = jump_error_l2(times_eval, grid.x, u,
                        limit[:, :i0 + 1], limit[:, i0 + 1:])
    del u, limit

    ec0, ecm = eclass_norms(times_eval, grid.x, w, eps, m=cfg.eclass_m)
    return {
        "epsilon": eps,
        "err_l2": err,
        "residual_l2": res.l2_residual,
        "ec0": ec0,
        "ecm": ecm,
        "nx": grid.n,
        "drift_max": drift_max,
    }


def convergence_study(epsilons, data: MagnetizationField,
                      cfg: StudyConfig = StudyConfig(),
                      jobs: int = 1,
                      pieces: Optional[ExpansionPieces] = None
                      ) -> ConvergenceReport:
    """Measure |u_eps - u0| and diagnostics over a decreasing eps list.

    The profiles are built once and shared; the per-eps runs are
    independent, min(jobs, eps count) processes run them. Refuses jobs
    below 1, eps lists that are not strictly decreasing and grids that
    leave the layer under-resolved (fewer than 8 cells per eps width).
    """
    eps = np.asarray(list(epsilons), dtype=float)
    if eps.size < 3:
        raise ConfigError(
            f"study.epsilons needs at least 3 eps values, got {eps.size}")
    if not np.all(np.isfinite(eps)):
        raise ConfigError(
            f"study.epsilons must be finite, got {eps.tolist()}")
    if np.any(eps <= 0.0) or np.any(np.diff(eps) >= 0.0):
        raise ConfigError(
            f"study.epsilons must be positive and strictly decreasing, "
            f"got {eps.tolist()}")
    if jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {jobs}")
    if cfg.cells_per_eps < 8:
        raise ConfigError(
            f"unresolved layer: study.cells_per_eps={cfg.cells_per_eps} "
            f"cells per eps width (need >= 8)")
    if pieces is None:
        pieces = build_expansion_pieces(data, cfg)

    tasks = [(pieces, data, float(e), cfg) for e in eps]
    if jobs > 1:
        # the pool forks all its workers at the first task: one per eps
        with ProcessPoolExecutor(max_workers=min(jobs, eps.size)) as pool:
            rows = list(pool.map(_epsilon_row, tasks))
    else:
        rows = [_epsilon_row(t) for t in tasks]

    errors = np.array([r["err_l2"] for r in rows])
    residuals = np.array([r["residual_l2"] for r in rows])
    running = np.full(eps.size, np.nan)
    running[1:] = (np.diff(np.log(errors)) / np.diff(np.log(eps)))
    return ConvergenceReport(
        epsilons=eps,
        errors_l2=errors,
        residuals=residuals,
        slope=fit_slope(eps, errors),
        slope_running=running,
        eclass_m0=np.array([r["ec0"].total for r in rows]),
        eclass_m1=np.array([r["ecm"].total for r in rows]),
        records_m0=tuple(r["ec0"] for r in rows),
        records_m1=tuple(r["ecm"] for r in rows),
        T_used=pieces.T_used,
        grid_sizes=np.array([r["nx"] for r in rows]),
        drift_max=np.array([r["drift_max"] for r in rows]),
    )
