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
corrector. Sampling on a solver grid takes the knots in the level
blocks of geometry.level_blocks, each knot once. The base state u0 is
the limit flow itself, solved in closed form (simulate_limit) once per
knot on the split nodes: the minus data on x <= 0, the plus data on
x >= 0, so the interface node is solved from both sides. Its plus copy
is the base of a, and the pair is the reference of the limit error.
Both layers share one path: once per pass, each layer side reaching
the nodes (either interface half, either wall) gets its nodes'
stretched coordinates and x-weights (the cutoff chi_sigma for the
interface, the wall columns' cardinal x-weights), and a layer holding
only zeros gets no side. Per block the natural spline in the fast
direction is fitted on each side's stored columns and evaluated at
every node's stretched coordinate; a wall side contracts it with the
node's x-weights (the two linear steps in swapped order), an interface
half adds its lift and scales by chi.
Those fits stay per block, since holding them for every knot would
outweigh the stored layers. S and rho are closed form. The wall's
x-weights add an exactly-zero anchor column past its inland support
end.

The convergence study builds the profiles once (they do not depend on
eps), then for each eps: marches the full model from the renormalized
ansatz over the pieces' time grid on an eps-refined grid, and records
the distance to the limit state, the ansatz residual, and the conormal
norms of (u - a) / eps at orders 0 and m. A row is one forward walk
over the knots in level blocks, and the march streams into it: each
block's window of the ansatz with its limit state, of the marched u
and of w, is built, added to every diagnostic's walk and dropped, so a
row holds a few windows of levels, not a trajectory or any other
space-time field.

Contains:
- ExpansionPieces / build_expansion_pieces: the eps-independent half,
  on geometry.time_grid, with the data it was built from; its horizon
  T_used is the grid's last level
- ExpansionAnsatz: the pieces sampled at one eps, by windows of levels
  or at whole knot lists
- JumpErrorWalk / jump_error_l2: the space-time distance to a
  two-valued state, by level blocks or on whole arrays
- EClassNorms / EClassWalk / eclass_norms: conormal norm records, by
  level blocks or on whole arrays
- StudyConfig / ConvergenceReport / convergence_study: the experiment
- fit_slope: log-log least-squares rate
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import compress, islice
from typing import Optional

import numpy as np

from .banded import dot3
from .boundary_layer import (BoundaryProfile, neumann_corrector,
                             solve_boundary_profile, wall_slopes)
from .errors import ConfigError, NonContraction, SolverAbort
from .fields import MagnetizationField
# residual_report and simulate_full are not called here, but
# bench/tracing.py wraps them under this module's name
from .full_model import (FullMarch, FullModelConfig, ResidualWalk,
                         make_epsilon_grid, residual_report, simulate_full)
from .geometry import (chi_sigma, conormal_weight, field_weights,
                       in_v_sigma, knot_times, level_blocks,
                       make_profile_grid, make_wall_grid, param_nodes,
                       profile_d1, theta, time_d1, time_grid, x_squares)
from .internal_layer import ProfilePair, halves, lift, picard_profiles
from .interp import (contract_columns, natural_spline_coeffs, spline_eval,
                     x_resample)
from .limit_model import (ExtendedLimit, extend_limit, renormalize,
                          simulate_limit)


# === the assembled ansatz ===

@dataclass(frozen=True)
class ExpansionAnsatz:
    """Sampler for the two-scale approximation at one eps.

    The eps-independent pieces (the data, the interface profile at
    x = 0, the wall layer and its trace slopes) are shared; the base
    state is the limit flow of the data, solved at the sampled knots.
    eps enters only through the stretched coordinates x/eps and
    (1-|x|)/eps and the O(eps) weight.
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

    def _limit(self, ks: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The limit flow at the knot indices ks on the split nodes,
        (nk, n_minus + n_plus, 3): the minus data's flow on the n_minus
        nodes x <= 0, then the plus data's on the n_plus nodes x >= 0.

        simulate_limit wants times that start at 0 and increase, and a
        level depends on its own time alone: knot 0 leads the distinct
        knots, and each of ks reads its level back.
        """
        data = self.pieces.data
        init = np.concatenate([data(x[x <= 0.0], "minus"),
                               data(x[x >= 0.0], "plus")])
        levels, back = np.unique(np.concatenate([[0], ks]),
                                 return_inverse=True)
        return simulate_limit(init, self.times[levels])[back[1:]]

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
        """The four summands at the knot indices ks, each (nk, nx, 3),
        and the limit flow on the split nodes they took the base from.

        The base is that limit flow with the interface node taken from
        the plus side. Per knot block each of the pass's sides (from
        _layer_sides) only fits its natural spline: a wall side
        contracts it with its x-weights, an interface half adds its lift
        in closed form and scales by the cutoff. The corrector rho stays
        zero when both wall slopes are, as a zero layer gets no side.
        """
        g_minus, g_plus = self.pieces.g_minus, self.pieces.g_plus
        limit = self._limit(ks, x)
        below = x <= 0.0
        nm = np.count_nonzero(below)
        base = np.empty((ks.size, x.size, 3))
        base[:, below] = limit[:, :nm]
        base[:, x >= 0.0] = limit[:, nm:]
        parts = {"limit": limit,
                 "base": base,
                 "interface": np.zeros((ks.size, x.size, 3)),
                 "wall": np.zeros((ks.size, x.size, 3)),
                 "rho": (neumann_corrector(x, g_minus[ks], g_plus[ks])
                         if g_minus.any() or g_plus.any()
                         else np.zeros((ks.size, x.size, 3)))}
        for layer, nodes, knots, cols, s, weights, delta, sign in sides:
            vals = _layer_values(knots, cols[ks], s)
            if delta is None:
                vals = contract_columns(weights, vals)
            else:
                vals += lift(delta[ks][:, None], s[:, None], sign)
                vals *= weights[:, None]
            parts[layer][:, nodes] = vals
        return parts

    def sample_windows(self, times: np.ndarray, x: np.ndarray, halo: int):
        """The samples at the knots times, one block of levels at a time.

        Yields (lo, start, stop, hi, window, limit) per block of
        geometry.level_blocks(times.size, halo), window (hi - lo, nx, 3)
        holding the samples at times[lo:hi] and limit the limit flow on
        the split nodes (_parts) at the same knots. times may repeat and
        come in any order. Each knot is sampled once: the levels both
        windows share with the ones before carry over, and the layer
        sides are built once per call. Nothing sums across the knots of
        a block, so a knot gives the same bits whichever block it falls
        in.
        """
        ks = np.array([self.knot_index(t) for t in np.asarray(times)],
                      dtype=int)
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or np.any(np.abs(x) > 1.0 + 1e-12):
            raise ValueError("sample nodes must lie in [-1, 1]")
        sides = self._layer_sides(x)
        held, first, done = None, 0, 0
        for lo, start, stop, hi in level_blocks(ks.size, halo):
            fresh = self._sum(ks[done:hi], x, sides)
            if held is not None:
                fresh = tuple(np.concatenate([old[lo - first:], new])
                              for old, new in zip(held, fresh))
            held, first, done = fresh, lo, hi
            yield (lo, start, stop, hi) + held

    def _sum(self, ks: np.ndarray, x: np.ndarray, sides: list) -> tuple:
        """(base + interface + eps (wall + rho), limit) at the knot
        indices ks, the sum taken in place in the parts (_parts)."""
        p = self._parts(ks, x, sides)
        out, slow = p["base"], p["wall"]
        out += p["interface"]
        slow += p["rho"]
        slow *= self.epsilon
        out += slow
        return out, p["limit"]

    def sample_times(self, times: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Stacked samples at several knots: (nt, nx, 3), sampled in
        blocks of levels (sample_windows)."""
        out = np.empty((np.size(times), np.size(x), 3))
        for _, start, stop, _, window, _ in self.sample_windows(times, x,
                                                                0):
            out[start:stop] = window
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

class JumpErrorWalk:
    """jump_error_l2's sums, one block of levels at a time.

    add takes the levels start.. of u and of both references, and
    leaves one x-integral per level; norm ends the norm with one
    trapezoid in time once every level was added.
    """

    def __init__(self, times: np.ndarray, x: np.ndarray, i0: int):
        self.times = np.asarray(times, dtype=float)
        self.x, self.i0 = x, i0
        self.inner = np.empty(self.times.size)

    def add(self, start: int, u: np.ndarray, ref_minus: np.ndarray,
            ref_plus: np.ndarray) -> None:
        x, i0 = self.x, self.i0
        dm = u[:, :i0 + 1] - ref_minus
        dp = u[:, i0:] - ref_plus
        self.inner[start:start + len(u)] = (x_squares(x[:i0 + 1], dm)
                                            + x_squares(x[i0:], dp))

    def norm(self) -> float:
        return float(np.sqrt(np.trapezoid(self.inner, self.times)))


def jump_error_l2(times: np.ndarray, x: np.ndarray, u: np.ndarray,
                  ref_minus: np.ndarray, ref_plus: np.ndarray) -> float:
    """Distance of u to a two-valued reference with interface cells split.

    ref_minus (nt, i0 + 1, 3) is the reference on the nodes x[:i0 + 1]
    up to the interface node x[i0] = 0, ref_plus (nt, nx - i0, 3) the one
    on x[i0:]; each is integrated over its own half, so the interface
    node contributes half a cell to each side and the jump never incurs
    O(1) quadrature error. The knots are walked in blocks
    (geometry.level_blocks) through JumpErrorWalk.
    """
    x = np.asarray(x, dtype=float)
    i0 = ref_minus.shape[1] - 1
    if x[i0] != 0.0 or ref_plus.shape[1] != x.size - i0:
        raise ValueError("the references must meet at the interface node 0")
    walk = JumpErrorWalk(times, x, i0)
    for _, start, stop, _ in level_blocks(len(u), 0):
        rows = slice(start, stop)
        walk.add(start, u[rows], ref_minus[rows], ref_plus[rows])
    return walk.norm()


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


class EClassWalk:
    """eclass_norms' sums, one block of levels at a time.

    add takes a block start..stop through its window w[lo:hi], which
    must reach max(m, 1) levels past each end of the block that is not
    an end of times (geometry.level_blocks with that halo), one per
    time derivative. Per block one derivative table of w, then one of
    eps d_x w, serves both orders: each term leaves its squared L2(x)
    norm per level and a running sup. records ends each norm with one
    trapezoid in time once every level was added.
    """

    def __init__(self, times: np.ndarray, x: np.ndarray, epsilon: float,
                 m: int):
        if m not in (0, 1, 2):
            raise ValueError(f"m must be 0, 1 or 2, got {m}")
        self.times = np.asarray(times, dtype=float)
        if self.times.size < 2:
            raise ValueError("need at least 2 knots for the time derivative")
        self.x = np.asarray(x, dtype=float)
        self.epsilon, self.m = epsilon, m
        self.omega = field_weights(conormal_weight(self.x))
        # per table: each term of order <= m squared per level, and the
        # squared sups of w, of its Z-derivatives and of eps d_x w
        self.squares = ({}, {})
        self.peaks = np.zeros(3)

    def _table(self, v, lo, start, stop, order):
        # Z0^a Z1^b v keyed (a, b), lower totals first, on the levels
        # start..stop of v = field[lo:]; a time derivative is taken on
        # as many levels past the block as later ones still read
        times = self.times
        derivs = {}
        chain, first = v, lo
        for total in range(order + 1):
            for b in range(total + 1):
                a = total - b
                if b:
                    derivs[(a, b)] = (self.omega
                                      * profile_d1(self.x,
                                                   derivs[(a, b - 1)]))
                    continue
                if a:
                    reach = order - a
                    rows = slice(max(start - reach, 0),
                                 min(stop + reach, times.size))
                    chain = time_d1(times, chain, first, rows)
                    first = rows.start
                derivs[(a, 0)] = chain[start - first:stop - first]
        return derivs

    def _add(self, derivs, part, start, stop):
        for key, term in derivs.items():
            if sum(key) <= self.m:
                self.squares[part].setdefault(
                    key, np.empty(self.times.size))[start:stop] = \
                    x_squares(self.x, term)

    def add(self, window: np.ndarray, lo: int, start: int,
            stop: int) -> None:
        def sup2(v):
            return np.max(dot3(v, v))

        derivs = self._table(window, lo, start, stop, max(self.m, 1))
        self._add(derivs, 0, start, stop)
        block = [sup2(derivs[(0, 0)]),
                 max(sup2(derivs[(1, 0)]), sup2(derivs[(0, 1)]))]
        del derivs
        wn = self.epsilon * profile_d1(self.x, window)
        self._add(self._table(wn, lo, start, stop, self.m), 1, start, stop)
        block.append(sup2(wn[start - lo:stop - lo]))
        self.peaks = np.maximum(self.peaks, block)

    def records(self) -> tuple:
        """The pair of records (order 0, order m)."""
        times = self.times

        def sobolev(rows):
            # each square rounded through its norm: the square of the
            # space-time trapezoid norm of one term
            sq = [float(np.sqrt(np.trapezoid(r, times))) ** 2
                  for r in rows.values()]
            return float(np.sqrt(sum(sq[:1]))), float(np.sqrt(sum(sq)))

        sups = tuple(self.epsilon * float(np.sqrt(p)) for p in self.peaks)
        return tuple(EClassNorms(order, c, n, *sups) for order, c, n
                     in zip((0, self.m), sobolev(self.squares[0]),
                            sobolev(self.squares[1])))


def eclass_norms(times: np.ndarray, x: np.ndarray, w: np.ndarray,
                 epsilon: float, m: int) -> tuple:
    """Discrete conormal norms of a space-time field w (nt, nx, 3): the
    pair of records (order 0, order m).

    The generators are Z0 = d_t and Z1 = omega(x) d_x with the weight
    omega(x) = x(1 - x^2) tangent to interface and walls; the normal
    derivative enters through eps d_x. All differences are second
    order on the sampling grid. The knots are walked in blocks
    (geometry.level_blocks) reading max(m, 1) knots of w past each end,
    through EClassWalk. The records are the whole-array evaluation's
    bit for bit.
    """
    walk = EClassWalk(times, x, epsilon, m)
    w = np.asarray(w, dtype=float)
    if w.shape != (walk.times.size, walk.x.size, 3):
        raise ValueError(f"w shape {w.shape} does not match "
                         f"({walk.times.size}, {walk.x.size}, 3)")
    for lo, start, stop, hi in level_blocks(walk.times.size, max(m, 1)):
        walk.add(w[lo:hi], lo, start, stop)
    return walk.records()


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
    feeding the corrector rho = phi * theta * g_side. data is the
    initial field they were built from, whose limit flow the sampler
    solves as the base state at any node.
    """

    ext: ExtendedLimit
    profiles: ProfilePair
    boundary: BoundaryProfile
    g_minus: np.ndarray
    g_plus: np.ndarray
    data: MagnetizationField

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


def build_expansion_pieces(data: MagnetizationField,
                           cfg: StudyConfig = StudyConfig()
                           ) -> ExpansionPieces:
    """Run the eps-independent pipeline: limit, extension and both
    layers.

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
                           g_minus=g_minus, g_plus=g_plus, data=data)


def _epsilon_row(task) -> dict:
    """One eps of the study: march and measure in one forward walk over
    the knots. Top level so the process pool can ship it.

    The walk takes the knots in the blocks of geometry.level_blocks with
    a halo of max(eclass_m, 1) knots, sampling the ansatz a and its limit
    state once per knot (ExpansionAnsatz.sample_windows). The first
    window starts the full model from the renormalized a at knot 0, and
    it marches every level of the pieces' grid (the opening ramp, then
    steps of at most dt_full); a missed knot is a solver abort, found
    before any step. Per block the march advances to the window's last
    knot, the knot states the window shares with the one before carry
    over, and the row measures a copy of them against the window's limit
    state, turns it into w = (u - a) / eps, and adds the block to the
    residual, limit-error and conormal walks. It holds a few windows of
    levels, however many knots there are.
    """
    pieces, eps, cfg = task
    grid = make_epsilon_grid(eps, cells_per_eps=cfg.cells_per_eps)
    x = grid.x
    times = knot_times(pieces.T_used, cfg.dt_knot)
    fcfg = FullModelConfig(epsilon=eps, dt=cfg.dt_full, T=pieces.T_used,
                           drift_tol=cfg.drift_tol)
    i0 = int(np.searchsorted(x, 0.0))
    residual = ResidualWalk(times, grid, eps)
    error = JumpErrorWalk(times, x, i0)
    eclass = EClassWalk(times, x, eps, cfg.eclass_m)
    windows = ExpansionAnsatz(pieces, eps).sample_windows(
        times, x, max(cfg.eclass_m, 1))
    for lo, start, stop, hi, a, limit in windows:
        if start == 0:
            march = FullMarch(renormalize(a[0]), grid, fcfg,
                              t_eval=pieces.ext.times)
            on_knot = np.isin(march.times, times)
            if not np.array_equal(march.times[on_knot], times):
                raise SolverAbort("solver output times drifted off the knots")
            knot_states = compress(march, on_knot)
            held, first, done = [], 0, 0
        residual.add(a, lo, start, stop)
        held = held[lo - first:] + list(islice(knot_states, hi - done))
        first, done = lo, hi
        # u's window, turned into w's in place once measured; the limit
        # state splits at the interface node, solved from both sides
        w = np.array(held)
        block = slice(start - lo, stop - lo)
        error.add(start, w[block], limit[block, :i0 + 1],
                  limit[block, i0 + 1:])
        w -= a
        w /= eps
        eclass.add(w, lo, start, stop)
    # the march is done once the last knot is out; drift_max is final
    if next(march, None) is not None:
        raise SolverAbort("the march ran past the last knot")

    ec0, ecm = eclass.records()
    return {
        "epsilon": eps,
        "err_l2": error.norm(),
        "residual_l2": residual.report().l2_residual,
        "ec0": ec0,
        "ecm": ecm,
        "nx": grid.n,
        "drift_max": march.drift_max,
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

    tasks = [(pieces, float(e), cfg) for e in eps]
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
