"""Internal transmission profile at the mid-plane interface.

The limit flow jumps across x = 0; the full model bridges the jump with
a fast profile in the stretched variable y = x/eps. With the two
one-sided limit states extended smoothly across the interface (each
data branch continued and faded in with the interface cutoff), the
jump field
delta(t, x) = u0_plus - u0_minus is supported in the interface
neighborhood, and the profile splits as

    U_pm = W + S_pm,    S_pm(t, x, y) = -+ 1/2 delta(t, x) e^{-+y},

where S carries the exponential matching (S'' = S) and the remainder W
is continuous and C1 across y = 0. W satisfies, on each side,

    dW/dt = (I + [V_pm + W]x) W_yy + Fhat_pm(t, x, y, W, W_y),

with V_pm = u0_pm + S_pm, Dirichlet zero at y = +-Y, a shared junction
unknown at y = 0, and W(0) = 0. The x dependence is purely parametric,
so columns solve independently; zero-jump columns are exactly zero and
skipped. The quasilinear solve is a Picard iteration: coefficients and
forcing frozen at the previous space-time iterate, each sweep a
Crank-Nicolson march with a one-sided-Taylor junction row, its
interior rows premultiplied by (I + [V_pm + W]x)^-1 so that neighbours
couple by scalars. Information
flows forward in time, so the iteration converges one window of a few
time levels before the next; the first window that stops contracting
bounds the horizon. The levels are geometry.time_grid's, whose binary
opening steps absorb the start-up stiffness of discontinuous data. The
active columns march together, stacked into one banded solve per time
step, and leave a window once converged.

Contains:
- halves / lift: each side's half-line of the mirrored y-mesh (the
  junction included) and its lift S_pm
- F_pm: the increment F(u0+U, V, H0-(U.e1)e1) - F(u0, 0, H0) of
  limit_model.F_rhs
- _sweep: one Crank-Nicolson march of stacked columns (a Picard sweep)
- picard_profiles / ProfilePair: the windowed fixed-point loop, result
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .banded import block_tridiag_solve, cross, inv_id_plus_cross
from .errors import NonContraction, ValidationError
from .geometry import (apply_tridiagonal_stencil, d2_coefficients,
                       in_v_sigma, one_sided_d1, profile_d1)
from .limit_model import ExtendedLimit, F_rhs, precession_rhs
from .strayfield import layer_correction, stray_field_slab


# === the two sides ===

def halves(ny: int) -> tuple:
    """(rows, sign) of the minus side y <= 0, then of the plus side
    y >= 0, of a mirrored mesh of ny nodes: both hold the junction y = 0
    at j0 = ny // 2, and sign is the side's sign in lift."""
    j0 = ny // 2
    return (slice(None, j0 + 1), 1.0), (slice(j0, None), -1.0)


def lift(delta, y, sign: float):
    """The exponential lift S = sign 1/2 delta e^{-|y|} of one side,
    broadcast over delta and the side's stretched coordinates y."""
    return sign * 0.5 * delta * np.exp(-np.abs(y))


# === profile nonlinearity ===

def F_pm(U: np.ndarray, V: np.ndarray, u0: np.ndarray,
         H0: np.ndarray) -> np.ndarray:
    """Zero-order increment of the reaction term inside the layer:
    F(u0 + U, V, H0 - (U.e1) e1) - F(u0, 0, H0).

    The profile sees the limit field H0 corrected by its own fast-scale
    stray field -(U.e1) e1, e1 the slab normal; F(u0, 0, H0) is the
    limit flow's precession_rhs(u0, H0).
    """
    return (F_rhs(u0 + U, V, H0 + layer_correction(U))
            - precession_rhs(u0, H0))


# === the stacked Crank-Nicolson march ===

# time levels of one Picard window: each window converges before the
# next starts, so a sweep marches only these levels
TIME_BLOCK = 8


def _l2_y_per_time(y: np.ndarray, D: np.ndarray) -> np.ndarray:
    """L2(y) norms of a (..., ny, 3) stack, one value per leading index."""
    return np.sqrt(np.trapezoid(np.sum(D * D, axis=-1), y, axis=-1))


def _sweep(y: np.ndarray, times: np.ndarray, w_k: np.ndarray,
           coeff: np.ndarray, f_minus: np.ndarray,
           f_plus: np.ndarray) -> np.ndarray:
    """Crank-Nicolson march of stacked columns; returns them at times[1:].

    Solves dW/dt = (I + [coeff]x) W_yy + f on every column from w_k
    (ncols, ny, 3) at times[0] on the mirrored mesh y, whose junction
    y = 0 sits at j0 = y.size // 2; coeff is (nt, ncols, ny, 3), and
    each side's forcing is on its half-line: f_minus (nt, ncols, j0 + 1,
    3) on y <= 0, f_plus (nt, ncols, ny - j0, 3) on y >= 0. The forcing
    may jump at y = 0, so the junction row uses both, f_minus's last row
    and f_plus's first. Dirichlet zero at both ends; the junction row
    combines one-sided Taylor expansions with the equation on each
    side, giving a C1 transmission coupling with a single shared
    unknown. Interior rows are premultiplied by M^-1, M = I + [coeff]x
    at the step's midpoint: diagonal blocks M^-1 - (dt/2) b I, scalar
    couplings -(dt/2) a and -(dt/2) c from the y weights (a, b, c). The
    junction row couples by -1/hm and -1/hp, the Dirichlet rows not at
    all, and each step is one banded solve of the stacked columns.
    """
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
        d2W = np.moveaxis(
            apply_tridiagonal_stencil(d2, np.moveaxis(w_k, -2, 0)), 0, -2)
        rhs = np.einsum("...ij,...j->...i", B, w_k + dt * f_mid) \
            + half * d2W
        diagonal = np.einsum("...ii->...i", B)
        diagonal -= half * b[:, None]
        lower = -half * a
        upper = -half * c

        # Dirichlet ends
        for row in (0, ny - 1):
            lower[row] = 0.0
            upper[row] = 0.0
            B[:, row] = eye
            rhs[:, row] = 0.0
        # junction row: one-sided Taylor plus the equation on each
        # side; time derivative backward, forcing at the new level.
        # The products stay matmul: einsum rounds them differently.
        mj_inv = inv_id_plus_cross(coeff[j + 1][:, j0])
        lower[j0] = -1.0 / hm
        upper[j0] = -1.0 / hp
        B[:, j0] = (1.0 / hm + 1.0 / hp) * eye \
            + ((hm + hp) / (2.0 * dt)) * mj_inv
        rhs[:, j0] = (
            ((hm + hp) / (2.0 * dt)) * (mj_inv @ w_k[:, j0, :, None])
            + 0.5 * hm * (mj_inv @ f_minus[j + 1][:, -1, :, None])
            + 0.5 * hp * (mj_inv @ f_plus[j + 1][:, 0, :, None]))[..., 0]

        w_k = block_tridiag_solve(lower, B, upper, rhs)
        new[j] = w_k
    return new


# === fixed point over the columns ===

def _profile_levels(y: np.ndarray, W: np.ndarray, delta, delta_dt, u0p,
                    u0m):
    """Coefficient and per-side forcing frozen at the iterate W.

    W is (m, ncols, ny, 3) at m time levels; delta, delta_dt and the
    one-sided states u0p, u0m are (m, ncols, 3) at the same levels.
    Each side's lift S (dS/dy = sign S there), its forcing and its
    V = u0 + S are built on the side's own half-line (halves). Returns
    (coeff, f_minus, f_plus): the forcings as _sweep takes them, and
    coeff V_minus below the junction and V_plus from it on, plus W.
    """
    dyW = profile_d1(y, W)
    sides = []
    for (rows, sign), u0 in zip(halves(y.size), (u0m, u0p)):
        u0_b = u0[..., None, :]
        H0 = stray_field_slab(u0)[..., None, :]
        W_s = W[..., rows, :]
        S = lift(delta[..., None, :], y[rows, None], sign)
        V = u0_b + S
        f = (F_pm(W_s + S, dyW[..., rows, :] + sign * S, u0_b, H0)
             - lift(delta_dt[..., None, :], y[rows, None], sign) + S
             + cross(V + W_s, S))
        sides.append((V, f))
    (V_m, f_m), (V_p, f_p) = sides
    coeff = np.concatenate([V_m[..., :-1, :], V_p], axis=-2) + W
    return coeff, f_m, f_p


def _stalled(diffs: list, tol: float, max_iter: int, x_label: float,
             t_window: float) -> Optional[NonContraction]:
    """The abort for a column whose last sweep missed tol, if it is due."""
    ratios = [diffs[q + 1] / diffs[q] for q in range(len(diffs) - 1)]
    if len(diffs) >= 4 and (diffs[-1] >= diffs[-2] >= diffs[-3]
                            >= diffs[-4]):
        return NonContraction(
            f"profile iteration stopped contracting at x={x_label:.6g} "
            f"(last diffs {[f'{d:.3e}' for d in diffs[-3:]]}); "
            f"converged up to t={t_window:.6g}",
            t_converged=t_window, ratios=ratios)
    if len(diffs) >= max_iter:
        return NonContraction(
            f"profile iteration at x={x_label:.6g} did not reach "
            f"tol={tol:.1e} in {max_iter} sweeps (last diff "
            f"{diffs[-1]:.3e})",
            t_converged=0.0, ratios=ratios)
    return None


def _picard(y: np.ndarray, times: np.ndarray, W: np.ndarray,
            cols: np.ndarray, delta, delta_dt, u0p, u0m, tol: float,
            max_iter: int, x_labels) -> tuple:
    """Iterate the listed columns of W (nt, ncol, ny, 3) to the fixed point.

    delta, delta_dt, u0p, u0m are (nt, ncol, 3), x_labels one per
    column, W[0] the start. One window of TIME_BLOCK levels converges at
    a time: its sweeps march from its converged first level, from a
    guess extrapolating the last two converged levels linearly. A column
    leaves the window's sweeps once its largest per-time change drops
    below tol, so it takes as many sweeps as it would alone. Returns
    (traces, failure): each column's per-window sweep changes over the
    windows all columns completed, and None or the NonContraction of
    the lowest column failing in the first window where one failed.
    """
    cols = np.asarray(cols, dtype=int)
    traces = {col: [] for col in cols.tolist()}
    for k0 in range(0, times.size - 1 if cols.size else 0, TIME_BLOCK):
        k1 = min(k0 + TIME_BLOCK, times.size - 1)
        win = slice(k0 + 1, k1 + 1)
        if k0 == 0:
            W[win, cols] = W[0, cols]
        else:
            slope = (times[win] - times[k0]) / (times[k0] - times[k0 - 1])
            W[win, cols] = W[k0, cols] + slope[:, None, None, None] * (
                W[k0, cols] - W[k0 - 1, cols])
        first = _profile_levels(y, W[k0:k0 + 1, cols],
                                *(arr[k0:k0 + 1, cols]
                                  for arr in (delta, delta_dt, u0p, u0m)))
        sweeps = {col: [] for col in traces}
        failed = None
        active = np.arange(cols.size)
        while active.size:
            act = cols[active]
            old = W[win, act]
            rest = _profile_levels(y, old, *(arr[win, act] for arr in
                                             (delta, delta_dt, u0p, u0m)))
            new = _sweep(y, times[k0:k1 + 1], W[k0, act],
                         *(np.concatenate([f0[:, active], f])
                           for f0, f in zip(first, rest)))
            change = _l2_y_per_time(y, new - old).max(axis=0)
            W[win, act] = new
            still = []
            for pos, col, diff in zip(active.tolist(), act.tolist(),
                                      change.tolist()):
                trace = sweeps[col]
                trace.append(diff)
                if diff < tol:
                    continue
                failure = _stalled(trace, tol, max_iter, x_labels[col],
                                   float(times[k0]))
                if failure is not None:
                    # one column at a time, the columns above it never run
                    failed = failure
                    break
                still.append(pos)
            active = np.array(still, dtype=int)
        if failed is not None:
            return list(traces.values()), failed
        for col, trace in sweeps.items():
            traces[col].append(trace)
    return list(traces.values()), None


@dataclass(frozen=True)
class ProfilePair:
    """Transmission profiles W(t, x, y) on the jump support.

    W is stored only on the x_support columns (the interface
    neighborhood); outside them the profile is identically zero. The
    full layer terms are U_pm = W + S_pm with S the exponential lift
    carried by delta = u0_plus - u0_minus. residual_trace[col] holds one
    tuple of sweep changes per Picard window, iterations[col] the most
    sweeps any window of that column took.
    """

    times: np.ndarray
    y: np.ndarray
    x_param: np.ndarray
    support_mask: np.ndarray
    x_support: np.ndarray
    W: np.ndarray
    delta: np.ndarray
    full_delta: np.ndarray
    iterations: np.ndarray
    residual_trace: tuple

    @property
    def Y(self) -> float:
        return float(self.y[-1])

    @property
    def j0(self) -> int:
        """Index of the junction y = 0 on the mirrored mesh."""
        return self.y.size // 2

    def layer_term(self, side: str) -> np.ndarray:
        """U_pm = W + S_pm on the stored columns and the named side's
        half-line (halves): (nt, nxs, ny // 2 + 1, 3)."""
        rows, sign = halves(self.y.size)[side == "plus"]
        return self.W[:, :, rows] + lift(self.delta[:, :, None, :],
                                         self.y[rows, None], sign)

    def junction_trace(self) -> np.ndarray:
        """W at y = 0: (nt, nxs, 3)."""
        return self.W[:, :, self.j0, :]

    def tail_max(self) -> float:
        """Largest |U| at the truncated ends y = -+Y."""
        if self.W.size == 0:
            return 0.0
        return max(float(np.max(np.abs(self.layer_term(side)[:, :, end])))
                   for side, end in (("minus", 0), ("plus", -1)))

    def transmission_defect(self) -> tuple:
        """(value gap, one-sided derivative mismatch) of W at y = 0.

        The value gap is structurally zero (shared junction unknown);
        the derivative mismatch is measured with second-order one-sided
        stencils on each side.
        """
        if self.W.size == 0:
            return 0.0, 0.0
        stack = np.moveaxis(self.W, 2, 0)
        dm, dp = (one_sided_d1(self.y[rows], stack[rows], end)
                  for (rows, _), end in zip(halves(self.y.size),
                                            ("right", "left")))
        return 0.0, float(np.max(np.abs(dp - dm)))

    def contraction_ratios(self) -> list:
        """Ratios of successive sweep changes inside each window."""
        return [trace[q + 1] / trace[q] for windows in self.residual_trace
                for trace in windows for q in range(len(trace) - 1)]

    def support_defect(self) -> float:
        """Largest |delta| outside the interface neighborhood."""
        outside = ~self.support_mask
        if not outside.any():
            return 0.0
        return float(np.max(np.abs(self.full_delta[:, outside])))

    def validate(self, value_tol: float = 1e-8, deriv_tol: float = 1e-6,
                 tail_tol: float = 1e-6, support_tol: float = 1e-12) -> None:
        """Raise ValidationError if the layer is unresolved or leaking."""
        val, der = self.transmission_defect()
        if val > value_tol:
            raise ValidationError(
                f"junction value gap {val:.3e} exceeds {value_tol:.1e}")
        if der > deriv_tol:
            raise ValidationError(
                f"junction derivative gap {der:.3e} exceeds {deriv_tol:.1e}")
        tail = self.tail_max()
        if tail > tail_tol:
            raise ValidationError(
                f"profile tail {tail:.3e} at |y|={self.Y:g} exceeds "
                f"{tail_tol:.1e}; enlarge the profile box")
        sup = self.support_defect()
        if sup > support_tol:
            raise ValidationError(
                f"jump field leaks {sup:.3e} outside the interface "
                f"neighborhood (tolerance {support_tol:.1e})")
        bad = [r for r in self.contraction_ratios() if r >= 1.0]
        if bad:
            raise ValidationError(
                f"{len(bad)} non-contracting sweep ratio(s), worst "
                f"{max(bad):.3f}")


def picard_profiles(ext: ExtendedLimit, y: np.ndarray, tol: float,
                    max_iter: int) -> ProfilePair:
    """Solve the transmission profiles on the columns of the interface
    neighborhood (geometry.in_v_sigma).

    Columns whose jump and jump rate vanish identically are exactly
    zero and skipped without marching; that covers everything outside
    the interface neighborhood, and symmetric data everywhere. A window
    that stops contracting raises its NonContraction, and no profiles.
    """
    delta_full = ext.delta
    delta_dt_full = ext.delta_dt
    x = ext.x_param
    mask = in_v_sigma(x)
    nonzero = (np.max(np.abs(delta_full), axis=(0, 2)) > 0.0) \
        | (np.max(np.abs(delta_dt_full), axis=(0, 2)) > 0.0)
    idx = np.nonzero(mask)[0]

    W = np.zeros((ext.times.size, idx.size, y.size, 3))
    marched = np.nonzero(nonzero[idx])[0]
    traces, failure = _picard(y, ext.times, W, marched,
                              delta_full[:, idx], delta_dt_full[:, idx],
                              ext.u_plus[:, idx], ext.u_minus[:, idx], tol,
                              max_iter, x[idx])
    if failure is not None:
        raise failure
    iterations = np.zeros(idx.size, dtype=int)
    residual_trace = [()] * idx.size
    for col, windows in zip(marched, traces):
        iterations[col] = max(map(len, windows), default=0)
        residual_trace[col] = tuple(map(tuple, windows))

    return ProfilePair(
        times=ext.times, y=y, x_param=x,
        support_mask=mask, x_support=x[mask], W=W,
        delta=delta_full[:, mask], full_delta=delta_full,
        iterations=iterations, residual_trace=tuple(residual_trace))
