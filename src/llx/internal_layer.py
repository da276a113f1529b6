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
unknown at y = 0, and W(0) = 0. In one dimension the interface is the
single point x = 0, and the profile is solved there only: every
accepted input has delta(t, x) = chi_sigma(x) delta(t, 0) and S is
linear in delta, so the ansatz weights this one column by the cutoff
(expansion). A column with no jump and no jump rate is exactly zero and
not marched. The quasilinear solve is a Picard iteration: coefficients
and forcing frozen at the previous space-time iterate, each sweep a
Crank-Nicolson march with a one-sided-Taylor junction row, its
interior rows premultiplied by (I + [V_pm + W]x)^-1 so that neighbours
couple by scalars, one banded solve per time step. Information
flows forward in time, so the iteration converges one window of a few
time levels before the next; the first window that stops contracting
bounds the horizon. The levels are geometry.time_grid's, whose binary
opening steps absorb the start-up stiffness of discontinuous data. The
iteration leaves a window once its last sweep change d is below tol,
or once its last two changes contract, rho = d / d_prev < 1, with
d rho / (1 - rho) below tol: the geometric bound on the changes still
to come (windowed waveform relaxation converges superlinearly;
Miekkala & Nevanlinna, SIAM J. Sci. Stat. Comput. 8, 1987). Each window
after the first starts from the parabola through the last three
converged levels.

Contains:
- halves / lift: each side's half-line of the mirrored y-mesh (the
  junction included) and its lift S_pm
- F_pm: the increment F(u0+U, V, H0-(U.e1)e1) - F(u0, 0, H0) of
  limit_model.F_rhs
- _sweep: one Crank-Nicolson march of the column (a Picard sweep)
- _predict / _settled: a window's starting guess, its exit rule
- picard_profiles / ProfilePair: the windowed fixed-point loop, result
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .banded import block_tridiag_solve, cross, inv_id_plus_cross
from .errors import NonContraction, ValidationError
from .geometry import (apply_tridiagonal_stencil, d2_coefficients,
                       one_sided_d1, profile_d1, x_squares)
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


# === the Crank-Nicolson march ===

# time levels of one Picard window: each window converges before the
# next starts, so a sweep marches only these levels
TIME_BLOCK = 8


def _sweep(y: np.ndarray, times: np.ndarray, w_k: np.ndarray,
           coeff: np.ndarray, f_minus: np.ndarray,
           f_plus: np.ndarray) -> np.ndarray:
    """Crank-Nicolson march of the column; returns it at times[1:].

    Solves dW/dt = (I + [coeff]x) W_yy + f from w_k (ny, 3) at times[0]
    on the mirrored mesh y, whose junction y = 0 sits at
    j0 = y.size // 2; coeff is (nt, ny, 3), and each side's forcing is
    on its half-line: f_minus (nt, j0 + 1, 3) on y <= 0, f_plus
    (nt, ny - j0, 3) on y >= 0. The forcing
    may jump at y = 0, so the junction row uses both, f_minus's last row
    and f_plus's first. Dirichlet zero at both ends; the junction row
    combines one-sided Taylor expansions with the equation on each
    side, giving a C1 transmission coupling with a single shared
    unknown. Interior rows are premultiplied by M^-1, M = I + [coeff]x
    at the step's midpoint: diagonal blocks M^-1 - (dt/2) b I, scalar
    couplings -(dt/2) a and -(dt/2) c from the y weights (a, b, c). The
    junction row couples by -1/hm and -1/hp, the Dirichlet rows not at
    all, and each step is one banded solve.
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
        rhs = np.einsum("...ij,...j->...i", B, w_k + dt * f_mid) \
            + half * apply_tridiagonal_stencil(d2, w_k)
        diagonal = np.einsum("...ii->...i", B)
        diagonal -= half * b[:, None]
        lower = -half * a
        upper = -half * c

        # Dirichlet ends
        for row in (0, ny - 1):
            lower[row] = 0.0
            upper[row] = 0.0
            B[row] = eye
            rhs[row] = 0.0
        # junction row: one-sided Taylor plus the equation on each
        # side; time derivative backward, forcing at the new level.
        # The products stay matmul: einsum rounds them differently.
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


# === the windowed fixed point ===

def _profile_data(y: np.ndarray, delta, delta_dt, u0p, u0m) -> tuple:
    """The half of the frozen coefficient and forcing that no iterate
    enters, built once per window.

    delta, delta_dt and the one-sided states u0p, u0m are (m, 3) at m
    time levels. Returns a flat tuple of arrays with the same leading
    axis: per side (halves, minus first) u0, H0, the lift S, V = u0 + S
    and the lift of delta_dt on the side's half-line.
    """
    data = []
    for (rows, sign), u0 in zip(halves(y.size), (u0m, u0p)):
        u0_b = u0[..., None, :]
        S = lift(delta[..., None, :], y[rows, None], sign)
        data += [u0_b, stray_field_slab(u0)[..., None, :], S, u0_b + S,
                 lift(delta_dt[..., None, :], y[rows, None], sign)]
    return tuple(data)


def _profile_levels(y: np.ndarray, W: np.ndarray, data: tuple):
    """Coefficient and per-side forcing frozen at the iterate W.

    W is (m, ny, 3) at m time levels, data the _profile_data of the
    same levels (a sweep takes the window's levels, its first one
    included). Each side's forcing (dS/dy = sign S
    there) is built on the side's own half-line (halves). Returns
    (coeff, f_minus, f_plus): the forcings as _sweep takes them, and
    coeff V_minus below the junction and V_plus from it on, plus W.
    """
    dyW = profile_d1(y, W)
    sides = []
    for (rows, sign), (u0, H0, S, V, dS) in zip(halves(y.size),
                                                (data[:5], data[5:])):
        W_s = W[..., rows, :]
        f = (F_pm(W_s + S, dyW[..., rows, :] + sign * S, u0, H0)
             - dS + S + cross(V + W_s, S))
        sides.append((V, f))
    (V_m, f_m), (V_p, f_p) = sides
    coeff = np.concatenate([V_m[..., :-1, :], V_p], axis=-2) + W
    return coeff, f_m, f_p


def _predict(t_past: np.ndarray, past: np.ndarray,
             t: np.ndarray) -> np.ndarray:
    """The quadratic through three levels past (3, ...) at the times
    t_past, evaluated at the times t: (t.size, ...), the Lagrange form."""
    t0, t1, t2 = t_past
    weights = ((t - t1) / (t0 - t1) * ((t - t2) / (t0 - t2)),
               (t - t0) / (t1 - t0) * ((t - t2) / (t1 - t2)),
               (t - t0) / (t2 - t0) * ((t - t1) / (t2 - t1)))
    shape = t.shape + (1,) * (past.ndim - 1)
    return sum(w.reshape(shape) * level for w, level in zip(weights, past))


def _settled(diffs: list, tol: float) -> bool:
    """Whether the iteration may leave its window after the sweep changes
    diffs: the last change d is below tol, or the last two contract,
    rho = d / d_prev < 1, and d rho / (1 - rho), the geometric bound on
    the changes still to come, is below tol."""
    d = diffs[-1]
    if d < tol:
        return True
    if len(diffs) < 2:
        return False
    rho = d / diffs[-2]
    return rho < 1.0 and d * rho / (1.0 - rho) < tol


def _stalled(diffs: list, tol: float, max_iter: int,
             t_window: float) -> Optional[NonContraction]:
    """The abort for a window that has not settled, if it is due."""
    ratios = [diffs[q + 1] / diffs[q] for q in range(len(diffs) - 1)]
    if len(diffs) >= 4 and (diffs[-1] >= diffs[-2] >= diffs[-3]
                            >= diffs[-4]):
        return NonContraction(
            f"profile iteration stopped contracting "
            f"(last diffs {[f'{d:.3e}' for d in diffs[-3:]]}); "
            f"converged up to t={t_window:.6g}",
            t_converged=t_window, ratios=ratios)
    if len(diffs) >= max_iter:
        return NonContraction(
            f"profile iteration did not reach tol={tol:.1e} in "
            f"{max_iter} sweeps (last diff {diffs[-1]:.3e})",
            t_converged=0.0, ratios=ratios)
    return None


def _picard(y: np.ndarray, times: np.ndarray, W: np.ndarray, delta,
            delta_dt, u0p, u0m, tol: float, max_iter: int) -> list:
    """Iterate the column W (nt, ny, 3) to the fixed point, in place.

    delta, delta_dt, u0p, u0m are (nt, 3), W[0] the start. One window of
    TIME_BLOCK levels converges at a time: its sweeps march from its
    converged first level, from a guess extrapolating the last three
    converged levels quadratically on their own times (_predict; the
    first window starts from W[0]). The window is left once it has
    settled (_settled): the largest per-time change d is below tol, or
    the geometric bound d rho / (1 - rho) on the remaining change is,
    rho < 1 the ratio of the last two changes. So W ends about tol from
    the fixed point. Returns the sweep changes of each window, or raises
    the NonContraction of the first window that fails.
    """
    traces = []
    for k0 in range(0, times.size - 1, TIME_BLOCK):
        k1 = min(k0 + TIME_BLOCK, times.size - 1)
        win = slice(k0 + 1, k1 + 1)
        if k0 == 0:
            W[win] = W[0]
        else:
            W[win] = _predict(times[k0 - 2:k0 + 1], W[k0 - 2:k0 + 1],
                              times[win])
        # each sweep freezes the forcing at all the window's levels, its
        # converged first one included; the data half is built once
        data = _profile_data(y, *(arr[k0:k1 + 1] for arr in
                                  (delta, delta_dt, u0p, u0m)))
        trace = []
        while True:
            levels = W[k0:k1 + 1]
            new = _sweep(y, times[k0:k1 + 1], levels[0],
                         *_profile_levels(y, levels, data))
            trace.append(float(np.sqrt(x_squares(y, new - levels[1:])).max()))
            W[win] = new
            if _settled(trace, tol):
                break
            failure = _stalled(trace, tol, max_iter, float(times[k0]))
            if failure is not None:
                raise failure
        traces.append(tuple(trace))
    return traces


@dataclass(frozen=True)
class ProfilePair:
    """The transmission profile W(t, y) on the interface x = 0.

    The layer terms there are U_pm = W + S_pm, with S the exponential
    lift carried by delta = u0_plus - u0_minus at x = 0 (nt, 3); the
    ansatz weights them by the interface cutoff chi_sigma(x).
    residual_trace holds one tuple of sweep changes per Picard window,
    none when the column was not marched.
    """

    times: np.ndarray
    y: np.ndarray
    W: np.ndarray
    delta: np.ndarray
    residual_trace: tuple

    @property
    def Y(self) -> float:
        return float(self.y[-1])

    @property
    def j0(self) -> int:
        """Index of the junction y = 0 on the mirrored mesh."""
        return self.y.size // 2

    @property
    def iterations(self) -> np.ndarray:
        """The most sweeps any window took (0 unmarched), a 0-d int
        array: the sweep count of the one column."""
        return np.array(max(map(len, self.residual_trace), default=0))

    def layer_term(self, side: str) -> np.ndarray:
        """U_pm = W + S_pm on the named side's half-line (halves):
        (nt, ny // 2 + 1, 3)."""
        rows, sign = halves(self.y.size)[side == "plus"]
        return self.W[:, rows] + lift(self.delta[:, None, :],
                                      self.y[rows, None], sign)

    def junction_trace(self) -> np.ndarray:
        """W at y = 0: (nt, 3)."""
        return self.W[:, self.j0, :]

    def tail_max(self) -> float:
        """Largest |U| at the truncated ends y = -+Y."""
        return max(float(np.max(np.abs(self.layer_term(side)[:, end])))
                   for side, end in (("minus", 0), ("plus", -1)))

    def transmission_defect(self) -> tuple:
        """(value gap, one-sided derivative mismatch) of W at y = 0.

        The value gap is structurally zero (shared junction unknown);
        the derivative mismatch is measured with second-order one-sided
        stencils on each side.
        """
        dm, dp = (one_sided_d1(self.y[rows], self.W[:, rows], end)
                  for (rows, _), end in zip(halves(self.y.size),
                                            ("right", "left")))
        return 0.0, float(np.max(np.abs(dp - dm)))

    def contraction_ratios(self) -> list:
        """Ratios of successive sweep changes inside each window."""
        return [trace[q + 1] / trace[q] for trace in self.residual_trace
                for q in range(len(trace) - 1)]

    def validate(self, value_tol: float = 1e-8, deriv_tol: float = 1e-6,
                 tail_tol: float = 1e-6) -> None:
        """Raise ValidationError if the layer is unresolved."""
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
        bad = [r for r in self.contraction_ratios() if r >= 1.0]
        if bad:
            raise ValidationError(
                f"{len(bad)} non-contracting sweep ratio(s), worst "
                f"{max(bad):.3f}")


def picard_profiles(ext: ExtendedLimit, y: np.ndarray, tol: float,
                    max_iter: int) -> ProfilePair:
    """Solve the transmission profile on the interface x = 0.

    A column whose jump and jump rate vanish identically (continuous or
    symmetric data) is exactly zero and not marched. A window that stops
    contracting raises its NonContraction, and no profile.
    """
    i0 = int(np.searchsorted(ext.x_param, 0.0))
    u0p, u0m = ext.u_plus[:, i0], ext.u_minus[:, i0]
    delta = u0p - u0m
    delta_dt = ext.du_plus[:, i0] - ext.du_minus[:, i0]
    W = np.zeros((ext.times.size, y.size, 3))
    traces = []
    if delta.any() or delta_dt.any():
        traces = _picard(y, ext.times, W, delta, delta_dt, u0p, u0m, tol,
                         max_iter)
    return ProfilePair(times=ext.times, y=y, W=W, delta=delta,
                       residual_trace=tuple(traces))
