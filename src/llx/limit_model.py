"""Zero-exchange limit flow: a pointwise precession/relaxation ODE.

With the exchange term switched off the magnetization at each node obeys
    du/dt = u x H(u) - u x (u x H(u)),      H(u) = (-u1, 0, 0),
which preserves |u| and drives u1 toward 0 through du1/dt = u1(u1^2 - 1)
on the unit sphere. Nodes never couple, so everything here is vectorized
over an arbitrary leading shape. The full model's reaction term F lives
here too, the one home all three physics layers take it from.

Contains:
- precession_rhs: u x H - u x (u x H) for a given field H
- F_rhs: the reaction term |V|^2 u + u x H - u x (u x H)
- rhs_limit: the same with the slab stray field substituted
- renormalize: projection onto the unit sphere
- step_rk4: one classic fourth-order step
- output_times: the output times {0, T} joined with requested ones
- substeps: the uniform substep count of one output interval
- simulate_limit: trajectory on [0, T] hitting requested output times
- ExtendedLimit / extend_limit: one-sided limit states extended across
  the interface by branch continuation and cutoff blending, with exact
  time derivatives
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fields import MagnetizationField
from .geometry import chi_sigma
from .strayfield import stray_field_slab


def precession_rhs(u: np.ndarray, H: np.ndarray) -> np.ndarray:
    """u x H - u x (u x H), broadcast over leading axes."""
    uxH = np.cross(u, H)
    return uxH - np.cross(u, uxH)


def F_rhs(u: np.ndarray, V: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Reaction term |V|^2 u + u x H - u x (u x H)."""
    uxH = np.cross(u, H)
    return (np.sum(V * V, axis=-1, keepdims=True) * u
            + uxH - np.cross(u, uxH))


def rhs_limit(u: np.ndarray) -> np.ndarray:
    """Limit-flow right-hand side with the slab stray field."""
    return precession_rhs(u, stray_field_slab(u))


def renormalize(u: np.ndarray) -> np.ndarray:
    """Project onto the unit sphere; zero vectors are rejected."""
    norms = np.linalg.norm(u, axis=-1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("cannot renormalize a zero magnetization vector")
    return u / norms


def step_rk4(u: np.ndarray, dt: float) -> np.ndarray:
    """One classic fourth-order step of the limit flow, unprojected."""
    k1 = rhs_limit(u)
    k2 = rhs_limit(u + 0.5 * dt * k1)
    k3 = rhs_limit(u + 0.5 * dt * k2)
    k4 = rhs_limit(u + dt * k3)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@dataclass(frozen=True)
class LimitTrajectory:
    """Limit-flow values on a set of output times.

    values[k] is the magnetization array at times[k]; the trailing axis
    is the 3-vector, the leading axes are whatever the initial data had.
    """

    times: np.ndarray
    values: np.ndarray


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


def simulate_limit(u0: np.ndarray, T: float, dt: float,
                   t_eval: Optional[Sequence[float]] = None
                   ) -> LimitTrajectory:
    """March the limit flow to time T, recording requested output times.

    Output times are {0, T} joined with t_eval; each interval between
    consecutive output times is covered by uniform RK4 substeps of size
    at most dt, each projected back onto the sphere, so every requested
    time is hit exactly rather than interpolated.
    """
    if T <= 0.0:
        raise ValueError(f"final time must be positive, got {T}")
    if dt <= 0.0:
        raise ValueError(f"step size must be positive, got {dt}")
    u0 = np.asarray(u0, dtype=float)
    times = output_times(T, t_eval)

    values = np.empty((times.size,) + u0.shape)
    values[0] = u0
    u = u0
    for k in range(times.size - 1):
        span = times[k + 1] - times[k]
        nsub = substeps(span, dt)
        h = span / nsub
        for _ in range(nsub):
            u = renormalize(step_rk4(u, h))
        values[k + 1] = u
    return LimitTrajectory(times=times, values=values)


# === the limit flow extended across the interface ===

@dataclass(frozen=True)
class ExtendedLimit:
    """One-sided limit states extended across the interface.

    u_plus[k, i] is the plus-side extension at (times[k], x_param[i]);
    on x >= 0 it equals the limit solution, on x < 0 it blends the
    continuation of the plus-side data branch with the local solution
    using the interface cutoff, so the jump field u_plus - u_minus is
    chi_sigma(x) times the branch gap: supported inside the interface
    neighborhood, and bitwise zero everywhere for continuous data.
    du_* are exact time derivatives (the blend is a time-independent
    linear combination of pointwise solutions).
    """

    times: np.ndarray
    x_param: np.ndarray
    u_plus: np.ndarray
    u_minus: np.ndarray
    du_plus: np.ndarray
    du_minus: np.ndarray

    @property
    def delta(self) -> np.ndarray:
        return self.u_plus - self.u_minus

    @property
    def delta_dt(self) -> np.ndarray:
        return self.du_plus - self.du_minus


def extend_limit(data: MagnetizationField, x: np.ndarray,
                 times: np.ndarray) -> ExtendedLimit:
    """Evolve both data branches on the parameter nodes x and blend.

    Each side's initial branch continues smoothly across the interface
    (constants broadcast, a continuous field is its own continuation),
    and the limit flow is pointwise, so the branch evolutions are
    global one-sided solutions. The extension keeps each branch on its
    own side and fades it into the other side's solution with the
    interface blending weight geometry.chi_sigma, whose window
    |x| < 0.35 is fixed.
    """
    times = np.asarray(times, dtype=float)
    if times[0] != 0.0 or np.any(np.diff(times) <= 0.0):
        raise ValueError(f"times must start at 0 and increase strictly, "
                         f"got {times.tolist()}")
    i_zero = int(np.argmin(np.abs(x)))
    if x[i_zero] != 0.0:
        raise ValueError("parameter mesh must contain the interface node")

    u_init = np.stack([data.branch(x, "minus"), data.branch(x, "plus")])
    # strictly increasing from 0, so the output times are exactly times
    vals = simulate_limit(u_init, T=float(times[-1]), dt=1e-3,
                          t_eval=list(times)).values
    v_minus, v_plus = vals[:, 0], vals[:, 1]
    r_minus, r_plus = rhs_limit(v_minus), rhs_limit(v_plus)

    chi = chi_sigma(x)

    def blend(own, other, keep_on):
        out = own.copy()
        mask = x < 0.0 if keep_on == "plus" else x > 0.0
        cm = chi[None, mask, None]
        # incremental form: identical branches stay bitwise jump-free
        out[:, mask] = other[:, mask] \
            + cm * (own[:, mask] - other[:, mask])
        return out

    return ExtendedLimit(times=times, x_param=x,
                         u_plus=blend(v_plus, v_minus, "plus"),
                         u_minus=blend(v_minus, v_plus, "minus"),
                         du_plus=blend(r_plus, r_minus, "plus"),
                         du_minus=blend(r_minus, r_plus, "minus"))
