"""Zero-exchange limit flow: a pointwise precession/relaxation ODE.

With the exchange term switched off the magnetization at each node obeys
    du/dt = u x H(u) - u x (u x H(u)),      H(u) = (-u1, 0, 0),
which preserves |u| and drives u1 toward 0 through du1/dt = u1(u1^2 - 1)
on the unit sphere. Nodes never couple, so everything here is vectorized
over an arbitrary leading shape.

Contains:
- precession_rhs: u x H - u x (u x H) for a given field H
- rhs_limit: the same with the slab stray field substituted
- step_rk4 / step_midpoint: single steps, optional renormalization
- output_times: the output times {0, T} joined with requested ones
- substeps: the uniform substep count of one output interval
- simulate_limit: trajectory on [0, T] hitting requested output times
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .strayfield import stray_field_slab


def precession_rhs(u: np.ndarray, H: np.ndarray) -> np.ndarray:
    """u x H - u x (u x H), broadcast over leading axes."""
    uxH = np.cross(u, H)
    return uxH - np.cross(u, uxH)


def rhs_limit(u: np.ndarray) -> np.ndarray:
    """Limit-flow right-hand side with the slab stray field."""
    return precession_rhs(u, stray_field_slab(u))


def renormalize(u: np.ndarray) -> np.ndarray:
    """Project onto the unit sphere; zero vectors are rejected."""
    norms = np.linalg.norm(u, axis=-1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("cannot renormalize a zero magnetization vector")
    return u / norms


def step_rk4(u: np.ndarray, dt: float, project: bool = True) -> np.ndarray:
    """One classic fourth-order step of the limit flow."""
    k1 = rhs_limit(u)
    k2 = rhs_limit(u + 0.5 * dt * k1)
    k3 = rhs_limit(u + 0.5 * dt * k2)
    k4 = rhs_limit(u + dt * k3)
    out = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return renormalize(out) if project else out


def step_midpoint(u: np.ndarray, dt: float, project: bool = False) -> np.ndarray:
    """One explicit midpoint (second-order) step of the limit flow.

    This is the scheme the full integrator degenerates to at zero
    exchange length, so it is kept separate for that cross-check.
    """
    mid = u + 0.5 * dt * rhs_limit(u)
    out = u + dt * rhs_limit(mid)
    return renormalize(out) if project else out


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
                   t_eval: Optional[Sequence[float]] = None,
                   project: bool = True) -> LimitTrajectory:
    """March the limit flow to time T, recording requested output times.

    Output times are {0, T} joined with t_eval; each interval between
    consecutive output times is covered by uniform substeps of size at
    most dt, so every requested time is hit exactly rather than
    interpolated.
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
            u = step_rk4(u, h, project=project)
        values[k + 1] = u
    return LimitTrajectory(times=times, values=values)
