"""Full model: grids, integrator order, degeneracy, residuals.

Order verification is by manufactured solution: the exactly-unit field
u = (2/sqrt(5)) (sin(2t + cos pi x), cos(2t + cos pi x), 1/2) has zero
wall derivative in every component, and the source that makes it solve
the model is generated symbolically (manufactured.full_model_solution),
never by hand.
"""

from __future__ import annotations

import mmap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llx import full_model
from llx.errors import SolverAbort
from llx.full_model import (
    FullMarch,
    FullModelConfig,
    FullTrajectory,
    Grid1D,
    ResidualReport,
    make_epsilon_grid,
    residual_report,
    simulate_full,
    substeps,
)
from llx.geometry import LEVEL_BLOCK, level_blocks, time_grid
from llx.limit_model import F_slab, renormalize, rhs_limit

from manufactured import (full_model_solution, reference_step_full,
                          step_midpoint, whole_residual_report)


# === manufactured solution ===

@pytest.fixture(scope="module")
def mms():
    """Exact solution and source, callable as (t, x_array) -> (n, 3)."""
    return full_model_solution()


# === grids ===

def _uniform_grid(cells: int) -> Grid1D:
    """Uniform mesh with an even number of cells on [-1, 1]."""
    return Grid1D(x=np.linspace(-1.0, 1.0, cells + 1))


def test_epsilon_grid_structure():
    # small enough that the layer bands leave a coarse bulk between them
    eps = 0.01
    g = make_epsilon_grid(eps, cells_per_eps=16)
    x = g.x
    h = np.diff(x)
    assert x[0] == -1.0 and x[-1] == 1.0 and 0.0 in x
    assert np.all(h > 0)
    # symmetric about the interface
    assert np.allclose(x, -x[::-1], atol=1e-13)
    # fine resolution where the layers live: near 0 and near the walls
    target = eps / 16
    near_sigma = h[(x[:-1] >= 0) & (x[1:] <= 10 * eps)]
    assert near_sigma.max() <= target * 1.01
    near_gamma = h[(x[:-1] >= 1 - 10 * eps)]
    assert near_gamma.max() <= target * 1.01
    # coarse in the bulk
    mid = h[(x[:-1] > 0.4) & (x[1:] < 0.6)]
    assert mid.min() > 5 * target


def test_epsilon_grid_large_eps_goes_uniformly_fine():
    g = make_epsilon_grid(0.3, cells_per_eps=8)
    h = np.diff(g.x)
    # layer bands cover everything: no cell coarser than the band target
    assert h.max() <= 0.3 / 8 * 1.01


@pytest.mark.parametrize("eps, n", [(0.1, 219), (0.05, 387), (0.025, 567),
                                    (0.0125, 595)])
def test_epsilon_grid_without_walls_coarsens_on_to_them(eps, n):
    # each side keeps the walled mesh's interface half bit for bit, then
    # coarsens to its wall instead of refining again
    walled = make_epsilon_grid(eps, cells_per_eps=16).x
    x = make_epsilon_grid(eps, cells_per_eps=16, walls=False).x
    assert x.size == n
    assert np.array_equal(x[np.abs(x) <= 0.5],
                          walled[np.abs(walled) <= 0.5])
    assert np.array_equal(x, -x[::-1])
    assert np.count_nonzero(x == 0.0) == 1
    assert np.diff(x).max() <= 1.0 / 48.0


@pytest.mark.parametrize("eps, n", [(0.1, 219), (0.05, 387), (0.025, 567)])
def test_epsilon_grid_without_interface_band(eps, n):
    # each side keeps the walled mesh's wall half bit for bit and is
    # coarse from x = 0 on
    walled = make_epsilon_grid(eps, cells_per_eps=16).x
    x = make_epsilon_grid(eps, cells_per_eps=16, interface=False).x
    assert x.size == n
    assert np.array_equal(x[np.abs(x) >= 0.5],
                          walled[np.abs(walled) >= 0.5])
    assert np.array_equal(x, -x[::-1])
    assert np.count_nonzero(x == 0.0) == 1
    assert np.diff(x).max() <= 1.0 / 48.0


@settings(max_examples=80, deadline=None)
@given(eps=st.floats(1e-3, 0.3), cells=st.integers(4, 64),
       interface=st.booleans(), walls=st.booleans())
def test_epsilon_grid_refines_the_places_asked(eps, cells, interface,
                                               walls):
    x = make_epsilon_grid(eps, cells, interface=interface, walls=walls).x
    assert np.array_equal(x, -x[::-1])
    assert np.count_nonzero(x == 0.0) == 1
    h = np.diff(x)
    h_fine, h_max = eps / cells, max(1.0 / 48.0, eps / cells)
    # landing on 1/2 shrinks each half's cells, by less than one cell
    shrink = 0.5 / (0.5 + h_max)
    assert h.max() <= h_max * (1.0 + 1e-12)
    # graded: neighbouring cells differ by at most the growth factor
    ratio = h[1:] / h[:-1]
    assert np.all(ratio <= 1.15 * (1.0 + 1e-9))
    assert np.all(ratio >= 1.0 / (1.15 * (1.0 + 1e-9)))
    reach = min(15.0 * eps, 0.5) * shrink
    for place in [0.0] * interface + [-1.0, 1.0] * walls:
        band = h[np.maximum(np.abs(x[:-1] - place),
                            np.abs(x[1:] - place)) <= reach]
        assert band.size >= 1
        assert band.min() >= h_fine * shrink * (1.0 - 1e-9)
        assert band.max() <= h_fine * (1.0 + 1e-9)


def test_epsilon_grid_validation():
    with pytest.raises(ValueError, match="positive"):
        make_epsilon_grid(0.0, cells_per_eps=16)
    with pytest.raises(ValueError, match="at least 4"):
        make_epsilon_grid(0.1, cells_per_eps=2)


def test_grid1d_validation():
    with pytest.raises(ValueError, match="increase strictly"):
        Grid1D(x=np.array([-1.0, 0.5, 0.25, 0.75, 1.0]))
    with pytest.raises(ValueError, match="increase strictly"):
        Grid1D(x=np.linspace(0.0, 1.0, 11))
    with pytest.raises(ValueError, match="at least 5"):
        Grid1D(x=np.array([-1.0, 0.0, 1.0]))


def test_F_slab_worked_example():
    u = np.array([0.6, 0.8, 0.0])
    V = np.array([2.0, 0.0, 0.0])
    out = F_slab(u, V)
    # H = (-0.6,0,0); |V|^2 u = (2.4,3.2,0); u x H = (0,0,0.48);
    # -u x (u x H) = (-0.384,0.288,0)
    assert np.allclose(out, [2.016, 3.488, 0.48], atol=1e-15)


def test_F_slab_against_expansion():
    rng = np.random.default_rng(44)
    u, V = rng.normal(size=(2, 100, 3))
    out = F_slab(u, V)
    for k in range(100):
        H = np.array([-u[k, 0], 0.0, 0.0])
        expect = (V[k] @ V[k]) * u[k] + np.cross(u[k], H) \
            - np.cross(u[k], np.cross(u[k], H))
        assert np.allclose(out[k], expect, atol=1e-13)


# === integrator ===

def _zero_exchange_reference(u0, dt, steps):
    """The integrator at eps = 0 written out at a constant step: one
    explicit midpoint step starts it, then
    u+ = u + dt F(u + (u - u_prev)/2), each step projected onto the
    sphere."""
    u_prev, u = u0, renormalize(step_midpoint(u0, dt))
    for _ in range(steps - 1):
        u_prev, u = u, renormalize(u + dt * rhs_limit(u + 0.5 * (u - u_prev)))
    return u


def test_zero_exchange_degenerates_to_midpoint_rule():
    rng = np.random.default_rng(45)
    g = _uniform_grid(16)
    u0 = renormalize(rng.normal(size=(g.n, 3)))
    cfg = FullModelConfig(epsilon=0.0, dt=0.02, T=0.2, drift_tol=1e-3)
    traj = simulate_full(u0, g, cfg)
    u_ref = _zero_exchange_reference(u0, 0.02, 10)
    assert np.max(np.abs(traj.values[-1] - u_ref)) < 1e-10


def _mms_error(mms, eps, dt, cells, T=0.4, t_eval=None):
    u_eval, source_for = mms
    g = _uniform_grid(cells)
    cfg = FullModelConfig(epsilon=eps, dt=dt, T=T, drift_tol=1e-3)
    traj = simulate_full(u_eval(0.0, g.x), g, cfg, t_eval=t_eval,
                         source=source_for(eps))
    return float(np.max(np.abs(traj.values[-1] - u_eval(T, g.x))))


def test_mms_second_order_in_space(mms):
    errs = [_mms_error(mms, 0.3, 1e-3, cells, T=0.1)
            for cells in (32, 64, 128)]
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert rates.min() > 1.8, f"spatial rates {rates} from errors {errs}"


def test_mms_second_order_co_refined(mms):
    # dt and h shrink together: a first-order term in either would
    # flatten the observed slope below 2
    errs = []
    for dt, cells in ((0.02, 100), (0.01, 200), (0.005, 400)):
        errs.append(_mms_error(mms, 0.3, dt, cells))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert rates.min() > 1.8, f"co-refined rates {rates} from errors {errs}"


def test_mms_second_order_with_changing_step(mms):
    # output times that no substep divides: the step size changes at
    # each of them, so the midpoint extrapolation runs with
    # tau / tau_prev != 1
    errs = []
    for dt, cells in ((0.02, 100), (0.01, 200), (0.005, 400)):
        errs.append(_mms_error(mms, 0.3, dt, cells, t_eval=[0.013, 0.29]))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert rates.min() > 1.8, f"rates {rates} from errors {errs}"


def test_renormalized_smooth_run_stays_on_sphere():
    from llx.fields import named_field
    g = make_epsilon_grid(0.1, cells_per_eps=8)
    u0 = named_field("swirl")(g.x)
    cfg = FullModelConfig(epsilon=0.1, dt=2e-3, T=0.05, drift_tol=1e-3)
    traj = simulate_full(u0, g, cfg)
    norms = np.linalg.norm(traj.values[-1], axis=-1)
    assert np.max(np.abs(norms - 1.0)) < 1e-14
    # smooth data never trips the drift guard
    assert traj.halvings_used == 0
    assert traj.drift_max < 1e-4


def test_norm_drift_scales_with_dt():
    # smooth on-sphere data: pre-projection drift per step is small and
    # shrinks linearly with the step
    from llx.fields import named_field
    g = _uniform_grid(64)
    u0 = named_field("swirl")(g.x)
    drifts = []
    for dt in (1e-2, 5e-3):
        cfg = FullModelConfig(epsilon=0.1, dt=dt, T=0.05, drift_tol=1e-3)
        drifts.append(simulate_full(u0, g, cfg).drift_max)
    assert drifts[0] < 1e-4
    assert 1.6 < drifts[0] / drifts[1] < 2.4


def _jump_data(x):
    return np.where((x >= 0.0)[:, None], [0.6, 0.8, 0.0], [-0.6, 0.8, 0.0])


def test_jump_data_survives_through_step_halving():
    # discontinuous data: the opening steps are drift-limited, the
    # guard halves its way through and the run still completes
    g = make_epsilon_grid(0.1, cells_per_eps=32)
    cfg = FullModelConfig(epsilon=0.1, dt=1e-3, T=0.01, drift_tol=1e-3)
    traj = simulate_full(_jump_data(g.x), g, cfg)
    assert traj.halvings_used > 0
    norms = np.linalg.norm(traj.values[-1], axis=-1)
    assert np.max(np.abs(norms - 1.0)) < 1e-14
    # layer develops: the interface value moves off the initial jump
    i0 = int(np.argmin(np.abs(g.x)))
    assert abs(traj.values[-1][i0, 0]) < 0.5


def _assert_steps_match_the_reference(calls, grid, cfg, source=None):
    ws = full_model._Workspace(grid)
    for u, v, t, dt in calls:
        u_new, drift, norms = full_model.step_full(u, v, t, dt, ws, cfg,
                                                   source=source)
        want, want_drift = reference_step_full(u, v, t, dt, grid, cfg,
                                               source=source)
        assert np.array_equal(u_new, want) and drift == want_drift, (t, dt)
        assert np.array_equal(norms, np.linalg.norm(want, axis=-1))


def test_step_matches_the_reference_on_random_unit_states(mms):
    # the laid-out stencil weights, the slab reaction term and the
    # per-component diagonal shift change no bit of a step
    rng = np.random.default_rng(41)
    grid = make_epsilon_grid(0.05, cells_per_eps=16)
    cfg = FullModelConfig(epsilon=0.05, dt=1e-3, T=1.0, drift_tol=1e-3)
    calls = [(renormalize(rng.normal(size=(grid.n, 3))),
              renormalize(rng.normal(size=(grid.n, 3))), 0.1, dt)
             for dt in (1e-3, 1e-5)]
    _assert_steps_match_the_reference(calls, grid, cfg)
    _assert_steps_match_the_reference(calls, grid, cfg,
                                      source=mms[1](cfg.epsilon))


@pytest.mark.parametrize("eps, n", [(0.1, 325), (0.0125, 1089)])
def test_step_matches_the_reference_on_jump_march_states(eps, n,
                                                         monkeypatch):
    # every step of a jump march over the opening ramp and two knots,
    # the starting procedure and the drift guard's halved steps included
    grid = make_epsilon_grid(eps, cells_per_eps=16)
    assert grid.n == n
    times = time_grid(5e-3, dt=2.5e-3)
    cfg = FullModelConfig(epsilon=eps, dt=2.5e-3, T=times[-1],
                          drift_tol=1e-3)
    calls = []
    step = full_model.step_full

    def recorded(u, v, t, dt, *args, **kwargs):
        calls.append((u.copy(), v.copy(), t, dt))
        return step(u, v, t, dt, *args, **kwargs)

    monkeypatch.setattr(full_model, "step_full", recorded)
    traj = simulate_full(_jump_data(grid.x), grid, cfg, t_eval=times)
    monkeypatch.undo()
    assert traj.halvings_used > 0
    starts = {float(t) for _, _, t, _ in calls}
    assert set(times[1:7]) <= starts and times[7] in starts
    _assert_steps_match_the_reference(calls, grid, cfg)


class _SolveCounter:
    """Counts the full model's banded solves, and the (t, dt) of every
    step_full call."""

    def __init__(self, monkeypatch):
        self.solves = 0
        self.steps = []
        solve, step = full_model.block_tridiag_solve, full_model.step_full

        def counted_solve(*args):
            self.solves += 1
            return solve(*args)

        def recorded_step(u, v, t, dt, *args, **kwargs):
            self.steps.append((t, dt))
            return step(u, v, t, dt, *args, **kwargs)

        monkeypatch.setattr(full_model, "block_tridiag_solve", counted_solve)
        monkeypatch.setattr(full_model, "step_full", recorded_step)


def _nominal_steps(times, dt):
    """The (t, dt) of every step the march takes at its nominal steps,
    the first step twice for the starting procedure's extra solve."""
    steps = []
    for t0, t1 in zip(times[:-1], times[1:]):
        span = t1 - t0
        tau = span / substeps(span, dt)
        t = t0
        while t < t1 - 1e-12 * max(span, 1.0):
            steps.append((t, min(tau, t1 - t)))
            t += steps[-1][1]
    return steps[:1] + steps


def test_one_solve_per_step_on_smooth_data(monkeypatch):
    from llx.fields import named_field
    counter = _SolveCounter(monkeypatch)
    g = make_epsilon_grid(0.1, cells_per_eps=8)
    cfg = FullModelConfig(epsilon=0.1, dt=2e-3, T=0.05, drift_tol=1e-3)
    traj = simulate_full(named_field("swirl")(g.x), g, cfg,
                         t_eval=[0.013])
    assert traj.halvings_used == 0
    # the starting procedure's extra solve, then one per step
    assert counter.solves == traj.steps_taken + 1
    # far inside the drift tolerance: the nominal steps, bit for bit
    assert counter.steps == _nominal_steps(traj.times, cfg.dt)


def test_one_solve_per_attempt_through_step_halving(monkeypatch):
    counter = _SolveCounter(monkeypatch)
    g = make_epsilon_grid(0.1, cells_per_eps=32)
    cfg = FullModelConfig(epsilon=0.1, dt=1e-3, T=0.01, drift_tol=1e-3)
    step = full_model.step_full
    forced = []

    def reject_second_step_once(u, v, t, dt, *args, **kwargs):
        u_new, drift, norms = step(u, v, t, dt, *args, **kwargs)
        if t > 0.0 and not forced:
            # the first attempt after the first accepted step reports a
            # drift over the tolerance, so the guard halves a step that
            # extrapolates its midpoint from an accepted pair
            forced.append((t, dt))
            drift = 2.0 * cfg.drift_tol
        return u_new, drift, norms

    monkeypatch.setattr(full_model, "step_full", reject_second_step_once)
    traj = simulate_full(_jump_data(g.x), g, cfg)
    first_attempts = len({dt for t, dt in counter.steps if t == 0.0})
    # halvings both in the first step and after it
    assert first_attempts > 1 and traj.halvings_used > first_attempts - 1
    t, dt = forced[0]
    assert counter.steps[counter.steps.index((t, dt)) + 1] == (t, dt / 2)
    # every attempt of the first step also solves for its midpoint
    assert counter.solves == (traj.steps_taken + traj.halvings_used
                              + first_attempts)


def test_step_control_clears_the_drift_limited_opening(monkeypatch):
    # jump data marched to the knots of a study: the old rule, which
    # doubled after each accepted step and restarted every interval at
    # its nominal step, halved 121 times here
    counter = _SolveCounter(monkeypatch)
    g = make_epsilon_grid(0.1, cells_per_eps=16)
    cfg = FullModelConfig(epsilon=0.1, dt=1e-3, T=0.05, drift_tol=1e-3)
    knots = np.arange(21) * 2.5e-3
    traj = simulate_full(_jump_data(g.x), g, cfg, t_eval=knots)
    assert traj.halvings_used <= 12
    # only the first step halves: the cut step carried over each knot
    # meets the tolerance where a restart at the nominal would not
    first_attempts = len({dt for t, dt in counter.steps if t == 0.0})
    assert traj.halvings_used == first_attempts - 1


def test_drift_guard_aborts():
    rng = np.random.default_rng(48)
    g = _uniform_grid(16)
    u0 = renormalize(rng.normal(size=(g.n, 3)))
    cfg = FullModelConfig(epsilon=0.1, dt=0.05, T=0.1, drift_tol=1e-18)
    with pytest.raises(SolverAbort, match="halved 10 times"):
        simulate_full(u0, g, cfg)


def test_nan_initial_data_aborts():
    # a NaN state must end the run as a solver failure, not slip past the
    # drift guard (NaN compares false) or surface as a generic ValueError
    g = _uniform_grid(16)
    u0 = np.tile([0.6, 0.8, 0.0], (g.n, 1))
    u0[5, 2] = np.nan
    cfg = FullModelConfig(epsilon=0.1, dt=0.01, T=0.05, drift_tol=1e-3)
    with pytest.raises(SolverAbort, match="non-finite"):
        simulate_full(u0, g, cfg)


def test_t_eval_and_validation():
    g = _uniform_grid(16)
    u0 = np.tile([0.6, 0.8, 0.0], (g.n, 1))
    cfg = FullModelConfig(epsilon=0.05, dt=0.01, T=0.2, drift_tol=1e-3)
    traj = simulate_full(u0, g, cfg, t_eval=[0.05, 0.13])
    assert isinstance(traj, FullTrajectory)
    assert list(traj.times) == [0.0, 0.05, 0.13, 0.2]
    with pytest.raises(ValueError, match="outside"):
        simulate_full(u0, g, cfg, t_eval=[0.3])
    with pytest.raises(ValueError, match="match grid"):
        simulate_full(u0[:-1], g, cfg)


@pytest.mark.parametrize("ramp", [False, True])
def test_simulate_full_stores_the_streamed_march(ramp):
    # jump data halves its opening steps; the ramp's levels shape them
    if ramp:
        g = make_epsilon_grid(0.1, cells_per_eps=16)
        t_eval = time_grid(0.01, dt=2.5e-3)
        cfg = FullModelConfig(epsilon=0.1, dt=2.5e-3, T=t_eval[-1],
                              drift_tol=1e-3)
    else:
        g = make_epsilon_grid(0.1, cells_per_eps=32)
        t_eval = None
        cfg = FullModelConfig(epsilon=0.1, dt=1e-3, T=0.01, drift_tol=1e-3)
    u0 = _jump_data(g.x)
    traj = simulate_full(u0, g, cfg, t_eval=t_eval)
    march = FullMarch(u0, g, cfg, t_eval=t_eval)
    assert np.array_equal(np.array(list(march)), traj.values)
    assert np.array_equal(march.times, traj.times)
    assert traj.halvings_used > 0
    assert (march.drift_max, march.steps_taken, march.halvings_used) == (
        traj.drift_max, traj.steps_taken, traj.halvings_used)
    if ramp:
        assert np.array_equal(traj.times, t_eval)


def test_march_checks_its_input_when_built():
    # before the first level is asked for
    g = _uniform_grid(16)
    u0 = np.tile([0.6, 0.8, 0.0], (g.n, 1))
    cfg = FullModelConfig(epsilon=0.05, dt=0.01, T=0.2, drift_tol=1e-3)
    with pytest.raises(ValueError, match="match grid"):
        FullMarch(u0[:-1], g, cfg)
    with pytest.raises(ValueError, match="outside"):
        FullMarch(u0, g, cfg, t_eval=[0.3])


def test_config_validation():
    with pytest.raises(ValueError, match="positive"):
        FullModelConfig(epsilon=0.1, dt=-0.01, T=1.0, drift_tol=1e-3)


def test_determinism():
    rng = np.random.default_rng(49)
    g = _uniform_grid(24)
    u0 = renormalize(rng.normal(size=(g.n, 3)))
    cfg = FullModelConfig(epsilon=0.08, dt=5e-3, T=0.1, drift_tol=1e-3)
    a = simulate_full(u0, g, cfg)
    b = simulate_full(u0.copy(), g, cfg)
    assert np.array_equal(a.values, b.values)


def test_trajectory_values_sit_in_a_mapping_of_their_own():
    # dropped, they go back to the system instead of leaving a
    # trajectory-sized hole in the heap
    rng = np.random.default_rng(50)
    g = _uniform_grid(24)
    u0 = renormalize(rng.normal(size=(g.n, 3)))
    cfg = FullModelConfig(epsilon=0.08, dt=5e-3, T=0.02, drift_tol=1e-3)
    traj = simulate_full(u0, g, cfg)
    root = traj.values
    while isinstance(root, np.ndarray):
        root = root.base
    assert isinstance(root.obj, mmap.mmap)
    assert traj.values.shape == (traj.times.size, g.n, 3)
    assert traj.values.dtype == np.float64 and traj.values.flags.writeable
    assert np.array_equal(traj.values[0], u0)


# === residual report ===

def test_residual_vanishes_on_manufactured_solution(mms):
    u_eval, source_for = mms
    eps = 0.3
    reports = []
    for cells, nt in ((40, 41), (80, 81)):
        g = _uniform_grid(cells)
        times = np.linspace(0.0, 0.4, nt)
        vals = np.stack([u_eval(t, g.x) for t in times])
        reports.append(residual_report(times, vals, g, eps,
                                       source=source_for(eps)))
    # second-order stencils: defect drops by about 4 under co-refinement
    assert reports[0].l2_residual / reports[1].l2_residual > 3.0
    assert reports[1].l2_residual < 5e-3
    # the exact solution is unit and has zero wall derivative
    assert reports[1].norm_defect < 1e-13
    assert reports[1].neumann_defect < 1e-2


def test_residual_sees_missing_source(mms):
    u_eval, source_for = mms
    g = _uniform_grid(40)
    times = np.linspace(0.0, 0.4, 41)
    vals = np.stack([u_eval(t, g.x) for t in times])
    with_src = residual_report(times, vals, g, 0.3, source=source_for(0.3))
    without = residual_report(times, vals, g, 0.3)
    assert without.l2_residual > 50 * with_src.l2_residual


def test_residual_blocks_with_a_source_match_the_oracle(mms):
    # the last block holds only the final level, no interior one
    u_eval, source_for = mms
    g = make_epsilon_grid(0.2, 8)
    times = np.linspace(0.0, 0.4, LEVEL_BLOCK + 1)
    assert [stop - start for _, start, stop, _ in
            level_blocks(times.size, 1)][-1] == 1
    vals = np.stack([u_eval(t, g.x) for t in times])
    source = source_for(0.3)
    assert residual_report(times, vals, g, 0.3, source=source) \
        == whole_residual_report(times, vals, g, 0.3, source=source)


def test_residual_report_fields():
    g = _uniform_grid(16)
    times = np.linspace(0.0, 0.1, 5)
    vals = np.tile([0.0, 1.0, 0.0], (times.size, g.n, 1))
    rep = residual_report(times, vals, g, 0.1)
    assert isinstance(rep, ResidualReport)
    # constant equilibrium solves the model exactly
    assert rep.l2_residual < 1e-14
    assert rep.max_residual < 1e-14
    assert rep.neumann_defect < 1e-14
    assert rep.norm_defect < 1e-14
    with pytest.raises(ValueError, match="3 time slices"):
        residual_report(times[:2], vals[:2], g, 0.1)
