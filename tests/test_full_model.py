"""Full model: grids, integrator order, degeneracy, residuals.

Order verification is by manufactured solution: the exactly-unit field
u = (2/sqrt(5)) (sin(2t + cos pi x), cos(2t + cos pi x), 1/2) has zero
wall derivative in every component, and the source that makes it solve
the model is generated symbolically (manufactured.full_model_solution),
never by hand.
"""

from __future__ import annotations

import numpy as np
import pytest

from llx.errors import SolverAbort
from llx.full_model import (
    FullModelConfig,
    FullTrajectory,
    Grid1D,
    ResidualReport,
    make_epsilon_grid,
    residual_report,
    simulate_full,
)
from llx.limit_model import F_rhs, renormalize

from manufactured import full_model_solution, step_midpoint


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


def test_F_rhs_worked_example():
    u = np.array([0.0, 1.0, 0.0])
    H = np.array([1.0, 0.0, 0.0])
    V = np.array([2.0, 0.0, 0.0])
    out = F_rhs(u, V, H)
    # |V|^2 u = (0,4,0); u x H = (0,0,-1); -u x (u x H) = (1,0,0)
    assert np.allclose(out, [1.0, 4.0, -1.0], atol=1e-15)


def test_F_rhs_against_expansion():
    rng = np.random.default_rng(44)
    u, V, H = rng.normal(size=(3, 100, 3))
    out = F_rhs(u, V, H)
    for k in range(100):
        expect = (V[k] @ V[k]) * u[k] + np.cross(u[k], H[k]) \
            - np.cross(u[k], np.cross(u[k], H[k]))
        assert np.allclose(out[k], expect, atol=1e-13)


# === integrator ===

def test_zero_exchange_degenerates_to_midpoint_rule():
    rng = np.random.default_rng(45)
    g = _uniform_grid(16)
    u0 = renormalize(rng.normal(size=(g.n, 3)))
    cfg = FullModelConfig(epsilon=0.0, dt=0.02, T=0.2, drift_tol=1e-3,
                          renormalize=False)
    traj = simulate_full(u0, g, cfg)
    u_ref = u0.copy()
    for _ in range(10):
        u_ref = step_midpoint(u_ref, 0.02)
    assert np.max(np.abs(traj.values[-1] - u_ref)) < 1e-10


def _mms_error(mms, eps, dt, cells, T=0.4):
    u_eval, source_for = mms
    g = _uniform_grid(cells)
    cfg = FullModelConfig(epsilon=eps, dt=dt, T=T, drift_tol=1e-3,
                          renormalize=False)
    traj = simulate_full(u_eval(0.0, g.x), g, cfg,
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


def test_jump_data_survives_through_step_halving():
    # discontinuous data: the opening steps are drift-limited, the
    # guard halves its way through and the run still completes
    g = make_epsilon_grid(0.1, cells_per_eps=32)
    u0 = np.where((g.x >= 0.0)[:, None], [0.6, 0.8, 0.0],
                  [-0.6, 0.8, 0.0])
    cfg = FullModelConfig(epsilon=0.1, dt=1e-3, T=0.01, drift_tol=1e-3)
    traj = simulate_full(u0, g, cfg)
    assert traj.halvings_used > 0
    norms = np.linalg.norm(traj.values[-1], axis=-1)
    assert np.max(np.abs(norms - 1.0)) < 1e-14
    # layer develops: the interface value moves off the initial jump
    i0 = int(np.argmin(np.abs(g.x)))
    assert abs(traj.values[-1][i0, 0]) < 0.5


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
