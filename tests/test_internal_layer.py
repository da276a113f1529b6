"""Tests for the internal transmission profile machinery."""

import numpy as np
import pytest

from llx.banded import block_tridiag_solve, inv_id_plus_cross
from llx.errors import NonContraction, SolverAbort, ValidationError
from llx.fields import constant_per_side
from llx.geometry import (apply_tridiagonal_stencil, chi_sigma,
                          d2_coefficients, in_v_sigma, make_profile_grid,
                          one_sided_d1, param_nodes, profile_d1, time_grid)
from llx.internal_layer import (TIME_BLOCK, F_pm, picard_profiles, _picard,
                                _predict, _settled, _stalled)
from llx.limit_model import F_rhs, extend_limit, rhs_limit, simulate_limit
from llx.strayfield import E1, stray_field_slab

from manufactured import march_column, transmission_march_error


# --- time grid ---

def test_time_grid_binary_ramp():
    dt = 2.5e-3
    tg = time_grid(0.02, dt=dt)
    assert tg[0] == 0.0 and tg[-1] == 0.02
    steps = np.diff(tg)
    # opening steps: dt/64, dt/64, dt/32, ..., dt/2, then uniform dt
    expect = dt * np.array([1, 1, 2, 4, 8, 16, 32]) / 64.0
    np.testing.assert_allclose(steps[:7], expect, rtol=1e-12)
    np.testing.assert_allclose(steps[7:], dt, rtol=1e-12)
    # every multiple of dt is present
    mults = dt * np.arange(9)
    assert all(np.min(np.abs(tg - m)) < 1e-15 for m in mults)


def test_time_grid_ragged_end_and_validation():
    tg = time_grid(0.0212, dt=5e-3)
    assert tg[-1] == 0.0212
    assert np.all(np.diff(tg) > 0)
    with pytest.raises(ValueError, match="positive"):
        time_grid(-1.0, dt=2.5e-3)
    with pytest.raises(ValueError, match="positive"):
        time_grid(1.0, dt=0.0)


@pytest.mark.parametrize("T", [0.35, 0.7])
def test_time_grid_has_no_rounding_sliver_before_T(T):
    # dt * n misses these T by one ulp; the near-duplicate knot goes
    dt = 2.5e-3
    tg = time_grid(T, dt=dt)
    assert tg[-1] == T
    steps = np.diff(tg)
    assert steps.min() == dt / 64.0
    np.testing.assert_allclose(steps[7:], dt, rtol=1e-9)


# --- extended limit states ---

@pytest.fixture(scope="module")
def jump_setup():
    x = param_nodes(16)
    data = constant_per_side((0.6, 0.8, 0.0), (-0.6, 0.8, 0.0))
    times = time_grid(0.05, dt=2.5e-3)
    ext = extend_limit(data, x, times)
    return x, data, times, ext


def test_extension_constant_data_closed_form(jump_setup):
    x, data, times, ext = jump_setup
    # per-side constants evolve by the pointwise limit flow; the jump
    # field must be chi(|x|) times their difference
    values = simulate_limit(np.array([data(np.array([0.0]), "minus")[0],
                                      data(np.array([0.0]), "plus")[0]]),
                            times)
    c_minus = values[:, 0]
    c_plus = values[:, 1]
    chi = chi_sigma(ext.x_param)
    expect = chi[None, :, None] * (c_plus - c_minus)[:, None, :]
    np.testing.assert_allclose(ext.delta, expect, atol=1e-13)
    # exact time derivative of the jump from the blended flow rates
    expect_dt = chi[None, :, None] * (rhs_limit(c_plus)
                                      - rhs_limit(c_minus))[:, None, :]
    np.testing.assert_allclose(ext.delta_dt, expect_dt, atol=1e-13)


def test_extension_vanishes_outside_interface_neighborhood(jump_setup):
    _, _, _, ext = jump_setup
    outside = ~in_v_sigma(ext.x_param)
    assert outside.any()
    assert np.max(np.abs(ext.delta[:, outside])) == 0.0
    assert np.max(np.abs(ext.delta_dt[:, outside])) == 0.0
    assert ext.support_defect() == 0.0


def test_extension_blend_exact_at_neighbor_nodes(jump_setup):
    # constant data: the extension one node into the far side must be
    # exactly the chi blend of the two evolved constants
    x, data, times, ext = jump_setup
    i0 = int(np.argmin(np.abs(ext.x_param)))
    values = simulate_limit(np.array([data(np.array([0.0]), "minus")[0],
                                      data(np.array([0.0]), "plus")[0]]),
                            times)
    c_minus = values[:, 0]
    c_plus = values[:, 1]
    h = float(ext.x_param[i0 + 1])
    chi_h = float(chi_sigma(np.array([h]))[0])
    np.testing.assert_allclose(ext.u_plus[:, i0 - 1],
                               chi_h * c_plus + (1 - chi_h) * c_minus,
                               atol=1e-13)
    np.testing.assert_allclose(ext.u_minus[:, i0 + 1],
                               chi_h * c_minus + (1 - chi_h) * c_plus,
                               atol=1e-13)
    np.testing.assert_allclose(ext.u_plus[:, i0], c_plus, atol=1e-13)
    np.testing.assert_allclose(ext.u_minus[:, i0], c_minus, atol=1e-13)


def test_extension_symmetric_data_is_jump_free():
    x = param_nodes(8)
    same = constant_per_side((0.6, 0.8, 0.0), (0.6, 0.8, 0.0))
    times = time_grid(0.02, dt=5e-3)
    ext = extend_limit(same, x, times)
    assert np.max(np.abs(ext.delta)) == 0.0
    assert np.max(np.abs(ext.delta_dt)) == 0.0


def test_extension_rejects_nonzero_start():
    x = param_nodes(8)
    data = constant_per_side((0.6, 0.8, 0.0), (-0.6, 0.8, 0.0))
    with pytest.raises(ValueError, match="start at 0"):
        extend_limit(data, x, np.array([0.1, 0.2]))


@pytest.mark.parametrize("times", [[0.0, 0.02, 0.01, 0.03],
                                   [0.0, 0.01, 0.01, 0.02]],
                         ids=["unsorted", "duplicate"])
def test_extension_rejects_times_not_increasing(times):
    # an unsorted list would label the level of t = 0.01 as t = 0.02
    x = param_nodes(8)
    data = constant_per_side((0.6, 0.8, 0.0), (-0.6, 0.8, 0.0))
    with pytest.raises(ValueError, match="increase strictly"):
        extend_limit(data, x, np.array(times))


# --- layer nonlinearity ---

def test_F_pm_matches_direct_increment():
    # F_pm must equal F(u0+U, V, H0-(U.e1)e1) - F(u0, 0, H0) exactly
    rng = np.random.default_rng(7)
    for _ in range(100):
        U = rng.normal(size=3)
        V = rng.normal(size=3)
        u0 = rng.normal(size=3)
        H0 = rng.normal(size=3)
        direct = (F_rhs(u0 + U, V, H0 - U[0] * E1)
                  - F_rhs(u0, np.zeros(3), H0))
        np.testing.assert_allclose(F_pm(U, V, u0, H0), direct,
                                   atol=1e-12, rtol=1e-12)


def test_F_pm_zero_input_is_zero():
    u0 = np.array([0.3, -0.4, 0.5])
    H0 = np.array([-0.3, 0.0, 0.0])
    z = np.zeros(3)
    assert np.max(np.abs(F_pm(z, z, u0, H0))) == 0.0


# --- marching kernel conveyance (manufactured solution) ---

def test_march_mms_corefined_second_order():
    errs = [transmission_march_error(n, dt) for n, dt in
            [(24, 0.05), (48, 0.025), (96, 0.0125)]]
    rates = [np.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert min(rates) > 1.8, f"rates {rates}, errors {errs}"


def test_march_mms_spatial_order_at_small_dt():
    errs = [transmission_march_error(n, dt=2e-4, T=0.02)
            for n in (24, 48, 96)]
    rates = [np.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert min(rates) > 1.8, f"rates {rates}, errors {errs}"


def test_march_zero_forcing_stays_zero():
    y = make_profile_grid(Y=6.0, cells=32)
    times = time_grid(0.05, dt=0.01)
    shape = (times.size, y.size, 3)
    coeff = np.zeros(shape)
    coeff[..., 1] = 0.9
    zeros = np.zeros(shape)
    W = march_column(y, times, coeff, zeros, zeros)
    assert np.max(np.abs(W)) == 0.0


# --- fixed point on the jump fixture ---

def _picard_column(y, times, delta, delta_dt, u0p, u0m, tol, max_iter):
    """Iterate the column to the fixed point; returns (W, per-window
    sweep changes) or raises its NonContraction."""
    W = np.zeros((times.size, y.size, 3))
    traces = _picard(y, times, W, delta, delta_dt, u0p, u0m, tol, max_iter)
    return W, traces


@pytest.fixture(scope="module")
def jump_profiles(jump_setup):
    _, _, _, ext = jump_setup
    y = make_profile_grid(Y=15.0, cells=128)
    return y, picard_profiles(ext, y, tol=1e-8, max_iter=40)


def test_picard_contracts_on_jump_fixture(jump_profiles):
    _, pair = jump_profiles
    assert 0 < pair.iterations <= 10
    ratios = pair.contraction_ratios()
    assert ratios and max(ratios) < 1.0


def test_profiles_transmission_and_tails(jump_profiles):
    _, pair = jump_profiles
    value_gap, deriv_gap = pair.transmission_defect()
    assert value_gap == 0.0
    assert deriv_gap <= 1e-6
    assert pair.tail_max() <= 1e-6
    pair.validate()


def test_layer_terms_live_on_their_half_lines(jump_profiles):
    y, pair = jump_profiles
    minus, plus = (pair.layer_term(side) for side in ("minus", "plus"))
    half_line = (pair.times.size, y.size // 2 + 1, 3)
    assert minus.shape == plus.shape == half_line
    # both hold y = 0, where the lifts differ by the jump
    gap = minus[..., -1, :] - plus[..., 0, :] - pair.delta
    assert np.max(np.abs(gap)) <= 1e-15


def test_profiles_start_from_zero_and_stay_bounded(jump_profiles):
    _, pair = jump_profiles
    assert np.max(np.abs(pair.W[0])) == 0.0
    assert np.max(np.abs(pair.W)) < np.max(np.abs(pair.delta))


def test_profiles_zero_jump_columns_are_exact_zero():
    x = param_nodes(8)
    same = constant_per_side((0.6, 0.8, 0.0), (0.6, 0.8, 0.0))
    times = time_grid(0.02, dt=5e-3)
    ext = extend_limit(same, x, times)
    y = make_profile_grid(Y=15.0, cells=64)
    pair = picard_profiles(ext, y, tol=1e-8, max_iter=40)
    assert np.max(np.abs(pair.W)) == 0.0
    assert np.all(pair.iterations == 0)
    pair.validate()


def test_profiles_deterministic(jump_setup):
    _, _, _, ext = jump_setup
    y = make_profile_grid(Y=6.0, cells=48)
    a = picard_profiles(ext, y, tol=1e-8, max_iter=40)
    b = picard_profiles(ext, y, tol=1e-8, max_iter=40)
    assert np.array_equal(a.W, b.W)


def test_profiles_box_halving_stable(jump_setup):
    # shrinking the profile box must not move the junction trace: the
    # profile decays exponentially, so |y| beyond ~7 carries nothing
    _, _, _, ext = jump_setup
    big = picard_profiles(ext, make_profile_grid(Y=15.0, cells=128),
                          tol=1e-8, max_iter=40)
    small = picard_profiles(ext, make_profile_grid(Y=7.5, cells=128),
                            tol=1e-8, max_iter=40)
    gap = np.max(np.abs(big.junction_trace() - small.junction_trace()))
    assert gap <= 1e-4, f"junction trace moved {gap:.3e} under box halving"


def test_profile_column_independent_of_extension_width(jump_setup):
    # at x = 0 the column inputs are the bare branch trajectories of the
    # limit flow, bit for bit, so the solved profile cannot depend on
    # how far the blend reaches
    x, data, times, ext = jump_setup
    i0 = int(np.argmin(np.abs(ext.x_param)))
    zero = x[i0:i0 + 1]
    bare = simulate_limit(np.stack([data.branch(zero, "minus"),
                                    data.branch(zero, "plus")]),
                          times)[:, :, 0]
    np.testing.assert_array_equal(ext.u_minus[:, i0], bare[:, 0])
    np.testing.assert_array_equal(ext.u_plus[:, i0], bare[:, 1])
    np.testing.assert_array_equal(ext.du_minus[:, i0], rhs_limit(bare[:, 0]))
    np.testing.assert_array_equal(ext.du_plus[:, i0], rhs_limit(bare[:, 1]))


def test_picard_non_contraction_aborts():
    # a jump far off the unit sphere makes the quadratic terms dominate
    # and the frozen-coefficient sweep map expand
    y = make_profile_grid(Y=6.0, cells=48)
    times = time_grid(0.05, dt=5e-3)
    nt = times.size
    delta = np.tile([40.0, 0.0, 0.0], (nt, 1))
    dzero = np.zeros((nt, 3))
    u0p = np.tile([-0.6, 0.8, 0.0], (nt, 1))
    u0m = np.tile([0.6, 0.8, 0.0], (nt, 1))
    with pytest.raises(NonContraction) as info:
        _picard_column(y, times, delta, dzero, u0p, u0m,
                       tol=1e-8, max_iter=40)
    err = info.value
    assert 0.0 <= err.t_converged <= float(times[-1])
    assert err.ratios


def test_picard_max_iter_exhaustion_reports():
    y = make_profile_grid(Y=6.0, cells=48)
    times = time_grid(0.05, dt=5e-3)
    nt = times.size
    delta = np.tile([-1.2, 0.0, 0.0], (nt, 1))
    dzero = np.zeros((nt, 3))
    u0p = np.tile([-0.6, 0.8, 0.0], (nt, 1))
    u0m = np.tile([0.6, 0.8, 0.0], (nt, 1))
    with pytest.raises(NonContraction, match="did not reach"):
        _picard_column(y, times, delta, dzero, u0p, u0m,
                       tol=1e-14, max_iter=2)


# --- the window exit rule and the window predictor ---

@pytest.mark.parametrize("diffs, leaves", [
    # rho = 0.01: the bound 1e-6 * 0.01 / 0.99 = 1.01e-8 is not below tol
    ((1e-4, 1e-6), False),
    # rho = 5e-3: the bound is 2.5e-9
    ((1e-4, 5e-7), True),
    # a single change leaves only below tol itself
    ((2e-8,), False),
    ((9e-9,), True),
    # rho >= 1 bounds nothing
    ((1e-8, 1e-8), False),
    ((1e-8, 2e-8), False),
    ((3e-8, 1e-9), True),
], ids=["bound_above_tol", "bound_below_tol", "one_change",
        "one_change_below_tol", "rho_one", "rho_above_one", "below_tol"])
def test_column_leaves_by_tol_or_by_the_geometric_bound(diffs, leaves):
    assert _settled(list(diffs), 1e-8) is leaves


def test_a_non_contracting_trace_still_stalls():
    diffs = [2e-6, 2e-6, 3e-6, 3e-6]
    assert not any(_settled(diffs[:q], 1e-8) for q in range(1, 5))
    failure = _stalled(diffs, 1e-8, 40, 0.25)
    assert "stopped contracting" in str(failure)
    assert failure.t_converged == 0.25
    assert failure.ratios == [1.0, 1.5, 1.0]


def test_column_meeting_the_bound_on_its_last_sweep_leaves():
    # each window's second change is above tol, its bound below: under
    # max_iter = 2 the column leaves every window instead of failing
    y = make_profile_grid(Y=6.0, cells=48)
    times = time_grid(0.05, dt=5e-3)
    nt = times.size
    delta = np.tile([-1.2, 0.0, 0.0], (nt, 1))
    dzero = np.zeros((nt, 3))
    u0p = np.tile([-0.6, 0.8, 0.0], (nt, 1))
    u0m = np.tile([0.6, 0.8, 0.0], (nt, 1))
    _, windows = _picard_column(y, times, delta, dzero, u0p, u0m,
                                tol=1e-5, max_iter=2)
    assert len(windows) == 2
    assert all(len(w) == 2 and w[1] >= 1e-5 for w in windows)


def test_predictor_is_exact_for_quadratics():
    times = time_grid(0.1, dt=5e-3)
    rng = np.random.default_rng(3)
    A, B, C = rng.normal(size=(3, 2, 9, 3))
    t = times[:, None, None, None]
    W = A + B * t + C * t * t
    starts = list(range(TIME_BLOCK, times.size - 1, TIME_BLOCK))
    # the second window opens on the ramp: its levels 6, 7, 8 are
    # dt/2, dt and 2 dt, two unequal steps
    assert starts[0] == 8 and times[6] == 0.5 * times[7]
    for k0 in starts:
        win = slice(k0 + 1, min(k0 + TIME_BLOCK, times.size - 1) + 1)
        guess = _predict(times[k0 - 2:k0 + 1], W[k0 - 2:k0 + 1],
                         times[win])
        np.testing.assert_allclose(guess, W[win], rtol=0.0, atol=1e-13)


# --- the windowed Picard loop against a plain one-column loop ---

def _reference_march(y, times, coeff, f_minus, f_plus, w0):
    """The one-column Crank-Nicolson march, written row by row."""
    j0 = y.size // 2
    ny = y.size
    d2 = d2_coefficients(y)
    a, b, c = d2
    hm = y[j0] - y[j0 - 1]
    hp = y[j0 + 1] - y[j0]
    eye = np.eye(3)
    plus_rows = (np.arange(ny) >= j0)[:, None]
    W = np.zeros((times.size, ny, 3))
    W[0] = w0
    for k in range(times.size - 1):
        dt = times[k + 1] - times[k]
        half = 0.5 * dt
        f_mid = np.where(plus_rows, 0.5 * (f_plus[k] + f_plus[k + 1]),
                         0.5 * (f_minus[k] + f_minus[k + 1]))
        # every row premultiplied by (I + [vmid]x)^-1
        m_inv = inv_id_plus_cross(0.5 * (coeff[k] + coeff[k + 1]))
        d2W = apply_tridiagonal_stencil(d2, W[k])
        rhs = np.einsum("nij,nj->ni", m_inv, W[k] + dt * f_mid) + half * d2W
        B = m_inv - (half * b)[:, None, None] * eye
        lower = -half * a
        upper = -half * c
        for row in (0, ny - 1):
            lower[row] = 0.0
            upper[row] = 0.0
            B[row] = eye
            rhs[row] = 0.0
        mj_inv = inv_id_plus_cross(coeff[k + 1][j0])
        lower[j0] = -1.0 / hm
        upper[j0] = -1.0 / hp
        B[j0] = (1.0 / hm + 1.0 / hp) * eye \
            + ((hm + hp) / (2.0 * dt)) * mj_inv
        rhs[j0] = ((hm + hp) / (2.0 * dt)) * (mj_inv @ W[k][j0]) \
            + 0.5 * hm * (mj_inv @ f_minus[k + 1][j0]) \
            + 0.5 * hp * (mj_inv @ f_plus[k + 1][j0])
        W[k + 1] = block_tridiag_solve(lower, B, upper, rhs)
    return W


def _reference_picard_column(y, times, delta, delta_dt, u0p, u0m, tol,
                             max_iter):
    """One column iterated alone, window by window.

    Each window of TIME_BLOCK levels is swept from its first level, the
    coefficient and forcing rebuilt on all of its levels every sweep,
    until its largest per-time change d drops below tol or, with
    rho = d / d_prev < 1, d rho / (1 - rho) does. A window after the
    first starts from the parabola through the last three converged
    levels. Returns (W, windows, failure): the per-window sweep changes,
    the failing window's last, and the NonContraction or None.
    """
    e_plus = np.where(y >= 0.0, np.exp(-np.abs(y)), 0.0)[None, :, None]
    e_minus = np.where(y <= 0.0, np.exp(-np.abs(y)), 0.0)[None, :, None]
    d = delta[:, None, :]
    dd = delta_dt[:, None, :]
    S_p, S_m = -0.5 * d * e_plus, 0.5 * d * e_minus
    V_p = u0p[:, None, :] - 0.5 * d * e_plus
    V_m = u0m[:, None, :] + 0.5 * d * e_minus
    V_of_side = np.where((y >= 0.0)[None, :, None], V_p, V_m)
    H_p = stray_field_slab(u0p)[:, None, :]
    H_m = stray_field_slab(u0m)[:, None, :]
    W = np.zeros((times.size, y.size, 3))
    windows = []
    for k0 in range(0, times.size - 1, TIME_BLOCK):
        k1 = min(k0 + TIME_BLOCK, times.size - 1)
        lv = slice(k0, k1 + 1)
        if k0 > 0:
            t = times[k0 + 1:k1 + 1, None, None]
            ta, tb, tc = times[k0 - 2:k0 + 1]
            W[k0 + 1:k1 + 1] = (
                (t - tb) / (ta - tb) * ((t - tc) / (ta - tc)) * W[k0 - 2]
                + (t - ta) / (tb - ta) * ((t - tc) / (tb - tc)) * W[k0 - 1]
                + (t - ta) / (tc - ta) * ((t - tb) / (tc - tb)) * W[k0])
        diffs = []
        windows.append(diffs)
        while True:
            Wl = W[lv]
            dyW = profile_d1(y, Wl)
            f_p = (F_pm(Wl + S_p[lv], dyW + 0.5 * d[lv] * e_plus,
                        u0p[lv, None, :], H_p[lv])
                   - (-0.5 * dd[lv] * e_plus) + S_p[lv]
                   + np.cross(V_p[lv] + Wl, S_p[lv]))
            f_m = (F_pm(Wl + S_m[lv], dyW + 0.5 * d[lv] * e_minus,
                        u0m[lv, None, :], H_m[lv])
                   - 0.5 * dd[lv] * e_minus + S_m[lv]
                   + np.cross(V_m[lv] + Wl, S_m[lv]))
            new = _reference_march(y, times[lv], V_of_side[lv] + Wl,
                                   f_m, f_p, W[k0])[1:]
            D = new - Wl[1:]
            per_time = np.sqrt(np.trapezoid(np.sum(D * D, axis=-1), y,
                                            axis=-1))
            diffs.append(float(per_time.max()))
            W[k0 + 1:k1 + 1] = new
            if diffs[-1] < tol:
                break
            if len(diffs) >= 2:
                rho = diffs[-1] / diffs[-2]
                if rho < 1.0 and diffs[-1] * rho / (1.0 - rho) < tol:
                    break
            ratios = [diffs[q + 1] / diffs[q]
                      for q in range(len(diffs) - 1)]
            if len(diffs) >= 4 and (diffs[-1] >= diffs[-2] >= diffs[-3]
                                    >= diffs[-4]):
                t_conv = float(times[k0])
                return W, windows, NonContraction(
                    f"profile iteration stopped contracting (last diffs "
                    f"{[f'{d:.3e}' for d in diffs[-3:]]}); converged up "
                    f"to t={t_conv:.6g}", t_converged=t_conv, ratios=ratios)
            if len(diffs) >= max_iter:
                return W, windows, NonContraction(
                    f"profile iteration did not reach tol={tol:.1e} in "
                    f"{max_iter} sweeps (last diff {diffs[-1]:.3e})",
                    t_converged=0.0, ratios=ratios)
    return W, windows, None


def test_picard_matches_the_one_column_reference():
    # the x = 0 column of the jump data, bit for bit: W, every window's
    # sweep changes and the contraction ratios
    x = param_nodes(16)
    data = constant_per_side((0.6, 0.8, 0.0), (-0.6, 0.8, 0.0))
    times = time_grid(0.1, dt=5e-3)
    ext = extend_limit(data, x, times)
    y = make_profile_grid(Y=6.0, cells=48)
    pair = picard_profiles(ext, y, tol=1e-8, max_iter=40)

    i0 = int(np.argmin(np.abs(ext.x_param)))
    assert ext.x_param[i0] == 0.0
    W, windows, failure = _reference_picard_column(
        y, times, ext.delta[:, i0], ext.delta_dt[:, i0], ext.u_plus[:, i0],
        ext.u_minus[:, i0], 1e-8, 40)
    assert failure is None
    traces = tuple(map(tuple, windows))
    # several windows and a short last one
    assert (times.size - 1) % TIME_BLOCK != 0
    assert len(traces) == -(-(times.size - 1) // TIME_BLOCK) >= 3
    assert np.array_equal(pair.W, W)
    assert np.array_equal(pair.delta, ext.delta[:, i0])
    assert pair.iterations == max(map(len, traces))
    assert pair.residual_trace == traces
    assert pair.contraction_ratios() == [
        w[q + 1] / w[q] for w in traces for q in range(len(w) - 1)]


def test_picard_tol_bounds_the_distance_to_the_fixed_point():
    # a column leaves once the geometric bound on its remaining change is
    # below tol; W must then sit within 1e-7 of a tol = 1e-13 solve in
    # every time's L2(y) norm (bound fixed before the run)
    x = param_nodes(16)
    data = constant_per_side((0.6, 0.8, 0.0), (-0.6, 0.8, 0.0))
    times = time_grid(0.1, dt=5e-3)
    ext = extend_limit(data, x, times)
    y = make_profile_grid(Y=6.0, cells=48)
    loose, tight = (picard_profiles(ext, y, tol=tol, max_iter=40)
                    for tol in (1e-8, 1e-13))
    D = loose.W - tight.W
    per_time = np.sqrt(np.trapezoid(np.sum(D * D, axis=-1), y, axis=-1))
    assert per_time.max() <= 1e-7


def test_default_jump_build_sweep_budget(jump_pieces):
    # bounds fixed before the run: at most 3 sweeps in any window, so at
    # most 3 per window in all (up to 4 per window under the plain
    # d < tol exit and the linear predictor)
    pair = jump_pieces.profiles
    sweeps = sum(map(len, pair.residual_trace))
    assert sweeps <= 3 * len(pair.residual_trace)
    assert pair.iterations <= 3


def _picard_against_reference(y, times, delta, u0p, u0m, tol, max_iter):
    """Run the windowed loop and the one-column reference on the same
    column; check that the loop fails like the reference, keeping the
    windows before the failing one. Returns the failure."""
    dzero = np.zeros_like(delta)
    W_ref, windows, expected = _reference_picard_column(
        y, times, delta, dzero, u0p, u0m, tol, max_iter)
    assert expected is not None
    W = np.zeros((times.size, y.size, 3))
    with pytest.raises(NonContraction) as info:
        _picard(y, times, W, delta, dzero, u0p, u0m, tol, max_iter)
    failure = info.value
    assert str(failure) == str(expected)
    assert failure.t_converged == expected.t_converged
    assert failure.ratios == expected.ratios
    done = (len(windows) - 1) * TIME_BLOCK + 1
    assert np.array_equal(W[:done], W_ref[:done])
    return failure


@pytest.mark.parametrize("scale, tol, max_iter", [
    # a jump far off the unit sphere stops contracting
    (40.0, 1e-8, 40),
    # a contracting column runs out of sweeps
    (-1.2, 1e-14, 6),
], ids=["stall", "max_iter"])
def test_picard_fails_like_the_reference(scale, tol, max_iter):
    y = make_profile_grid(Y=6.0, cells=48)
    times = time_grid(0.05, dt=5e-3)
    delta = np.tile([scale, 0.0, 0.0], (times.size, 1))
    u0p = np.broadcast_to([-0.6, 0.8, 0.0], delta.shape)
    u0m = np.broadcast_to([0.6, 0.8, 0.0], delta.shape)
    failure = _picard_against_reference(y, times, delta, u0p, u0m, tol,
                                        max_iter)
    if scale > 0.0:
        assert failure.t_converged == times[0]
    else:
        assert "did not reach" in str(failure)
        assert failure.t_converged == 0.0


def test_picard_stall_in_a_later_window_sets_the_horizon():
    # the jump steps from -1.2 to 40 inside the third window: the first
    # two windows contract, the third stalls, and the horizon is the
    # third window's first time
    y = make_profile_grid(Y=6.0, cells=48)
    times = time_grid(0.1, dt=5e-3)
    step = 2 * TIME_BLOCK + 3
    delta = np.zeros((times.size, 3))
    delta[:, 0] = np.where(np.arange(times.size) < step, -1.2, 40.0)
    u0p = np.broadcast_to([-0.6, 0.8, 0.0], delta.shape)
    u0m = np.broadcast_to([0.6, 0.8, 0.0], delta.shape)
    failure = _picard_against_reference(y, times, delta, u0p, u0m, 1e-8, 40)
    assert "stopped contracting" in str(failure)
    assert failure.t_converged == times[2 * TIME_BLOCK]


def test_march_with_nan_coefficient_aborts():
    y = make_profile_grid(Y=6.0, cells=32)
    times = time_grid(0.05, dt=0.01)
    shape = (times.size, y.size, 3)
    coeff = np.zeros(shape)
    coeff[3, 5, 1] = np.nan
    f = np.ones(shape)
    with pytest.raises(SolverAbort, match="non-finite"):
        march_column(y, times, coeff, f, f)


def test_validate_flags_fat_tail(jump_profiles):
    _, pair = jump_profiles
    with pytest.raises(ValidationError, match="tail"):
        pair.validate(tail_tol=1e-9)


# --- time-weighted gain, junction derivatives ---

def test_gain_from_forcing_decays_with_lambda():
    # the time-weighted response/forcing ratio must shrink as the weight
    # discounts late times harder
    Y = 6.0
    n = 48
    y = np.linspace(-Y, Y, 2 * n + 1)
    times = np.linspace(0.0, 1.0, 101)
    env = np.exp(-(y**2))
    f = (np.exp(-times)[:, None, None] * env[:, None]
         * np.array([0.2, -0.4, 0.5]))
    coeff = np.zeros((times.size, y.size, 3))
    W = march_column(y, times, coeff, f, f)

    def weighted_l2(field, lam):
        # L2 over (t, y) with the time weight e^{-2 lam t}
        sq = np.trapezoid(np.sum(field * field, axis=-1), y, axis=1)
        return np.sqrt(np.trapezoid(np.exp(-2.0 * lam * times) * sq, times))

    gains = [weighted_l2(W, lam) / weighted_l2(f, lam)
             for lam in (1.0, 4.0, 16.0, 64.0)]
    assert all(gains[k + 1] < gains[k] for k in range(3))


def test_transmission_defect_helper_zero_for_smooth():
    y = make_profile_grid(Y=6.0, cells=48)
    j0 = y.size // 2
    W = np.stack([np.exp(-y**2), np.sin(y) * 0.1,
                  np.zeros_like(y)], axis=-1)
    dp = one_sided_d1(y[j0:], W[j0:], "left")
    dm = one_sided_d1(y[:j0 + 1], W[:j0 + 1], "right")
    assert np.max(np.abs(dp - dm)) < 1e-4
