"""Tests of the assembled ansatz, the space-time norms, and the study."""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from llx import expansion, full_model
from llx.errors import ConfigError, NonContraction
from llx.expansion import (EClassNorms, ExpansionAnsatz, StudyConfig,
                           build_expansion_pieces, convergence_study,
                           eclass_norms, fit_slope, jump_error_l2)
from llx.fields import constant_per_side, named_field
from llx.full_model import FullMarch, make_epsilon_grid
from llx.geometry import (LEVEL_BLOCK, chi_sigma, in_v_sigma, knot_times,
                          make_profile_grid, param_nodes, profile_d1, theta,
                          time_grid)
from llx.internal_layer import TIME_BLOCK, picard_profiles
from llx.interp import natural_spline_coeffs, x_resample
from llx.limit_model import extend_limit, simulate_limit
from manufactured import l2_space_time


def _evolved(vec, times):
    """The limit flow of one constant vector at the given knots."""
    return simulate_limit(np.asarray(vec, dtype=float), times)


def _sample(ansatz, t, x):
    """The approximate solution at knot t on nodes x: (nx, 3)."""
    return ansatz.sample_times(np.array([t]), x)[0]


def _sample_parts(ansatz, t, x):
    """The four summands at the knot t on nodes x, before scaling.

    Returns {"base", "interface", "wall", "rho"}; the sampled field is
    base + interface + epsilon * (wall + rho).
    """
    x = np.asarray(x, dtype=float)
    parts = ansatz._parts(np.array([ansatz.knot_index(t)]), x,
                          ansatz._layer_sides(x))
    return {name: part[0] for name, part in parts.items()}


@pytest.fixture(scope="module")
def small_cfg():
    return StudyConfig(T=0.02, dt_knot=2.5e-3, profile_cells=64,
                       wall_cells=64, box_y=10.0, box_z=10.0)


@pytest.fixture(scope="module")
def jump_small(small_cfg):
    data = constant_per_side((0.6, 0.8, 0.0), (-0.6, 0.8, 0.0))
    pieces = build_expansion_pieces(data, small_cfg)
    ansatz = ExpansionAnsatz(pieces, 0.1)
    return data, pieces, ansatz


@pytest.fixture(scope="module")
def swirl_small(small_cfg):
    data = named_field("swirl")
    pieces = build_expansion_pieces(data, small_cfg)
    ansatz = ExpansionAnsatz(pieces, 0.1)
    return data, pieces, ansatz


# --- sampler mechanics ---

def test_knot_index_finds_knots_and_rejects_off_knot(jump_small):
    _, _, ansatz = jump_small
    times = ansatz.times
    assert ansatz.knot_index(float(times[0])) == 0
    assert ansatz.knot_index(float(times[3])) == 3
    assert ansatz.knot_index(float(times[-1])) == times.size - 1
    with pytest.raises(ValueError, match="not a stored knot"):
        ansatz.knot_index(float(times[-1]) * 0.731)


def test_sampler_rejects_nodes_outside_slab(jump_small):
    _, _, ansatz = jump_small
    with pytest.raises(ValueError, match="must lie in"):
        _sample(ansatz, 0.0, np.array([0.0, 1.5]))


def test_ansatz_refuses_non_positive_epsilon(jump_small):
    _, pieces, _ = jump_small
    for eps in (0.0, -0.1):
        with pytest.raises(ValueError, match="positive"):
            ExpansionAnsatz(pieces, eps)


def test_zero_jump_constant_ansatz_is_the_evolved_constant(small_cfg):
    # identical constants on both sides: no layers anywhere, so the
    # sampler must return the pointwise limit flow exactly
    data = constant_per_side((0.6, 0.8, 0.0), (0.6, 0.8, 0.0))
    pieces = build_expansion_pieces(data, small_cfg)
    ansatz = ExpansionAnsatz(pieces, 0.05)
    c = _evolved([0.6, 0.8, 0.0], ansatz.times)
    x = np.linspace(-1.0, 1.0, 41)
    for k in (0, 4, ansatz.times.size - 1):
        t = float(ansatz.times[k])
        parts = _sample_parts(ansatz, t, x)
        assert np.max(np.abs(parts["interface"])) == 0.0
        assert np.max(np.abs(parts["wall"])) == 0.0
        assert np.max(np.abs(parts["rho"])) == 0.0
        np.testing.assert_allclose(_sample(ansatz, t, x),
                                   np.tile(c[k], (x.size, 1)), atol=1e-13)


def test_far_field_is_the_one_sided_limit_state(jump_small):
    # outside both neighborhoods every layer term is off and the sampler
    # returns the one-sided limit state of its own half
    _, _, ansatz = jump_small
    c_minus = _evolved([0.6, 0.8, 0.0], ansatz.times)
    c_plus = _evolved([-0.6, 0.8, 0.0], ansatz.times)
    x = np.array([-0.7, -0.5, -0.4, 0.4, 0.5, 0.7])
    expect = np.where((x < 0.0)[:, None], 0.0, 1.0)
    for k in (1, ansatz.times.size - 1):
        t = float(ansatz.times[k])
        want = (1.0 - expect) * c_minus[k] + expect * c_plus[k]
        np.testing.assert_allclose(_sample(ansatz, t, x), want, atol=1e-12)


def test_interface_value_matches_profile_trace(jump_small):
    # at x = 0 the increment must be the junction trace W(0) minus half
    # the jump (the plus-side branch of the exponential lift)
    _, pieces, ansatz = jump_small
    pair = pieces.profiles
    k = ansatz.times.size - 1
    parts = _sample_parts(ansatz, float(ansatz.times[k]), np.array([0.0]))
    expect = pair.W[k, pair.j0] - 0.5 * pair.delta[k]
    np.testing.assert_allclose(parts["interface"][0], expect, atol=1e-13)


def test_ansatz_is_continuous_across_the_interface(jump_small):
    # the lift carries exactly the blended jump, so the assembled field
    # heals the discontinuity the base state has at x = 0
    _, _, ansatz = jump_small
    t = float(ansatz.times[-1])
    x = np.array([-1e-8, 1e-8])
    parts = _sample_parts(ansatz, t, x)
    base_gap = np.linalg.norm(parts["base"][1] - parts["base"][0])
    assert base_gap > 1.0
    vals = _sample(ansatz, t, x)
    assert np.linalg.norm(vals[1] - vals[0]) < 1e-5


def test_jump_fixture_has_no_wall_layer(jump_small):
    # constants have zero wall derivative: no Neumann mismatch, so the
    # wall profile and the slow corrector vanish identically
    _, pieces, ansatz = jump_small
    assert np.max(np.abs(pieces.boundary.U)) == 0.0
    assert np.max(np.abs(pieces.g_minus)) == 0.0
    assert np.max(np.abs(pieces.g_plus)) == 0.0
    parts = _sample_parts(ansatz, 0.0, np.linspace(-1.0, 1.0, 33))
    assert np.max(np.abs(parts["wall"])) == 0.0
    assert np.max(np.abs(parts["rho"])) == 0.0


def test_swirl_fixture_has_no_interface_layer(swirl_small):
    # continuous data carries no jump: both profile branches coincide
    # bitwise and the transmission increment is exactly zero
    _, pieces, ansatz = swirl_small
    assert np.max(np.abs(pieces.profiles.W)) == 0.0
    assert np.max(np.abs(pieces.profiles.delta)) == 0.0
    assert np.all(pieces.profiles.iterations == 0)
    parts = _sample_parts(ansatz, 0.0, np.linspace(-1.0, 1.0, 33))
    assert np.max(np.abs(parts["interface"])) == 0.0


def test_swirl_wall_increment_lives_in_the_boundary_band(swirl_small):
    _, pieces, ansatz = swirl_small
    t = float(ansatz.times[-1])
    mid = np.linspace(-0.7, 0.7, 15)
    parts = _sample_parts(ansatz, t, mid)
    assert np.max(np.abs(parts["wall"])) == 0.0
    near = np.array([-0.98, -0.9, 0.9, 0.98])
    parts = _sample_parts(ansatz, t, near)
    assert np.max(np.abs(parts["wall"])) > 1e-3
    # the corrector is the ramp times the cutoff times the trace slope
    k = ansatz.knot_index(t)
    want = ((1.0 - np.abs(near)) * theta(near))[:, None] \
        * np.where((near > 0.0)[:, None], pieces.g_plus[k],
                   pieces.g_minus[k])
    np.testing.assert_allclose(parts["rho"], want, atol=1e-15)


def test_sampling_is_deterministic(jump_small):
    _, _, ansatz = jump_small
    x = np.linspace(-1.0, 1.0, 57)
    times = ansatz.times[[0, 2, ansatz.times.size - 1]]
    a = ansatz.sample_times(times, x)
    b = ansatz.sample_times(times, x)
    assert np.array_equal(a, b)
    rows = np.stack([_sample(ansatz, float(t), x) for t in times])
    assert np.array_equal(a, rows)


# --- per-knot reference sampler ---
#
# The sampler as it was written knot by knot: for the wall, resample
# every stretched node along x onto the solver nodes first, then
# evaluate each node's own column of the natural spline at its stretched
# coordinate; for the interface, evaluate the x = 0 profile at each
# node's stretched coordinate and weight it by the cutoff. The blocked
# sampler swaps the wall's two linear steps, so it must agree to
# rounding.

def _eval_each(knots, v, m, q):
    """Natural spline column i of (v, m) at its own point q[i]."""
    j = np.clip(np.searchsorted(knots, q, side="right") - 1, 0,
                knots.size - 2)
    cols = np.arange(v.shape[1])
    h = knots[j + 1] - knots[j]
    tl = knots[j + 1] - q
    tr = q - knots[j]
    return (v[j, cols] * tl / h + v[j + 1, cols] * tr / h
            + m[j, cols] * (tl ** 3 / h - h * tl) / 6.0
            + m[j + 1, cols] * (tr ** 3 / h - h * tr) / 6.0)


def _resample_then_eval(knots, U_x, s):
    """U_x (nq, ns, 3) resampled profiles; node q evaluated at s[q]."""
    v = np.moveaxis(U_x, 1, 0).reshape(knots.size, -1)
    m = natural_spline_coeffs(knots, v)
    return _eval_each(knots, v, m, np.repeat(s, 3)).reshape(-1, 3)


def _reference_sample(ansatz, t, x):
    k = ansatz.knot_index(t)
    eps = ansatz.epsilon
    pieces = ansatz.pieces
    ext, pair, prof = pieces.ext, pieces.profiles, pieces.boundary
    xp = ext.x_param
    base = simulate_limit(pieces.data(x, "plus"), ansatz.times)[k]

    interface = np.zeros((x.size, 3))
    ys = x / eps
    active = in_v_sigma(x) & (np.abs(ys) <= pair.Y)
    ya = ys[active]
    j0 = pair.j0
    d = pair.delta[k]
    vals = np.zeros((ya.size, 3))
    gm = ya < 0.0
    W_m = np.broadcast_to(pair.W[k, :j0 + 1], (ya[gm].size, j0 + 1, 3))
    vals[gm] = (_resample_then_eval(pair.y[:j0 + 1], W_m, ya[gm])
                + 0.5 * d * np.exp(ya[gm])[:, None])
    gp = ~gm
    W_p = np.broadcast_to(pair.W[k, j0:], (ya[gp].size, pair.y.size - j0,
                                           3))
    vals[gp] = (_resample_then_eval(pair.y[j0:], W_p, ya[gp])
                - 0.5 * d * np.exp(-ya[gp])[:, None])
    interface[active] = chi_sigma(x[active])[:, None] * vals

    wall = np.zeros((x.size, 3))
    theta_x = theta(x)
    zs = (1.0 - np.abs(x)) / eps
    xs = prof.x_support
    zero = np.zeros((1,) + prof.U.shape[2:])
    for sign in (-1.0, 1.0):
        sel = (sign * x > 0.0) & (theta_x > 0.0) & (zs <= prof.Z)
        cols = sign * xs > 0.0
        if sign > 0.0:
            j = int(np.searchsorted(xp, xs[cols][0])) - 1
            xs_ext = np.concatenate([[xp[j]], xs[cols]])
            U_ext = np.concatenate([zero, prof.U[k][cols]])
        else:
            j = int(np.searchsorted(xp, xs[cols][-1])) + 1
            xs_ext = np.concatenate([xs[cols], [xp[j]]])
            U_ext = np.concatenate([prof.U[k][cols], zero])
        U_x = x_resample(xs_ext, U_ext, x[sel])
        wall[sel] = _resample_then_eval(prof.z, U_x, zs[sel])

    rho = np.zeros((x.size, 3))
    phi_theta = (1.0 - np.abs(x)) * theta_x
    right, left = x > 0.0, x < 0.0
    rho[right] = phi_theta[right, None] * pieces.g_plus[k]
    rho[left] = phi_theta[left, None] * pieces.g_minus[k]
    return base + interface + eps * (wall + rho)


@pytest.mark.parametrize("fixture", ["jump_small", "swirl_small"])
def test_blocked_sampling_matches_the_per_knot_reference(fixture, request):
    # the jump data exercises the interface path, the swirl data the
    # wall path; 9 knots make one full block of 8 and a partial one
    _, pieces, _ = request.getfixturevalue(fixture)
    eps = 0.03125
    ansatz = ExpansionAnsatz(pieces, eps)
    times = ansatz.times
    assert times.size % 8 != 0
    x = np.linspace(-1.0, 1.0, 257)
    # the active window reaches its edge |y| = Y at interior nodes
    edge = in_v_sigma(x) & (np.abs(x / eps) == pieces.profiles.Y)
    assert np.count_nonzero(edge) == 2
    got = ansatz.sample_times(times, x)
    want = np.stack([_reference_sample(ansatz, float(t), x) for t in times])
    layer = "interface" if fixture == "jump_small" else "wall"
    assert max(np.max(np.abs(_sample_parts(ansatz, float(t), x)[layer]))
               for t in times) > 1e-3
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


def _counting(monkeypatch, name):
    """Patch expansion.<name> with a wrapper that counts its calls."""
    calls = []
    original = getattr(expansion, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)
    monkeypatch.setattr(expansion, name, counted)
    return calls


def _two_blocks(ansatz):
    """LEVEL_BLOCK + 1 stored knots, repeating when there are fewer:
    one full level block and one of a single knot."""
    return np.resize(ansatz.times, LEVEL_BLOCK + 1)


@pytest.mark.parametrize("fixture, per_pass", [("jump_small", 0),
                                               ("swirl_small", 2)])
def test_layer_x_weights_are_built_once_per_pass(fixture, per_pass,
                                                  request, monkeypatch):
    # the wall's x-weights depend on the nodes alone: one knot and two
    # blocks of knots build them equally often, once per wall that
    # holds data; the interface is weighted by its cutoff and builds none
    _, pieces, _ = request.getfixturevalue(fixture)
    ansatz = ExpansionAnsatz(pieces, 0.03125)
    x = np.linspace(-1.0, 1.0, 257)
    calls = _counting(monkeypatch, "_cardinal_weights")
    ansatz.sample_times(ansatz.times[:1], x)
    assert len(calls) == per_pass
    ansatz.sample_times(_two_blocks(ansatz), x)
    assert len(calls) == 2 * per_pass


def test_wall_x_weights_reproduce_linear_data(swirl_small):
    # a natural spline is exact on linear data: the resample of an
    # identity on a wall side's columns and zero anchor sums to one and
    # reproduces x; the side drops the anchor's column, so its weights
    # reproduce the linear data that vanish there
    _, pieces, _ = swirl_small
    prof = pieces.boundary
    xp = prof.x_param
    ansatz = ExpansionAnsatz(pieces, 0.03125)
    x = np.linspace(-1.0, 1.0, 257)
    walls = [side for side in ansatz._layer_sides(x) if side[0] == "wall"]
    assert len(walls) == 2
    for _, nodes, _, _, _, weights, _, _ in walls:
        sign = np.sign(x[nodes[0]])
        xs = prof.x_support[sign * prof.x_support > 0.0]
        i0 = int(np.searchsorted(xp, xs[0]))
        anchor = i0 - 1 if sign > 0.0 else i0 + xs.size
        xa = xp[anchor]
        lo = min(i0, anchor)
        ext = xp[lo:max(i0 + xs.size - 1, anchor) + 1]
        full = x_resample(ext, np.eye(ext.size), x[nodes])
        np.testing.assert_allclose(full.sum(1), 1.0, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(full @ ext, x[nodes], rtol=0.0,
                                   atol=1e-13)
        assert np.array_equal(np.delete(full, anchor - lo, axis=1), weights)
        np.testing.assert_allclose(weights @ (xs - xa), x[nodes] - xa,
                                   rtol=0.0, atol=1e-13)


@pytest.fixture(scope="module")
def flat_small(small_cfg):
    data = constant_per_side((0.6, 0.8, 0.0), (0.6, 0.8, 0.0))
    pieces = build_expansion_pieces(data, small_cfg)
    return data, pieces, ExpansionAnsatz(pieces, 0.1)


@pytest.mark.parametrize("fixture, per_block", [("jump_small", 2),
                                                ("swirl_small", 2),
                                                ("flat_small", 0)])
def test_layers_that_hold_nothing_are_not_fitted(fixture, per_block,
                                                 request, monkeypatch):
    # jump data fits the two interface halves, swirl data the two walls,
    # identical constants nothing; spline fits are counted per knot
    # block, since both layer meshes may be the same array
    _, pieces, _ = request.getfixturevalue(fixture)
    ansatz = ExpansionAnsatz(pieces, 0.03125)
    x = np.linspace(-1.0, 1.0, 257)
    calls = _counting(monkeypatch, "natural_spline_coeffs")
    ansatz.sample_times(ansatz.times[:1], x)
    assert len(calls) == per_block
    ansatz.sample_times(_two_blocks(ansatz), x)
    assert len(calls) == per_block * (1 + 2)


@pytest.mark.parametrize("x", [
    np.linspace(-1.0, 1.0, 257), np.linspace(-0.99, 0.97, 100),
    np.linspace(-1.0, -0.2, 33), np.linspace(0.2, 1.0, 33)],
    ids=["with-zero", "without-zero", "minus-side", "plus-side"])
@pytest.mark.parametrize("fixture", ["jump_small", "swirl_small"])
def test_base_state_is_the_exact_limit_flow(fixture, x, request):
    # the base of a is the limit flow of the data, the interface node
    # from the plus side, bit for bit at every knot of a list that
    # repeats knots and runs backwards
    _, pieces, _ = request.getfixturevalue(fixture)
    ansatz = ExpansionAnsatz(pieces, 0.03125)
    ks = np.resize(np.arange(ansatz.times.size)[::-1], LEVEL_BLOCK + 5)
    assert np.unique(ks).size < ks.size
    want = simulate_limit(pieces.data(x, "plus"), ansatz.times)
    base = ansatz._parts(ks, x, ansatz._layer_sides(x))["base"]
    assert np.array_equal(base, want[ks])


@pytest.mark.parametrize("fixture", ["jump_small", "swirl_small"])
def test_limit_error_reference_is_the_base_of_a(fixture, small_cfg,
                                                request, monkeypatch):
    # one evaluation of the limit flow per knot serves a and the limit
    # error: the row's references are the base of the ansatz window, bit
    # for bit, but for the minus copy of the interface node
    _, pieces, _ = request.getfixturevalue(fixture)
    eps = 0.05
    refs = []
    add = expansion.JumpErrorWalk.add

    def record(walk, start, u, ref_minus, ref_plus):
        refs.append((ref_minus.copy(), ref_plus.copy()))
        return add(walk, start, u, ref_minus, ref_plus)

    monkeypatch.setattr(expansion.JumpErrorWalk, "add", record)
    expansion._epsilon_row((pieces, eps, small_cfg))
    ansatz = ExpansionAnsatz(pieces, eps)
    x = make_epsilon_grid(eps, cells_per_eps=small_cfg.cells_per_eps).x
    i0 = int(np.searchsorted(x, 0.0))
    assert x[i0] == 0.0
    ks = np.array([ansatz.knot_index(t) for t in
                   knot_times(pieces.T_used, small_cfg.dt_knot)])
    base = ansatz._parts(ks, x, ansatz._layer_sides(x))["base"]
    ref_minus, ref_plus = (np.concatenate(r) for r in zip(*refs))
    assert np.array_equal(ref_minus[:, :i0], base[:, :i0])
    assert np.array_equal(ref_plus, base[:, i0:])


# --- space-time norms ---

def test_l2_constant_closed_form():
    times = np.linspace(0.0, 1.0, 21)
    x = np.linspace(-1.0, 1.0, 41)
    a = np.array([0.3, -0.4, 1.2])
    vals = np.tile(a, (times.size, x.size, 1))
    expect = np.sqrt(float(a @ a) * 2.0)
    assert abs(l2_space_time(times, x, vals) - expect) < 1e-13
    # a unit field over [0, 1] x [-1, 1] integrates to sqrt(2)
    ones = np.zeros((times.size, x.size, 3))
    ones[..., 0] = 1.0
    assert abs(l2_space_time(times, x, ones) - np.sqrt(2.0)) < 1e-13


def test_l2_layer_profile_closed_form():
    # exp(-|x|/eps) integrates to eps(1 - exp(-2/eps)): the layer mass
    # that sets the square-root convergence rate
    eps = 0.05
    T = 0.7
    times = np.linspace(0.0, T, 29)
    x = np.linspace(-1.0, 1.0, 4001)
    v = np.array([1.0, 0.0, 0.0])
    vals = np.exp(-np.abs(x) / eps)[None, :, None] * v
    vals = np.broadcast_to(vals, (times.size, x.size, 3))
    expect = np.sqrt(eps * (1.0 - np.exp(-2.0 / eps)) * T)
    got = l2_space_time(times, x, vals)
    assert abs(got - expect) / expect < 1e-4


def test_l2_validation():
    times = np.linspace(0.0, 1.0, 5)
    x = np.linspace(-1.0, 1.0, 9)
    good = np.zeros((5, 9, 3))
    with pytest.raises(ValueError, match="does not match"):
        l2_space_time(times, x, good[:, :-1])


def test_jump_error_split_closed_form():
    # a field equal to the minus reference everywhere (including the
    # interface node) differs from the plus reference only on the first
    # plus cell, weighted half by the trapezoid rule
    times = np.linspace(0.0, 0.8, 17)
    x = np.linspace(-1.0, 1.0, 41)
    i0 = int(np.argmin(np.abs(x)))
    a = np.array([0.6, 0.8, 0.0])
    b = np.array([-0.6, 0.8, 0.0])
    u = np.tile(np.where((x <= 0.0)[:, None], a, b), (times.size, 1, 1))
    # each reference lives on its own half, the interface node in both
    ref_minus = np.tile(a, (times.size, i0 + 1, 1))
    ref_plus = np.tile(b, (times.size, x.size - i0, 1))
    h = x[i0 + 1] - x[i0]
    gap = float((a - b) @ (a - b))
    expect = np.sqrt(0.8 * gap * h / 2.0)
    got = jump_error_l2(times, x, u, ref_minus, ref_plus)
    assert abs(got - expect) < 1e-13
    # continuous references matched exactly measure zero
    same = np.tile(a, (times.size, x.size, 1))
    assert jump_error_l2(times, x, same, same[:, :i0 + 1], same[:, i0:]) \
        == 0.0


def test_jump_error_requires_interface_node():
    times = np.linspace(0.0, 1.0, 5)
    x = np.linspace(-1.0, 1.0, 10)
    u = np.zeros((5, 10, 3))
    with pytest.raises(ValueError, match="interface node"):
        jump_error_l2(times, x, u, u[:, :5], u[:, 4:])
    x = np.linspace(-1.0, 1.0, 11)
    u = np.zeros((5, 11, 3))
    with pytest.raises(ValueError, match="interface node"):
        jump_error_l2(times, x, u, u[:, :6], u[:, 6:])


def test_fit_slope_exact_power_and_validation():
    eps = np.array([0.1, 0.05, 0.025, 0.0125])
    err = 3.7 * eps**0.5
    assert abs(fit_slope(eps, err) - 0.5) < 1e-12
    err2 = 0.2 * eps**2
    assert abs(fit_slope(eps, err2) - 2.0) < 1e-12
    with pytest.raises(ValueError, match="paired"):
        fit_slope(eps, err[:-1])
    with pytest.raises(ValueError, match="positive"):
        fit_slope(eps, err - err[0])
    with pytest.raises(ValueError, match="entry 2"):
        fit_slope(eps, np.where(eps == 0.025, np.nan, err))
    with pytest.raises(ValueError, match="entry 0"):
        fit_slope(np.where(eps == 0.1, np.inf, eps), err)


# --- conormal norms ---

def test_eclass_zero_field_is_all_zeros():
    times = np.linspace(0.0, 1.0, 9)
    x = np.linspace(-1.0, 1.0, 33)
    _, rec = eclass_norms(times, x, np.zeros((9, 33, 3)), 0.1, m=2)
    assert isinstance(rec, EClassNorms)
    assert rec.total == 0.0
    assert np.all(rec.summands() == 0.0)


def test_eclass_validation():
    times = np.linspace(0.0, 1.0, 9)
    x = np.linspace(-1.0, 1.0, 33)
    w = np.zeros((9, 33, 3))
    with pytest.raises(ValueError, match="m must be"):
        eclass_norms(times, x, w, 0.1, m=3)
    with pytest.raises(ValueError, match="does not match"):
        eclass_norms(times, x, w[:, :-1], 0.1, m=1)


@pytest.mark.parametrize("m", [1, 2])
def test_eclass_pair_comes_from_one_table(m):
    rng = np.random.default_rng(5)
    times = np.linspace(0.0, 0.5, 17)
    x = np.linspace(-1.0, 1.0, 65)
    w = rng.standard_normal((times.size, x.size, 3))
    eps = 0.05
    rec0, recm = eclass_norms(times, x, w, eps, m=m)
    assert (rec0.m, recm.m) == (0, m)
    for name in ("sup", "sup_conormal", "sup_normal"):
        assert getattr(rec0, name) == getattr(recm, name)
    assert rec0.conormal == l2_space_time(times, x, w)
    assert rec0.normal_conormal == l2_space_time(
        times, x, eps * profile_d1(x, w))
    assert recm.conormal >= rec0.conormal


def test_eclass_smooth_field_is_eps_uniform():
    times = np.linspace(0.0, 1.0, 33)
    x = np.linspace(-1.0, 1.0, 129)
    v = np.array([0.5, -1.0, 0.25])
    w = (np.cos(np.pi * times)[:, None, None]
         * np.sin(np.pi * x)[None, :, None] * v)
    recs = [eclass_norms(times, x, w, e, m=1)[1]
            for e in (0.1, 0.05, 0.025)]
    # the integral summands carry no eps at all; the sup summands are
    # linear in eps, so everything is bounded by the largest-eps record
    assert recs[0].conormal == recs[1].conormal == recs[2].conormal
    for a, b in zip(recs, recs[1:]):
        assert b.total < a.total
        assert np.all(b.summands() <= a.summands() + 1e-15)


def test_eclass_conormal_weight_tames_the_layer():
    # w = exp(-|x|/eps): the plain x-derivative grows like 1/eps while
    # the weighted field keeps the m = 1 norm comparable to the m = 0
    # norm across halvings
    times = np.linspace(0.0, 1.0, 9)
    x = np.linspace(-1.0, 1.0, 1601)
    v = np.array([1.0, 0.0, 0.0])
    tame = []
    plain = []
    for eps in (0.1, 0.05, 0.025):
        w = (np.cos(times)[:, None, None]
             * np.exp(-np.abs(x) / eps)[None, :, None] * v)
        rec0, rec1 = eclass_norms(times, x, w, eps, m=1)
        m0, m1 = rec0.conormal, rec1.conormal
        tame.append(m1 / m0)
        plain.append(l2_space_time(times, x, profile_d1(x, w)) / m0)
    tame = np.array(tame)
    assert tame.max() / tame.min() < 3.0
    growth = np.array(plain[1:]) / np.array(plain[:-1])
    assert np.all((growth > 1.6) & (growth < 2.4))


# --- study configuration and validation ---

def test_study_config_validation():
    with pytest.raises(ConfigError, match="positive"):
        StudyConfig(T=-1.0)
    with pytest.raises(ConfigError, match="must not exceed"):
        StudyConfig(dt_full=5e-3, dt_knot=2.5e-3)
    with pytest.raises(ConfigError, match="integer multiple"):
        StudyConfig(T=0.5, dt_knot=3e-3)
    with pytest.raises(ConfigError, match="eclass_m"):
        StudyConfig(eclass_m=3)


def test_convergence_study_validation(jump_data):
    with pytest.raises(ConfigError, match="at least 3 eps"):
        convergence_study([0.1, 0.05], jump_data)
    with pytest.raises(ConfigError, match="strictly decreasing"):
        convergence_study([0.1, 0.05, 0.05], jump_data)
    with pytest.raises(ConfigError, match="strictly decreasing"):
        convergence_study([0.1, -0.05, 0.025], jump_data)
    with pytest.raises(ConfigError, match="finite"):
        convergence_study([0.1, 0.05, np.nan], jump_data)
    with pytest.raises(ConfigError, match="unresolved layer"):
        convergence_study([0.1, 0.05, 0.025], jump_data,
                          StudyConfig(cells_per_eps=4))


def _stub_row(task):
    _, eps, _ = task
    norms = EClassNorms(0, 1.0, 1.0, 1.0, 1.0, 1.0)
    return {"epsilon": eps, "err_l2": eps ** 0.5, "residual_l2": eps,
            "ec0": norms, "ecm": norms, "nx": 8, "drift_max": 0.0}


def test_jobs_caps_the_pool_at_the_eps_count(jump_data, monkeypatch):
    sizes = []

    class Pool:
        """Records its size and runs the tasks here; starts no process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(expansion, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(expansion, "_epsilon_row", _stub_row)
    eps = [0.1, 0.05, 0.025, 0.0125]
    pieces = SimpleNamespace(T_used=0.5)
    for jobs in (64, 3, 1):
        report = convergence_study(eps, jump_data, jobs=jobs, pieces=pieces)
        np.testing.assert_allclose(report.slope, 0.5)
    assert sizes == [4, 3]
    for jobs in (0, -3):
        with pytest.raises(ConfigError, match=f"--jobs .* got {jobs}"):
            convergence_study(eps, jump_data, jobs=jobs)
    assert sizes == [4, 3]


# --- the full-model march over the pieces' grid ---

def test_study_marches_the_pieces_grid(small_cfg, jump_small, monkeypatch):
    """At the default dt_full each level of the pieces' grid is one step,
    and the measured u is the march's knot levels."""
    data, pieces, _ = jump_small
    marched, measured = [], {}
    add = expansion.JumpErrorWalk.add

    class Recorded(FullMarch):
        def __init__(self, u0, grid, fcfg, t_eval):
            super().__init__(u0, grid, fcfg, t_eval=t_eval)
            self.t_eval, self.levels = t_eval, []
            marched.append(self)

        def __next__(self):
            u = super().__next__()
            self.levels.append(u.copy())
            return u

    def error(walk, start, u, ref_minus, ref_plus):
        # the row reuses u's window for w once the block is measured
        measured.setdefault(walk, []).append(u.copy())
        return add(walk, start, u, ref_minus, ref_plus)

    monkeypatch.setattr(expansion, "FullMarch", Recorded)
    monkeypatch.setattr(expansion.JumpErrorWalk, "add", error)
    assert small_cfg.dt_full == StudyConfig().dt_full
    convergence_study([0.1, 0.07, 0.05], data, small_cfg, pieces=pieces)
    times = pieces.ext.times
    knots = knot_times(pieces.T_used, small_cfg.dt_knot)
    assert len(marched) == len(measured) == 3
    for march, blocks in zip(marched, measured.values()):
        u = np.concatenate(blocks)
        assert np.array_equal(march.t_eval, times)
        assert np.array_equal(march.times, times)
        assert march.steps_taken == times.size - 1
        assert march.halvings_used == 0
        rows = np.searchsorted(march.times, knots)
        assert np.array_equal(march.times[rows], knots)
        assert np.array_equal(u, np.array(march.levels)[rows])


def test_a_row_stores_no_trajectory(small_cfg, jump_small, monkeypatch):
    # the row walks the march's levels as they come
    _, pieces, _ = jump_small

    def refuse(shape):
        raise AssertionError(f"the row stored a trajectory {shape}")

    monkeypatch.setattr(full_model, "_trajectory_buffer", refuse)
    row = expansion._epsilon_row((pieces, 0.1, small_cfg))
    assert np.isfinite(row["err_l2"]) and row["drift_max"] > 0.0


# --- the horizon cut by a stalled Picard window ---

def _stalling_profiles(step):
    """picard_profiles with the jump grown 30x from knot `step` on: the
    window holding that knot stops contracting."""
    def run(ext, y, **kw):
        grow = np.where(np.arange(ext.times.size) < step, 1.0, 30.0)
        stalling = replace(ext, u_minus=ext.u_plus
                           - grow[:, None, None] * ext.delta)
        return picard_profiles(stalling, y, **kw)
    return run


def test_stalled_window_cuts_the_horizon(small_cfg, monkeypatch):
    cfg = replace(small_cfg, T=0.05)
    data = constant_per_side((0.6, 0.8, 0.0), (-0.6, 0.8, 0.0))
    stalling = _stalling_profiles(2 * TIME_BLOCK + 3)
    monkeypatch.setattr(expansion, "picard_profiles", stalling)
    pieces = build_expansion_pieces(data, cfg)
    knots = time_grid(cfg.T, dt=cfg.dt_knot)
    assert pieces.T_used == knots[2 * TIME_BLOCK] < cfg.T
    # the cut pieces are those of a build on the shorter horizon
    short = time_grid(pieces.T_used, dt=cfg.dt_knot)
    ext = extend_limit(data, param_nodes(cfg.param_cells), short)
    for name in ("times", "x_param", "u_plus", "u_minus", "du_plus",
                 "du_minus"):
        assert np.array_equal(getattr(pieces.ext, name),
                              getattr(ext, name)), name
    pair = stalling(ext, make_profile_grid(Y=cfg.box_y,
                                           cells=cfg.profile_cells),
                    tol=cfg.picard_tol, max_iter=cfg.picard_max_iter)
    assert np.array_equal(pieces.profiles.times, short)
    assert np.array_equal(pieces.profiles.W, pair.W)
    assert pieces.profiles.residual_trace == pair.residual_trace
    assert np.array_equal(pieces.boundary.times, short)
    # a window opening at level 64 = 58 dt keeps its knot, which
    # floor(t / dt) dt would round down to 57 dt
    monkeypatch.setattr(expansion, "picard_profiles",
                        _stalling_profiles(8 * TIME_BLOCK + 3))
    cfg = replace(small_cfg, T=0.2)
    pieces = build_expansion_pieces(data, cfg)
    assert pieces.T_used == time_grid(cfg.T, dt=cfg.dt_knot)[8 * TIME_BLOCK]
    assert pieces.T_used == 0.145


def test_stall_before_four_knot_cells_aborts(small_cfg, monkeypatch):
    data = constant_per_side((0.6, 0.8, 0.0), (-0.6, 0.8, 0.0))
    monkeypatch.setattr(expansion, "picard_profiles",
                        _stalling_profiles(TIME_BLOCK + 3))
    with pytest.raises(NonContraction, match="converged up to t=0.005"):
        build_expansion_pieces(data, small_cfg)


# --- the measured studies (session fixtures) ---

def test_headline_study_structure(jump_study, study_cfg):
    rep = jump_study
    assert np.all(np.diff(rep.epsilons) < 0.0)
    assert np.all(rep.errors_l2 > 0.0)
    assert np.all(np.diff(rep.errors_l2) < 0.0)
    assert rep.T_used == study_cfg.T
    # banded refinement: each grid spends many cells on its layers even
    # though the bulk stays coarse
    assert np.all(rep.grid_sizes >= 4 * study_cfg.cells_per_eps)
    assert np.all(rep.drift_max <= study_cfg.drift_tol)
    assert np.isnan(rep.slope_running[0])
    assert np.all(np.isfinite(rep.slope_running[1:]))


def test_headline_study_running_slopes_match_errors(jump_study):
    rep = jump_study
    want = (np.diff(np.log(rep.errors_l2))
            / np.diff(np.log(rep.epsilons)))
    np.testing.assert_allclose(rep.slope_running[1:], want, rtol=1e-12)
    assert abs(fit_slope(rep.epsilons, rep.errors_l2) - rep.slope) < 1e-12


def test_headline_study_eclass_records_consistent(jump_study, study_cfg):
    rep = jump_study
    assert len(rep.records_m0) == rep.epsilons.size
    for rec0, recm, t0, tm in zip(rep.records_m0, rep.records_m1,
                                  rep.eclass_m0, rep.eclass_m1):
        assert rec0.m == 0
        assert recm.m == study_cfg.eclass_m
        assert abs(rec0.total - t0) < 1e-15
        assert abs(recm.total - tm) < 1e-15
        assert abs(rec0.summands().sum() - rec0.total) < 1e-15
        # higher order dominates: the m = 0 norm is part of the m = 1 sum
        assert recm.conormal >= rec0.conormal


def test_swirl_study_errors_decrease(swirl_study):
    rep = swirl_study
    assert np.all(np.diff(rep.errors_l2) < 0.0)
    assert np.all(rep.residuals > 0.0)


def test_swirl_study_is_time_resolved(swirl_study, swirl_data, swirl_pieces,
                                      study_cfg):
    """A quarter of the default full-model step moves each column of the
    swirl study by less than its bound; the residual reads only a."""
    fine_cfg = replace(study_cfg, dt_full=study_cfg.dt_knot / 4)
    fine = convergence_study(swirl_study.epsilons, swirl_data, fine_cfg,
                             pieces=swirl_pieces)

    def move(column):
        coarse, ref = getattr(swirl_study, column), getattr(fine, column)
        return np.max(np.abs(coarse - ref) / np.abs(ref))

    assert move("errors_l2") <= 1e-4
    assert move("eclass_m0") <= 1e-3
    assert move("eclass_m1") <= 1e-2
    assert np.array_equal(swirl_study.residuals, fine.residuals)
