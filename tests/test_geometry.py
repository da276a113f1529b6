"""Meshes, stencils, the two neighborhoods and their cutoffs, conormal
weights."""

from __future__ import annotations

import numpy as np
import pytest

from llx.full_model import Grid1D
from llx.geometry import (
    V_GAMMA_WIDTH,
    apply_tridiagonal_stencil,
    chi_sigma,
    conormal_weight,
    d1_coefficients,
    d2_coefficients,
    graded_widths,
    in_v_sigma,
    knot_times,
    level_blocks,
    make_profile_grid,
    make_wall_grid,
    one_sided_d1,
    param_nodes,
    profile_d1,
    quintic_smoothstep,
    theta,
    time_d1,
    time_grid,
    x_squares,
)


# --- parameter mesh ---

def test_uniform_domain_nodes():
    x = param_nodes(8)
    assert x.shape == (17,)
    assert np.allclose(np.diff(x), 0.125)
    assert x[0] == -1.0
    assert x[8] == 0.0 and not np.signbit(x[8])
    assert x[-1] == 1.0


def test_domain_symmetry():
    x = param_nodes(16)
    # the minus side is the mirror of the plus side
    assert np.array_equal(x[:17], -x[16:][::-1])


def test_too_few_cells_rejected():
    with pytest.raises(ValueError, match="at least 8"):
        param_nodes(4)


def test_merged_nodes_single_valued():
    x = param_nodes(8)
    assert x.shape == (17,)
    assert np.all(np.diff(x) > 0)
    assert np.count_nonzero(x == 0.0) == 1


# --- graded layer meshes ---

def test_profile_grid_structure():
    y = make_profile_grid(Y=15.0, cells=128)
    assert y.size == 257
    j0 = y.size // 2
    assert j0 == 128
    assert y[j0] == 0.0 and not np.signbit(y[j0])
    assert y[0] == -15.0 and y[-1] == 15.0
    np.testing.assert_allclose(y, -y[::-1], atol=0)
    w = np.diff(y[j0:])
    # widths grow away from the junction and cap at h_max
    assert np.all(np.diff(w) >= -1e-15)
    assert w[0] < 1e-4
    assert w[-1] <= 0.3125 + 1e-12
    assert abs(w.sum() - 15.0) < 1e-12


@pytest.mark.parametrize("length, cells", [(100.0, 8), (6.0, 64),
                                            (15.0, 128), (0.5, 8)])
def test_graded_widths_cover_any_box(length, cells):
    # the cap max(2 length / cells, 0.25) lets the capped cells alone
    # cover twice the length, so every box is covered
    w = graded_widths(length, cells)
    assert w.size == cells
    assert abs(w.sum() - length) <= 1e-12 * length
    assert np.all(np.diff(w) >= -1e-15)
    assert w.max() <= max(2.0 * length / cells, 0.25) * (1.0 + 1e-12)


def test_profile_grid_validation():
    with pytest.raises(ValueError, match="cells >= 8"):
        make_profile_grid(Y=15.0, cells=4)


def test_wall_grid_structure():
    z = make_wall_grid(Z=15.0, cells=96)
    assert z[0] == 0.0 and z[-1] == 15.0
    w = np.diff(z)
    assert np.all(w > 0)
    assert np.all(np.diff(w) >= -1e-15)
    assert w[0] < 5e-3
    assert w[-1] <= 0.3125 + 1e-12


def test_wall_grid_validation():
    with pytest.raises(ValueError, match="cells >= 8"):
        make_wall_grid(Z=15.0, cells=4)
    with pytest.raises(ValueError, match="length > 0"):
        make_wall_grid(Z=0.0, cells=96)


# --- time grids ---

@pytest.mark.parametrize("T, dt", [(0.33, 0.03), (0.9, 0.03), (0.9, 0.3)])
def test_knot_times_end_on_T(T, dt):
    # dt * n falls one ulp short of these T; the last knot is T itself
    knots = knot_times(T, dt)
    assert knots[-1] == T
    assert knots.size == round(T / dt) + 1
    np.testing.assert_allclose(np.diff(knots), dt, rtol=1e-9)


@pytest.mark.parametrize("T, dt", [(0.5, 2.5e-3), (0.33, 0.03),
                                   (0.9, 0.3), (0.0212, 5e-3), (0.01, 0.02)])
def test_time_grid_levels_are_the_knots(T, dt):
    grid = time_grid(T, dt)
    assert np.all(np.diff(grid) > 0.0)
    # without the opening ramp's 6 levels the grid is the knots, bitwise
    assert np.array_equal(np.delete(grid, np.s_[1:7]), knot_times(T, dt))


# --- stencils ---

def test_profile_d1_exact_on_quadratics():
    y = make_profile_grid(Y=6.0, cells=32)
    W = np.stack([1.5 * y * y - 0.3 * y + 2.0,
                  -0.7 * y * y + y,
                  0.1 * y * y], axis=-1)
    expect = np.stack([3.0 * y - 0.3, -1.4 * y + 1.0, 0.2 * y], axis=-1)
    np.testing.assert_allclose(profile_d1(y, W), expect,
                               rtol=1e-9, atol=1e-9)
    # batched input differentiates along axis -2
    Wb = np.broadcast_to(W, (4, y.size, 3))
    np.testing.assert_allclose(profile_d1(y, Wb)[2], expect,
                               rtol=1e-9, atol=1e-9)


def _random_grid(rng, n=41):
    w = rng.uniform(0.5, 1.5, size=n - 1)
    x = np.concatenate([[0.0], np.cumsum(w)])
    x = -1.0 + 2.0 * x / x[-1]
    x[0], x[-1] = -1.0, 1.0
    return Grid1D(x=x)


def test_stencils_exact_on_quadratics():
    rng = np.random.default_rng(41)
    g = _random_grid(rng)
    u = (3.0 * g.x**2 - 2.0 * g.x + 1.0)[:, None] * np.ones(3)
    d2 = apply_tridiagonal_stencil(d2_coefficients(g.x), u)
    assert np.allclose(d2[1:-1], 6.0, atol=1e-9)
    d1 = apply_tridiagonal_stencil(d1_coefficients(g.x), u)
    expect = (6.0 * g.x - 2.0)[:, None] * np.ones(3)
    assert np.allclose(d1[1:-1], expect[1:-1], atol=1e-9)


def test_wall_rows_fold_in_mirror_ghost():
    rng = np.random.default_rng(42)
    g = _random_grid(rng)
    h0 = g.x[1] - g.x[0]
    # even function about the left wall: u = (x + 1)^2
    u = ((g.x + 1.0) ** 2)[:, None] * np.ones(3)
    d2 = apply_tridiagonal_stencil(d2_coefficients(g.x), u)
    assert np.allclose(d2[0], 2.0, atol=1e-9)
    # first-derivative wall row is identically zero (the condition itself)
    a, b, c = d1_coefficients(g.x)
    assert a[0] == b[0] == c[0] == 0.0
    assert a[-1] == b[-1] == c[-1] == 0.0


def test_one_sided_d1_exact_on_quadratics():
    rng = np.random.default_rng(43)
    g = _random_grid(rng)
    u = (g.x**2 + 0.5 * g.x)[:, None] * np.ones(3)
    left = one_sided_d1(g.x, u, "left")
    right = one_sided_d1(g.x, u, "right")
    assert np.allclose(left, 2.0 * (-1.0) + 0.5, atol=1e-9)
    assert np.allclose(right, 2.0 * 1.0 + 0.5, atol=1e-9)


def test_stencils_on_a_stack_match_each_slice_bitwise():
    # every stencil acts on the node axis -2, whatever leads it
    rng = np.random.default_rng(44)
    x = _random_grid(rng).x
    u = rng.standard_normal((2, 3, x.size, 3))
    slices = [(i, j) for i in range(2) for j in range(3)]
    calls = [lambda v: apply_tridiagonal_stencil(d2_coefficients(x), v),
             lambda v: apply_tridiagonal_stencil(d1_coefficients(x), v),
             lambda v: one_sided_d1(x, v, "left"),
             lambda v: one_sided_d1(x, v, "right"),
             lambda v: profile_d1(x, v),
             lambda v: x_squares(x, v)]
    for call in calls:
        stacked = call(u)
        for ij in slices:
            assert np.array_equal(stacked[ij], call(u[ij]))


# --- cutoffs and weights ---

def test_smoothstep_endpoints_and_monotone():
    assert quintic_smoothstep(-1.0) == 0.0
    assert quintic_smoothstep(0.0) == 0.0
    assert quintic_smoothstep(1.0) == 1.0
    assert quintic_smoothstep(2.0) == 1.0
    assert quintic_smoothstep(0.5) == pytest.approx(0.5)
    t = np.linspace(0, 1, 401)
    s = quintic_smoothstep(t)
    assert np.all(np.diff(s) >= 0)


def test_smoothstep_c2_at_ends():
    # second difference across the joins stays bounded by the interior
    # curvature scale, which it would not if s were merely C1
    h = 1e-4
    for t0 in (0.0, 1.0):
        d2 = (quintic_smoothstep(t0 + h) - 2 * quintic_smoothstep(t0)
              + quintic_smoothstep(t0 - h)) / h**2
        assert abs(d2) < 1e-2


def test_theta_plateau_and_support():
    # theta = 1 close to the walls (1 - |x| <= 1/8)
    for x in (1.0, 0.9, 0.875, -1.0, -0.95):
        assert theta(x) == pytest.approx(1.0)
    # theta = 0 once 1 - |x| >= 1/4
    for x in (0.75, 0.5, 0.0, -0.6):
        assert theta(x) == pytest.approx(0.0)
    # strictly between on the ramp
    assert 0.0 < theta(0.8) < 1.0


def test_chi_sigma_plateau_and_support():
    assert chi_sigma(0.0) == pytest.approx(1.0)
    for x in (0.35, 0.5, -0.7, 1.0):
        assert chi_sigma(x) == pytest.approx(0.0)
    assert 0.0 < chi_sigma(0.2) < 1.0
    # even in x
    xs = np.linspace(-0.4, 0.4, 41)
    assert np.allclose(chi_sigma(xs), chi_sigma(-xs))


def test_neighborhoods_disjoint():
    xs = np.linspace(-1, 1, 2001)
    both = in_v_sigma(xs) & (1.0 - np.abs(xs) < V_GAMMA_WIDTH)
    assert not both.any()
    # theta vanishes identically on the interface neighborhood
    assert np.all(theta(xs[in_v_sigma(xs)]) == 0.0)


def test_layer_supports_on_every_parameter_mesh():
    # the ansatz anchors each layer's x-weights on one zero column past
    # every support end that is not a domain end: the interface support
    # has a column inside (-1, 1) beyond each end, and each wall side's
    # support runs contiguously to its wall
    for cells in range(8, 65):
        x = param_nodes(cells)
        idx = np.nonzero(in_v_sigma(x))[0]
        lo, hi = idx[0] - 1, idx[-1] + 1
        assert 0 < lo and hi < x.size - 1, cells
        walls = np.nonzero(theta(x) > 0.0)[0]
        for side in (walls[x[walls] < 0.0], walls[x[walls] > 0.0]):
            assert side.size >= 2, cells
            assert np.array_equal(side, np.arange(side[0], side[-1] + 1))
        assert walls[0] == 0 and walls[-1] == x.size - 1, cells


def test_conormal_weight_values():
    assert conormal_weight(0.0) == 0.0
    assert conormal_weight(1.0) == 0.0
    assert conormal_weight(-1.0) == 0.0
    assert conormal_weight(0.5) == pytest.approx(0.375)
    # odd function
    xs = np.linspace(-1, 1, 101)
    assert np.allclose(conormal_weight(xs), -conormal_weight(-xs))


def test_conormal_weight_tangency_bound():
    # |w(x)| <= 2 min(|x|, 1-|x|) quantifies first-order vanishing at
    # both the interface and the walls
    xs = np.linspace(-1, 1, 4001)
    w = np.abs(conormal_weight(xs))
    bound = 2.0 * np.minimum(np.abs(xs), 1.0 - np.abs(xs))
    assert np.all(w <= bound + 1e-15)


@pytest.mark.parametrize("times", [knot_times(0.5, 2.5e-3),
                                   np.linspace(0.0, 1.0, 37),
                                   time_grid(0.2, 5e-3)],
                         ids=["default_knots", "uniform", "ramp"])
@pytest.mark.parametrize("halo", [1, 2])
def test_time_d1_on_each_block_window_is_np_gradient(times, halo):
    rng = np.random.default_rng(3)
    F = rng.standard_normal((times.size, 7, 3))
    whole = np.gradient(F, times, axis=0)
    blocks = list(level_blocks(times.size, halo))
    assert len(blocks) >= 3
    for lo, start, stop, hi in blocks:
        got = time_d1(times, F[lo:hi], lo, slice(start, stop))
        assert np.array_equal(got, whole[start:stop])

