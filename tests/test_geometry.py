"""Mesh construction, level sets, cutoffs, conormal weights."""

from __future__ import annotations

import numpy as np
import pytest

from llx.geometry import (
    LevelSets,
    conormal_weight,
    param_nodes,
    quintic_smoothstep,
)


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


def test_levelsets_psi_phi():
    ls = LevelSets()
    x = np.array([-1.0, -0.5, 0.0, 0.25, 1.0])
    assert np.allclose(ls.phi(x), [0.0, 0.5, 1.0, 0.75, 0.0])


def test_theta_plateau_and_support():
    ls = LevelSets()
    # theta = 1 close to the walls (phi <= 1/8)
    for x in (1.0, 0.9, 0.875, -1.0, -0.95):
        assert ls.theta(x) == pytest.approx(1.0)
    # theta = 0 once phi >= 1/4
    for x in (0.75, 0.5, 0.0, -0.6):
        assert ls.theta(x) == pytest.approx(0.0)
    # strictly between on the ramp
    assert 0.0 < ls.theta(0.8) < 1.0


def test_chi_sigma_plateau_and_support():
    ls = LevelSets()
    assert ls.chi_sigma(0.0) == pytest.approx(1.0)
    for x in (0.35, 0.5, -0.7, 1.0):
        assert ls.chi_sigma(x) == pytest.approx(0.0)
    assert 0.0 < ls.chi_sigma(0.2) < 1.0
    # even in x
    xs = np.linspace(-0.4, 0.4, 41)
    assert np.allclose(ls.chi_sigma(xs), ls.chi_sigma(-xs))


def test_neighborhoods_disjoint():
    ls = LevelSets()
    xs = np.linspace(-1, 1, 2001)
    both = ls.in_v_sigma(xs) & (ls.phi(xs) < ls.v_gamma_width)
    assert not both.any()
    # theta vanishes identically on the interface neighborhood
    assert np.all(ls.theta(xs[ls.in_v_sigma(xs)]) == 0.0)


def test_overlapping_neighborhoods_rejected():
    with pytest.raises(ValueError, match="overlap"):
        LevelSets(v_sigma_halfwidth=0.8, v_gamma_width=0.3)


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
