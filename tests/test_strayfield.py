"""Stray field operators: slab formula, layer correction, torus multiplier.

The torus multiplier is pinned two independent ways: closed-form single
modes, and a sparse finite-difference Poisson solve whose solution must
approach the spectral one at second order under grid refinement.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from llx.strayfield import (
    TorusGrid,
    curl_torus,
    div_torus,
    layer_correction,
    reconstruct_from_div_curl,
    stray_field_slab,
    stray_field_torus,
)


def test_slab_formula_pointwise():
    rng = np.random.default_rng(7)
    u = rng.normal(size=(40, 3))
    h = stray_field_slab(u)
    assert np.allclose(h[:, 0], -u[:, 0], atol=1e-14)
    assert np.all(h[:, 1:] == 0.0)


def test_slab_formula_is_linear():
    rng = np.random.default_rng(8)
    u, v = rng.normal(size=(2, 10, 3))
    assert np.allclose(stray_field_slab(u + 2.0 * v),
                       stray_field_slab(u) + 2.0 * stray_field_slab(v))


def test_layer_correction_exact():
    rng = np.random.default_rng(9)
    U = rng.normal(size=(25, 3))
    c = layer_correction(U)
    # the correction kills exactly the component across the slab
    assert np.allclose(c[:, 0], -U[:, 0], atol=1e-14)
    assert np.all(c[:, 1:] == 0.0)
    # matches the slab operator applied to the layer term
    assert np.allclose(c, stray_field_slab(U), atol=1e-14)


# === torus multiplier: closed-form modes ===

def _grid(n):
    return TorusGrid(shape=(n, n, n))


def _mesh(grid):
    ax = grid.axes()
    return np.meshgrid(*ax, indexing="ij")


def test_torus_single_mode_normal():
    # m = sin(x1) e1: field is -m exactly (gradient of cos x1)
    g = _grid(12)
    x1, _, _ = _mesh(g)
    m = np.zeros(g.shape + (3,))
    m[..., 0] = np.sin(x1)
    h = stray_field_torus(m, g)
    assert np.allclose(h, -m, atol=1e-12)


def test_torus_single_mode_tangential():
    # m = sin(x2) e1 is divergence free: no field
    g = _grid(12)
    _, x2, _ = _mesh(g)
    m = np.zeros(g.shape + (3,))
    m[..., 0] = np.sin(x2)
    h = stray_field_torus(m, g)
    assert np.max(np.abs(h)) < 1e-13


def test_torus_oblique_mode():
    # m = sin(x1 + x2) e1: projection onto xi = (1,1,0)/sqrt(2)
    g = _grid(12)
    x1, x2, _ = _mesh(g)
    m = np.zeros(g.shape + (3,))
    m[..., 0] = np.sin(x1 + x2)
    h = stray_field_torus(m, g)
    expect = np.zeros_like(m)
    expect[..., 0] = -0.5 * np.sin(x1 + x2)
    expect[..., 1] = -0.5 * np.sin(x1 + x2)
    assert np.allclose(h, expect, atol=1e-12)


def test_torus_constant_mode_dropped():
    # uniform magnetization produces no field: zero mode pinned to 0
    g = _grid(8)
    m = np.zeros(g.shape + (3,))
    m[..., 1] = 3.0
    h = stray_field_torus(m, g)
    assert np.max(np.abs(h)) < 1e-14


def _bandlimited(rng, grid, kmax=1):
    """Real random field with Fourier support in max|k| <= kmax."""
    raw = rng.normal(size=grid.shape + (3,))
    hat = np.fft.fftn(raw, axes=(0, 1, 2))
    mask = np.ones(grid.shape, dtype=bool)
    for axis, n in enumerate(grid.shape):
        k = np.fft.fftfreq(n, d=1.0 / n)
        shape = [1, 1, 1]
        shape[axis] = n
        mask &= np.abs(k).reshape(shape) <= kmax
    hat *= mask[..., None]
    out = np.real(np.fft.ifftn(hat, axes=(0, 1, 2)))
    return out - out.mean(axis=(0, 1, 2))


def test_field_properties_random():
    # curl-free field, div(H + m) = 0, zero mean, for generic data
    g = _grid(16)
    rng = np.random.default_rng(11)
    m = _bandlimited(rng, g, kmax=3)
    h = stray_field_torus(m, g)
    assert np.max(np.abs(h.mean(axis=(0, 1, 2)))) < 1e-13
    assert np.max(np.abs(curl_torus(h, g))) < 1e-12
    assert np.max(np.abs(div_torus(h + m, g))) < 1e-12


def test_div_curl_roundtrip():
    # mean-zero field is recovered from (div, curl) by the inverse
    # multiplier; this is the identity the reconstruction relies on
    g = _grid(16)
    rng = np.random.default_rng(12)
    u = _bandlimited(rng, g, kmax=3)
    a = div_torus(u, g)
    b = curl_torus(u, g)
    u2 = reconstruct_from_div_curl(a, b, g)
    assert np.max(np.abs(u2 - u)) < 1e-12


def test_roundtrip_repeated_is_deterministic():
    g = _grid(8)
    rng = np.random.default_rng(13)
    m = _bandlimited(rng, g, kmax=2)
    h1 = stray_field_torus(m, g)
    h2 = stray_field_torus(m.copy(), g)
    assert np.array_equal(h1, h2)


def test_torus_matches_slab_for_planar_data():
    # data varying only across the slab, mean removed: the torus field
    # must reduce to the slab formula
    g = _grid(16)
    x1, _, _ = _mesh(g)
    m = np.zeros(g.shape + (3,))
    m[..., 0] = np.sin(x1) + 0.3 * np.cos(2 * x1)
    m[..., 1] = np.cos(x1)
    h = stray_field_torus(m, g)
    assert np.allclose(h, stray_field_slab(m), atol=1e-12)


def test_shape_mismatch_rejected():
    g = _grid(8)
    with pytest.raises(ValueError, match="match grid"):
        stray_field_torus(np.zeros((8, 8, 4, 3)), g)


# === independent oracle: sparse FD Poisson solve ===

def _fd_stray_field(m, grid):
    """Finite-difference magnetostatics: solve lap(phi) = -div m with a
    periodic 7-point stencil (zero mode pinned), return central-difference
    gradient of phi. Independent of the FFT path everywhere."""
    n = grid.shape[0]
    h = grid.lengths[0] / n

    main = -2.0 * np.ones(n)
    off = np.ones(n - 1)
    d1 = sp.diags([off, main, off], [-1, 0, 1], format="lil")
    d1[0, -1] = 1.0
    d1[-1, 0] = 1.0
    d1 = (d1 / h**2).tocsr()
    eye = sp.identity(n, format="csr")
    lap = (sp.kron(sp.kron(d1, eye), eye)
           + sp.kron(sp.kron(eye, d1), eye)
           + sp.kron(sp.kron(eye, eye), d1)).tolil()

    def grad_c(f, axis):
        return (np.roll(f, -1, axis) - np.roll(f, 1, axis)) / (2 * h)

    div_m = sum(grad_c(m[..., j], j) for j in range(3))
    rhs = (-div_m).ravel()
    # pin the constant null space at the first node
    lap[0, :] = 0.0
    lap[0, 0] = 1.0
    rhs[0] = 0.0
    phi = spla.spsolve(lap.tocsr(), rhs).reshape(grid.shape)
    return np.stack([grad_c(phi, j) for j in range(3)], axis=-1)


def test_spectral_field_is_fd_poisson_limit():
    # the FD magnetostatic solve must converge to the spectral field at
    # second order; pins the multiplier against an independent method
    rng = np.random.default_rng(14)
    errs = []
    for n in (12, 24):
        g = _grid(n)
        x1, x2, _ = _mesh(g)
        m = np.zeros(g.shape + (3,))
        m[..., 0] = np.sin(x1) + 0.5 * np.cos(x2)
        m[..., 1] = np.sin(x1 + x2)
        m[..., 2] = 0.7 * np.cos(x1)
        h_spectral = stray_field_torus(m, g)
        h_fd = _fd_stray_field(m, g)
        errs.append(np.max(np.abs(h_fd - h_spectral)))
    ratio = errs[0] / errs[1]
    assert errs[1] < 0.05
    assert 3.0 < ratio < 5.0
