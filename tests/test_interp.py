"""Tests for the spline sampling primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from llx.interp import (contract_columns, natural_spline_coeffs, spline_eval,
                        x_resample)


def _graded_knots():
    rng = np.random.default_rng(3)
    h = 0.05 + rng.random(40)
    return np.concatenate([[0.0], np.cumsum(h)])


def test_spline_matches_reference_natural_spline():
    x = _graded_knots()
    rng = np.random.default_rng(7)
    v = rng.normal(size=(x.size, 5, 3))
    m = natural_spline_coeffs(x, v)
    q = rng.uniform(x[0], x[-1], size=7)
    got = spline_eval(x, v, m, q)
    want = CubicSpline(x, v, bc_type="natural")(q)
    assert got.shape == (7, 5, 3)
    np.testing.assert_allclose(got, want, atol=1e-12, rtol=1e-12)


# fixed before any run: the natural-spline system is diagonally dominant
# for any knot spacing, and cell widths within a factor 20 keep rounding
# far below this relative bound
SPLINE_RTOL = 1e-10


@settings(max_examples=60, deadline=None)
@given(nk=st.integers(3, 30), batch=st.integers(1, 4),
       nq=st.integers(1, 25), seed=st.integers(0, 2**32 - 1))
def test_spline_eval_matches_scipy_natural_on_random_knots(nk, batch, nq,
                                                           seed):
    rng = np.random.default_rng(seed)
    x = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, nk - 1))])
    x += rng.uniform(-5.0, 5.0)
    v = rng.normal(size=(nk, batch, 3))
    q = rng.uniform(x[0], x[-1], size=nq)
    q[rng.random(nq) < 0.2] = x[rng.integers(0, nk)]
    m = natural_spline_coeffs(x, v)
    got = spline_eval(x, v, m, q)
    want = CubicSpline(x, v, bc_type="natural")(q)
    scale = max(1.0, float(np.max(np.abs(v))))
    np.testing.assert_allclose(got, want, rtol=0.0,
                               atol=SPLINE_RTOL * scale)
    # any subset of the queries gives the same bits as the full batch
    keep = rng.random(nq) < 0.5
    assert np.array_equal(spline_eval(x, v, m, q[keep]), got[keep])


def test_spline_reproduces_linear_data():
    x = _graded_knots()
    v = np.stack([2.0 * x - 1.0, -0.5 * x + 3.0], axis=1)
    m = natural_spline_coeffs(x, v)
    q = np.array([0.3 * x[-1], 0.77 * x[-1]])
    got = spline_eval(x, v, m, q)
    want = np.stack([2.0 * q - 1.0, -0.5 * q + 3.0], axis=1)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_spline_eval_reproduces_cubics_exactly():
    # given the exact second derivatives, each piece is the cubic itself
    x = _graded_knots()
    coef = np.array([[0.4, -1.2, 0.3, 0.05], [2.0, 0.0, -0.7, 0.01]])
    v = np.stack([np.polyval(c, x) for c in coef], axis=1)
    m = np.stack([np.polyval(np.polyder(c, 2), x) for c in coef], axis=1)
    q = np.linspace(x[0], x[-1], 23)
    want = np.stack([np.polyval(c, q) for c in coef], axis=1)
    np.testing.assert_allclose(spline_eval(x, v, m, q), want,
                               atol=1e-12 * np.max(np.abs(want)))


def test_spline_zero_data_stays_zero():
    x = _graded_knots()
    v = np.zeros((x.size, 4))
    m = natural_spline_coeffs(x, v)
    q = np.linspace(x[0], x[-1], 9)
    assert np.max(np.abs(spline_eval(x, v, m, q))) == 0.0


def test_spline_interpolates_knots():
    x = _graded_knots()
    rng = np.random.default_rng(11)
    v = rng.normal(size=(x.size, 6))
    m = natural_spline_coeffs(x, v)
    np.testing.assert_allclose(spline_eval(x, v, m, x.copy()), v,
                               atol=1e-12)


def test_spline_rejects_out_of_range():
    x = _graded_knots()
    v = np.zeros((x.size, 2))
    m = natural_spline_coeffs(x, v)
    with pytest.raises(ValueError, match="leave"):
        spline_eval(x, v, m, np.array([x[0], x[-1] + 1.0]))
    with pytest.raises(ValueError, match="leave"):
        spline_eval(x, v, m, np.array([x[0] - 1.0]))


def test_spline_validates_inputs():
    x = _graded_knots()
    with pytest.raises(ValueError, match="rows"):
        natural_spline_coeffs(x, np.zeros((3, 2)))
    with pytest.raises(ValueError, match="increasing"):
        natural_spline_coeffs(np.array([0.0, 1.0, 1.0, 2.0]),
                              np.zeros((4, 1)))
    with pytest.raises(ValueError, match="at least 3"):
        natural_spline_coeffs(np.array([0.0, 1.0]), np.zeros((2, 1)))
    v = np.zeros((x.size, 2))
    with pytest.raises(ValueError, match="shape mismatch"):
        spline_eval(x, v, v[:, :1], x[:3])
    with pytest.raises(ValueError, match="shape mismatch"):
        spline_eval(x, v[1:], v[1:], x[:3])


def test_contract_columns_is_the_weighted_sum_in_any_batch():
    rng = np.random.default_rng(5)
    weights = rng.normal(size=(7, 4))
    values = rng.normal(size=(6, 7, 4, 3))
    got = contract_columns(weights, values)
    want = np.einsum("qi,bqic->bqc", weights, values)
    np.testing.assert_allclose(got, want, atol=1e-14)
    # one batch entry alone gives the same bits as inside the batch
    assert np.array_equal(contract_columns(weights, values[2:3])[0], got[2])
    # a length-1 node axis broadcasts over the nodes
    shared = contract_columns(weights, values[:, :1])
    assert shared.shape == (6, 7, 3)
    with pytest.raises(ValueError, match="shape mismatch"):
        contract_columns(weights, values[..., :3, :])


def test_x_resample_matches_reference():
    x = np.linspace(-1.0, 1.0, 17)
    rng = np.random.default_rng(13)
    v = rng.normal(size=(17, 4, 3))
    xq = np.linspace(-1.0, 1.0, 29)
    got = x_resample(x, v, xq)
    want = CubicSpline(x, v, bc_type="natural")(xq)
    assert got.shape == (29, 4, 3)
    np.testing.assert_allclose(got, want, atol=1e-14)


def test_x_resample_identity_at_source_nodes():
    x = np.linspace(-1.0, 1.0, 17)
    rng = np.random.default_rng(17)
    v = rng.normal(size=(17, 3))
    np.testing.assert_allclose(x_resample(x, v, x), v, atol=1e-13)
    with pytest.raises(ValueError, match="source nodes"):
        x_resample(x, v[:-1], x)


def test_x_resample_does_not_extrapolate():
    # the end nodes are inside the span; a query past either end, by
    # more than 1e-12 of the span, is refused rather than extrapolated
    x = np.linspace(-1.0, 1.0, 17)
    v = np.random.default_rng(19).normal(size=(17, 2))
    np.testing.assert_allclose(x_resample(x, v, x[[0, -1]]), v[[0, -1]],
                               atol=1e-13)
    for q in (-1.0 - 1e-9, 1.0 + 1e-9):
        with pytest.raises(ValueError, match="leave"):
            x_resample(x, v, np.array([0.0, q]))
