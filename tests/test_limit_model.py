"""Limit flow: rhs identities, closed-form trajectory, integrator accuracy.

The closed form used as the oracle: on the unit sphere u1 obeys
du1/dt = u1(u1^2 - 1), so with v0 = u1(0)^2 and rho0^2 = u2(0)^2 + u3(0)^2

    u1(t)^2 = v0 e^{-2t} / (rho0^2 + v0 e^{-2t}),

the transverse part has length rho0 / sqrt(rho0^2 + v0 e^{-2t}) and
rotates about e1 with phase rate u1(t), integrating to asinh of w(t) =
sqrt(v0) e^{-t} / rho0. Written with rho0^2 rather than 1 - v0 it does
not cancel near the poles. Verified below against scipy's adaptive
integrator before being used to pin the RK4 oracle march and
simulate_limit, which solves the flow in closed form in its own way.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from llx.fields import constant_per_side, named_field
from llx.full_model import make_epsilon_grid
from llx.geometry import knot_times
from llx.limit_model import F_slab, renormalize, rhs_limit, simulate_limit
from llx.strayfield import stray_field_slab

from manufactured import (march_rk4, reaction_term, step_midpoint, step_rk4,
                          whole_simulate_limit)


def closed_form(u0, t):
    """Exact solution for unit initial data (u1, r cos p, r sin p), r > 0."""
    u1_0 = u0[0]
    v0 = u1_0**2
    rho0_sq = u0[1]**2 + u0[2]**2
    if rho0_sq == 0.0:
        raise ValueError("closed form needs u(0) off the poles")
    ve = v0 * np.exp(-2.0 * t)
    u1 = np.sign(u1_0) * np.sqrt(ve / (rho0_sq + ve))
    r = np.sqrt(rho0_sq / (rho0_sq + ve))
    w0 = np.sqrt(v0 / rho0_sq)
    phase0 = np.arctan2(u0[2], u0[1])
    phase = phase0 + np.sign(u1_0) * (np.arcsinh(w0)
                                      - np.arcsinh(w0 * np.exp(-t)))
    return np.array([u1, r * np.cos(phase), r * np.sin(phase)])


def test_rhs_worked_example():
    # u = (0.6, 0.8, 0), H = (-0.6, 0, 0): u x H = (0, 0, 0.48),
    # u x (u x H) = (0.384, -0.288, 0)
    out = rhs_limit(np.array([0.6, 0.8, 0.0]))
    assert np.allclose(out, [-0.384, 0.288, 0.48], atol=1e-15)


def test_renormalize_through_given_norms():
    # the full model projects each step through the norms its drift
    # guard already took: the same bits, the same zero refusal
    rng = np.random.default_rng(23)
    u = rng.normal(size=(50, 3))
    norms = np.linalg.norm(u, axis=-1)
    assert np.array_equal(renormalize(u, norms), renormalize(u))
    u[7] = 0.0
    for taken in (None, np.linalg.norm(u, axis=-1)):
        with pytest.raises(ValueError, match="zero magnetization"):
            renormalize(u, taken)


def test_rhs_limit_first_component():
    # on the sphere the normal component obeys du1/dt = u1 (u1^2 - 1)
    rng = np.random.default_rng(21)
    u = renormalize(rng.normal(size=(200, 3)))
    f = rhs_limit(u)
    assert np.allclose(f[:, 0], u[:, 0] * (u[:, 0]**2 - 1.0), atol=1e-13)


def test_rhs_tangency_bulk():
    # f(u) . u = 0 for any u, sphere or not: both cross products are
    # orthogonal to u; checked over a large random sample
    rng = np.random.default_rng(22)
    u = renormalize(rng.normal(size=(10_000, 3)))
    f = rhs_limit(u)
    assert np.max(np.abs(np.sum(f * u, axis=-1))) < 1e-14
    # off the sphere the identity still holds, roundoff scales as |u|^4
    v = u * rng.uniform(0.2, 2.0, size=(10_000, 1))
    fv = rhs_limit(v)
    scale = np.linalg.norm(v, axis=-1) ** 4 + 1.0
    assert np.max(np.abs(np.sum(fv * v, axis=-1)) / scale) < 1e-14


def test_closed_form_matches_adaptive_integrator():
    # independent verification of the oracle before it pins anything
    u0 = np.array([0.6, 0.8, 0.0])

    def f(_, y):
        return rhs_limit(y)

    sol = solve_ivp(f, (0.0, 2.0), u0, rtol=1e-12, atol=1e-14,
                    dense_output=True)
    for t in (0.25, 0.5, 1.0, 2.0):
        assert np.allclose(sol.sol(t), closed_form(u0, t), atol=1e-9)


def test_closed_form_with_phase():
    u0 = renormalize(np.array([-0.4, 0.5, 0.7]))

    def f(_, y):
        return rhs_limit(y)

    sol = solve_ivp(f, (0.0, 1.5), u0, rtol=1e-12, atol=1e-14,
                    dense_output=True)
    assert np.allclose(sol.sol(1.5), closed_form(u0, 1.5), atol=1e-9)


def test_rk4_hits_closed_form():
    # fixed-step marcher against the oracle at the documented tolerance
    u0 = np.array([0.6, 0.8, 0.0])
    _, values = march_rk4(u0, T=1.0, dt=1e-3)
    assert np.max(np.abs(values[-1] - closed_form(u0, 1.0))) < 1e-6
    # the headline number: u1 decays from 0.6 to about 0.266
    assert values[-1][0] == pytest.approx(closed_form(u0, 1.0)[0],
                                          abs=1e-9)


def _hard_unit_vectors(n: int, seed: int) -> np.ndarray:
    """n random unit vectors, the poles, near-pole and u1 = 0 vectors."""
    rng = np.random.default_rng(seed)
    near = 1.0 - 1e-12
    side = np.sqrt(1.0 - near * near)
    special = np.array([
        [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
        [near, side, 0.0], [-near, 0.0, side],
        [near, -0.6 * side, 0.8 * side],
        [0.0, 1.0, 0.0], [0.0, -0.6, 0.8], [0.0, 0.0, -1.0]])
    return np.concatenate([renormalize(rng.normal(size=(n, 3))),
                           renormalize(special)])


def test_closed_form_matches_rk4_march():
    # the exact solution against the independent RK4 oracle, fine steps
    u0 = _hard_unit_vectors(1000, 25)
    pts = [0.1, 0.25, 0.5, 0.75]
    times, marched = march_rk4(u0, T=1.0, dt=1e-3, t_eval=pts)
    exact = simulate_limit(u0, times)
    assert np.max(np.abs(exact - marched)) <= 1e-13


def test_closed_form_matches_oracle_formula():
    # the same solution written the test's way (asinh, phase angle);
    # the oracle's phase is undefined at the exact poles only
    u0 = _hard_unit_vectors(200, 26)
    u0 = u0[u0[:, 1]**2 + u0[:, 2]**2 > 0.0]
    times = [0.0, 0.2, 0.5, 1.0]
    values = simulate_limit(u0, times)
    for k, t in enumerate(times[1:], 1):
        want = np.stack([closed_form(u, t) for u in u0])
        assert np.max(np.abs(values[k] - want)) <= 1e-13


def test_non_unit_input_projected_after_t0():
    # values[0] is u0 as given; every later time lies on the sphere
    u0 = np.array([[1.2, 1.6, 0.0], [0.0, 0.0, -3.0], [-0.5, 0.1, 0.2]])
    times = [0.0, 0.25, 0.5]
    values = simulate_limit(u0, times)
    assert np.array_equal(values[0], u0)
    assert np.allclose(np.linalg.norm(values[1:], axis=-1), 1.0,
                       atol=1e-15)
    unit = simulate_limit(renormalize(u0), times)
    assert np.allclose(values[1:], unit[1:], rtol=0.0, atol=1e-15)


def test_zero_vector_rejected():
    with pytest.raises(ValueError, match="zero"):
        simulate_limit(np.array([[0.6, 0.8, 0.0], [0.0, 0.0, 0.0]]),
                       [0.0, 1.0])


def test_rk4_preserves_norm():
    rng = np.random.default_rng(23)
    u = renormalize(rng.normal(size=(50, 3)))
    for _ in range(20):
        u = renormalize(step_rk4(u, 0.05))
    assert np.allclose(np.linalg.norm(u, axis=-1), 1.0, atol=1e-14)


def test_rk4_unprojected_drift_is_tiny():
    # norm drift of the raw scheme is O(dt^4) per unit time
    u = np.array([0.6, 0.8, 0.0])
    for _ in range(100):
        u = step_rk4(u, 1e-2)
    assert abs(np.linalg.norm(u) - 1.0) < 1e-9


def test_midpoint_order_two():
    u0 = np.array([0.6, 0.8, 0.0])
    errs = []
    for dt in (0.02, 0.01, 0.005):
        n = round(0.4 / dt)
        u = u0.copy()
        for _ in range(n):
            u = step_midpoint(u, dt)
        errs.append(np.max(np.abs(u - closed_form(u0, 0.4))))
    rate = np.log2(errs[0] / errs[1])
    assert rate > 1.9
    rate = np.log2(errs[1] / errs[2])
    assert rate > 1.9


def test_vectorized_over_nodes():
    # nodes are independent: a batch run equals per-node runs
    rng = np.random.default_rng(24)
    u0 = renormalize(rng.normal(size=(6, 3)))
    batch = simulate_limit(u0, [0.0, 0.3])
    for j in range(6):
        single = simulate_limit(u0[j], [0.0, 0.3])
        assert np.array_equal(batch[-1][j], single[-1])


@pytest.mark.parametrize("data", [
    constant_per_side((0.6, 0.8, 0.0), (-0.6, 0.8, 0.0)),
    named_field("swirl")], ids=["jump", "swirl"])
@pytest.mark.parametrize("eps", [0.1, 0.0125])
def test_one_solve_per_distinct_vector_is_bitwise(data, eps):
    # each eps row's limit trajectories, the interface node twice: jump
    # holds two distinct vectors, swirl one per node
    x = make_epsilon_grid(eps, cells_per_eps=16).x
    i0 = int(np.searchsorted(x, 0.0))
    u0 = np.concatenate([data(x[:i0 + 1], "minus"), data(x[i0:], "plus")])
    times = knot_times(0.5, 2.5e-3)
    assert simulate_limit(u0, times).tobytes() \
        == whole_simulate_limit(u0, times).tobytes()


def test_repeated_vectors_keep_their_signed_zeros():
    # rows equal under == but not to the bit are solved apart: the pole
    # e1 keeps the sign of its zero u2 in u2(t); exact repeats share a
    # solve
    rng = np.random.default_rng(25)
    u0 = rng.normal(size=(4, 10, 3))
    u0[1] = u0[0]
    u0[2, ::2] = u0[2, 1::2]
    u0[3, :5] = [1.0, 0.0, 0.0]
    u0[3, 5:] = [1.0, -0.0, 0.0]
    times = [0.0, 0.1, 0.35]
    assert simulate_limit(u0, times).tobytes() \
        == whole_simulate_limit(u0, times).tobytes()


def test_each_time_solved_on_its_own():
    # a time gives the same bits on any grid holding it
    u0 = np.array([0.6, 0.8, 0.0])
    values = simulate_limit(u0, [0.0, 0.1, 0.25, 0.333, 0.9, 1.0])
    direct = simulate_limit(u0, [0.0, 0.333])
    assert np.array_equal(values[3], direct[-1])
    assert np.allclose(direct[-1], closed_form(u0, 0.333), atol=1e-9)


def test_bad_steps_rejected():
    u0 = np.array([0.0, 1.0, 0.0])
    for times in ([0.1, 0.2], [0.0, 0.2, 0.1], [0.0, 0.1, 0.1]):
        with pytest.raises(ValueError, match="start at 0"):
            simulate_limit(u0, times)


def test_determinism():
    u0 = np.array([0.6, 0.8, 0.0])
    a = simulate_limit(u0, [0.0, 0.35, 0.7])
    b = simulate_limit(u0, [0.0, 0.35, 0.7])
    assert np.array_equal(a, b)


def test_equilibria():
    # u1 = 0 circle and u1 = +-1 poles are fixed points
    for u in ([0.0, 1.0, 0.0], [0.0, 0.6, -0.8], [1.0, 0.0, 0.0],
              [-1.0, 0.0, 0.0]):
        assert np.max(np.abs(rhs_limit(np.array(u)))) < 1e-15


_MODERATE = st.floats(-1e3, 1e3, allow_nan=False, width=64) \
    | st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324])


@settings(max_examples=300, deadline=None)
@given(u=arrays(np.float64, (4, 3), elements=_MODERATE),
       V=arrays(np.float64, (4, 3), elements=_MODERATE))
def test_slab_reaction_equals_the_generic_one(u, V):
    # the written-out F with H = (-u1, 0, 0) rounds every term as the
    # textbook F with that field does; only a zero's sign may differ,
    # which == ignores
    assert np.all(F_slab(u, V) == reaction_term(u, V, stray_field_slab(u)))
