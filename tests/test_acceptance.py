"""Acceptance gate: ten quantitative checks at their stated tolerances.

Each test prints one line `criterion NN: PASS/FAIL - <measured numbers>`
and asserts the same condition, so the suite result and the printed
lines always agree. The expensive studies come from the shared session
fixtures in conftest.py (headline jump data and continuous swirl data).
"""

from __future__ import annotations

import os

import numpy as np

from llx.cli import _bandlimited, main as cli_main
from llx.fields import named_field
from llx.full_model import (
    FullModelConfig,
    Grid1D,
    make_epsilon_grid,
    simulate_full,
)
from llx.geometry import make_profile_grid
from llx.internal_layer import picard_profiles
from llx.limit_model import renormalize, rhs_limit, simulate_limit
from llx.strayfield import (
    TorusGrid,
    curl_torus,
    div_torus,
    layer_correction,
    reconstruct_from_div_curl,
    stray_field_slab,
    stray_field_torus,
)

from manufactured import full_model_solution, transmission_march_error

SUMMANDS = ("conormal", "normal_conormal", "sup", "sup_conormal",
            "sup_normal")


def _check(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_headline_rate(jump_study):
    rep = jump_study
    _check(1, 0.40 <= rep.slope <= 0.60,
           f"jump-data L2 error slope {rep.slope:.4f} in [0.40, 0.60], "
           f"errors {np.array2string(rep.errors_l2, precision=4)} over "
           f"eps {np.array2string(rep.epsilons)}")


def test_criterion_02_residual_prefactor_bounded(jump_study):
    # the model residual of the assembled field is O(eps): the scaled
    # residual may decay but must not grow by more than 1.5x per halving
    scaled = jump_study.residuals / jump_study.epsilons
    growth = scaled[1:] / scaled[:-1]
    _check(2, bool(np.all(growth <= 1.5)),
           f"residual_l2/eps growth per eps halving "
           f"{np.array2string(growth, precision=3)} all <= 1.5 "
           f"(levels {np.array2string(scaled, precision=4)})")


def test_criterion_03_continuous_data_degenerates(swirl_pieces,
                                                  swirl_study):
    pair = swirl_pieces.profiles
    if pair.W.size:
        sup = max(float(np.max(np.abs(pair.layer_term(s))))
                  for s in ("minus", "plus"))
    else:
        sup = 0.0
    ok = sup <= 1e-12 and swirl_study.slope >= 0.9
    _check(3, ok,
           f"continuous data: sup|interface profile| {sup:.3e} <= 1e-12, "
           f"error slope {swirl_study.slope:.3f} >= 0.9")


def test_criterion_04_limit_flow_closed_form():
    # on the unit sphere the first component obeys a logistic law in
    # v = u1^2: v(t) = v0 e^{-2t} / (1 - v0 + v0 e^{-2t})
    u0 = np.array([0.6, 0.8, 0.0])
    values = simulate_limit(u0, [0.0, 1.0])
    v0 = u0[0] ** 2
    expect = v0 * np.exp(-2.0) / (1.0 - v0 + v0 * np.exp(-2.0))
    got = float(values[-1, 0] ** 2)
    err = abs(got - expect)
    _check(4, err <= 1e-6,
           f"u1(1)^2 = {got:.9f} vs closed form {expect:.9f}, "
           f"|diff| {err:.2e} <= 1e-6")


def test_criterion_05_stray_field_identities():
    rng = np.random.default_rng(11)
    grid = TorusGrid(shape=(12, 8, 10),
                     lengths=(2.0 * np.pi, np.pi, 4.0 * np.pi))
    m = _bandlimited(rng, grid)
    H = stray_field_torus(m, grid)
    curl_max = float(np.max(np.abs(curl_torus(H, grid))))
    back = reconstruct_from_div_curl(div_torus(H, grid),
                                     curl_torus(H, grid), grid)
    round_trip = float(np.max(np.abs(back - H)))

    u = rng.normal(size=(256, 3))
    expect = np.zeros_like(u)
    expect[:, 0] = -u[:, 0]
    slab_defect = float(np.max(np.abs(stray_field_slab(u) - expect)))
    n = np.array([1.0, 0.0, 0.0])
    layer_defect = float(np.max(np.abs(
        layer_correction(u) + u[:, :1] * n)))

    ok = (round_trip <= 1e-12 and curl_max <= 1e-12
          and slab_defect <= 1e-14 and layer_defect <= 1e-14)
    _check(5, ok,
           f"round-trip {round_trip:.2e} <= 1e-12, curl {curl_max:.2e} "
           f"<= 1e-12, slab {slab_defect:.2e} <= 1e-14, "
           f"layer {layer_defect:.2e} <= 1e-14")


def test_criterion_06_transmission_profiles(jump_pieces):
    pair = jump_pieces.profiles
    value_gap, deriv_gap = pair.transmission_defect()
    tail = pair.tail_max()
    ratios = pair.contraction_ratios()
    worst_ratio = max(ratios) if ratios else 0.0
    half = picard_profiles(jump_pieces.ext,
                           make_profile_grid(Y=7.5, cells=128), tol=1e-8,
                           max_iter=40)
    moved = float(np.max(np.abs(pair.junction_trace()
                                - half.junction_trace())))
    ok = (value_gap <= 1e-8 and deriv_gap <= 1e-6 and tail <= 1e-6
          and moved <= 1e-4 and worst_ratio < 1.0)
    _check(6,
           ok,
           f"junction gaps ({value_gap:.1e}, {deriv_gap:.2e}) <= "
           f"(1e-8, 1e-6), tail at |y|={pair.Y:g} {tail:.2e} <= 1e-6, "
           f"box halving moved trace {moved:.2e} <= 1e-4, "
           f"worst sweep ratio {worst_ratio:.3f} < 1")


def _full_error(u_eval, source_for, dt, cells, T=0.4):
    g = Grid1D(x=np.linspace(-1.0, 1.0, cells + 1))
    cfg = FullModelConfig(epsilon=0.3, dt=dt, T=T, drift_tol=1e-3)
    traj = simulate_full(u_eval(0.0, g.x), g, cfg, source=source_for(0.3))
    return float(np.max(np.abs(traj.values[-1] - u_eval(T, g.x))))


def test_criterion_07_discretization_orders():
    u_eval, source_for = full_model_solution()
    full_errs = [_full_error(u_eval, source_for, dt, cells)
                 for dt, cells in ((0.02, 100), (0.01, 200), (0.005, 400))]
    full_rates = np.log2(np.array(full_errs[:-1]) / np.array(full_errs[1:]))
    march_errs = [transmission_march_error(n, dt)
                  for n, dt in ((24, 0.05), (48, 0.025), (96, 0.0125))]
    march_rates = np.log2(np.array(march_errs[:-1])
                          / np.array(march_errs[1:]))
    ok = full_rates.min() >= 1.8 and march_rates.min() >= 1.8
    _check(7, ok,
           f"manufactured-solution rates: full model "
           f"{np.array2string(full_rates, precision=2)}, transmission "
           f"march {np.array2string(march_rates, precision=2)}, "
           f"all >= 1.8")


def test_criterion_08_sphere_invariance():
    rng = np.random.default_rng(2024)
    u = renormalize(rng.normal(size=(10000, 3)))
    tangency = float(np.max(np.abs(np.sum(rhs_limit(u) * u, axis=-1))))

    grid = make_epsilon_grid(0.1, cells_per_eps=8)
    cfg = FullModelConfig(epsilon=0.1, dt=1e-4, T=5e-3, drift_tol=1e-3)
    traj = simulate_full(named_field("swirl")(grid.x), grid, cfg)
    drift = traj.drift_max

    ok = tangency <= 1e-14 and drift <= 1e-6
    _check(8, ok,
           f"max |rhs . u| on 10^4 sphere samples {tangency:.2e} <= "
           f"1e-14, pre-projection norm drift at dt=1e-4 {drift:.2e} "
           f"<= 1e-6")


def test_criterion_09_eclass_uniformity(jump_study):
    # every one of the five norm summands must stay within a factor 3
    # across eps in {0.1, 0.05, 0.025}, at both orders m=0 and m=1
    spreads = {}
    for m_label, records in (("m0", jump_study.records_m0),
                             ("m1", jump_study.records_m1)):
        for name in SUMMANDS:
            vals = np.array([getattr(r, name) for r in records[:3]])
            spreads[f"{m_label}.{name}"] = float(vals.max() / vals.min())
    worst_key = max(spreads, key=spreads.get)
    worst = spreads[worst_key]
    _check(9, worst < 3.0,
           f"all 10 summand spreads < 3 across eps "
           f"{np.array2string(jump_study.epsilons[:3])}; "
           f"largest {worst_key} = {worst:.3f}")


def test_criterion_10_cli_determinism(tmp_path):
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(
        "[study]\n"
        "epsilons = 0.1 0.07 0.05\n"
        "T = 0.02\n"
        "dt_knot = 2.5e-3\n"
        "dt_full = 1e-3\n"
        "profile_cells = 64\n"
        "wall_cells = 64\n"
        "box_y = 10.0\n"
        "box_z = 10.0\n",
        encoding="utf-8")
    outs = []
    for i, jobs in enumerate((None, None, 4)):
        out = str(tmp_path / f"run{i}")
        argv = ["converge", "--config", str(cfg_path), "--out", out]
        if jobs:
            argv += ["--jobs", str(jobs)]
        assert cli_main(argv) == 0
        with open(os.path.join(out, "report.csv"), "rb") as fh:
            outs.append(fh.read())
    ok = outs[0] == outs[1] == outs[2]
    _check(10, ok,
           f"report.csv byte-identical across two serial runs and one "
           f"--jobs 4 run ({len(outs[0])} bytes)")
