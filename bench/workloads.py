"""The three benchmark workloads: inputs from a seed, one pass, its gates.

A pass drives the pipeline only through its public entry points and
checks every operation it attempted. An operation is one
`build_expansion_pieces`, one eps row of `convergence_study`, or one
`simulate_full` at one eps. It fails on SolverAbort (NonContraction is
one), on ValueError, on a non-finite output, or on its workload's gate.
The gates are the acceptance thresholds of the test suite, unchanged.

Every pipeline name is looked up on its module at call time
(`expansion.build_expansion_pieces`, `full_model.simulate_full`), so the
traced run, which wraps those module attributes, runs this same code.

The seed rotates both per-side vectors of the jump data about e1. The
stray field H(u) = -u1 e1 commutes with such a rotation, so the inputs
change while the work and every reported norm stay the same. The
swirl field is fixed and ignores the seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from llx import expansion, full_model
from llx.config import load_config
from llx.errors import SolverAbort
from llx.expansion import StudyConfig
from llx.fields import MagnetizationField, constant_per_side

FAILURES = (SolverAbort, ValueError)

# config overrides per workload; jump runs the default headline study
_OVERRIDES = {
    "jump": [],
    "swirl": ["scenario.data=named", "scenario.field=swirl",
              "study.epsilons=0.1 0.05 0.025"],
    "march": ["study.epsilons=0.025 0.0125 0.00625 0.003125"],
}


@dataclass(frozen=True)
class Inputs:
    """Everything a pass needs, made once per process from the seed."""

    name: str
    data: MagnetizationField
    study: StudyConfig
    epsilons: tuple
    angle: float


@dataclass
class PassResult:
    """One pass: its wall time, operation counts and measured outputs."""

    wall_s: float
    attempted: int
    failed: int
    failures: list
    nx: list
    outputs: dict


def rotation_about_e1(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def prepare(name: str, seed: int) -> Inputs:
    """Load the config and build the initial data for one workload."""
    cfg = load_config(overrides=_OVERRIDES[name])
    angle = 0.0
    data = cfg.data
    if name in ("jump", "march"):
        angle = float(np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi))
        rot = rotation_about_e1(angle)
        data = constant_per_side(rot @ data.value_minus,
                                 rot @ data.value_plus)
    return Inputs(name=name, data=data, study=cfg.study,
                  epsilons=tuple(cfg.epsilons), angle=angle)


def run_pass(inputs: Inputs) -> PassResult:
    """Run the workload once; wall_s spans first call to last check."""
    start = time.perf_counter()
    if inputs.name == "march":
        result = _march_pass(inputs)
    else:
        result = _study_pass(inputs)
    result.wall_s = time.perf_counter() - start
    return result


def _finite(*arrays) -> bool:
    return all(bool(np.all(np.isfinite(a))) for a in arrays)


def _interface_sup(pieces) -> float:
    pair = pieces.profiles
    if not pair.W.size:
        return 0.0
    return max(float(np.max(np.abs(pair.layer_term(side))))
               for side in ("minus", "plus"))


def _study_pass(inputs: Inputs) -> PassResult:
    """build_expansion_pieces, then convergence_study(jobs=1) on it."""
    n_eps = len(inputs.epsilons)
    failures: list = []
    row_bad = [False] * n_eps
    outputs: dict = {}
    nx: list = []
    try:
        pieces = expansion.build_expansion_pieces(inputs.data, inputs.study)
    except FAILURES as exc:
        failures.append(f"build: {type(exc).__name__}: {exc}")
        return PassResult(0.0, 1 + n_eps, 1 + n_eps, failures, nx, outputs)
    if not _finite(pieces.profiles.W, pieces.boundary.U):
        failures.append("build: non-finite layer profile")
    elif inputs.name == "swirl" and _interface_sup(pieces) > 1e-12:
        failures.append(f"build: interface layer sup "
                        f"{_interface_sup(pieces):.3e} > 1e-12")
    build_failed = len(failures)
    try:
        report = expansion.convergence_study(
            inputs.epsilons, inputs.data, inputs.study, jobs=1,
            pieces=pieces)
    except FAILURES as exc:
        failures.append(f"study: {type(exc).__name__}: {exc}")
        return PassResult(0.0, 1 + n_eps, build_failed + n_eps, failures,
                          nx, outputs)

    outputs = {"epsilons": report.epsilons.tolist(),
               "err_l2": report.errors_l2.tolist(),
               "residual_l2": report.residuals.tolist(),
               "eclass_m0": report.eclass_m0.tolist(),
               "eclass_m1": report.eclass_m1.tolist()}
    nx = [int(n) for n in report.grid_sizes]
    for i in range(n_eps):
        if not _finite(*(outputs[k][i] for k in outputs)):
            row_bad[i] = True
            failures.append(f"eps={inputs.epsilons[i]}: non-finite output")
    if inputs.name == "jump":
        scaled = report.residuals / report.epsilons
        for i in range(1, n_eps):
            growth = scaled[i] / scaled[i - 1]
            if not growth <= 1.5:
                row_bad[i] = True
                failures.append(f"eps={inputs.epsilons[i]}: residual/eps "
                                f"growth {growth:.3f} > 1.5")
        slope_ok = 0.40 <= report.slope <= 0.60
    else:
        slope_ok = report.slope >= 0.9
    if not slope_ok:
        # the rate is a property of the whole sweep: every row fails it
        row_bad = [True] * n_eps
        failures.append(f"slope {report.slope:.4f} outside its window")
    return PassResult(0.0, 1 + n_eps, build_failed + sum(row_bad), failures,
                      nx, outputs)


def _march_pass(inputs: Inputs) -> PassResult:
    """simulate_full from the raw jump data, output at every knot."""
    study = inputs.study
    n_knots = int(round(study.T / study.dt_knot))
    knots = np.arange(n_knots + 1) * study.dt_knot
    failures: list = []
    nx: list = []
    u1_l2: list = []
    for eps in inputs.epsilons:
        grid = full_model.make_epsilon_grid(
            eps, cells_per_eps=study.cells_per_eps)
        nx.append(int(grid.n))
        cfg = full_model.FullModelConfig(epsilon=eps, dt=study.dt_full,
                                         T=study.T,
                                         drift_tol=study.drift_tol)
        try:
            traj = full_model.simulate_full(inputs.data(grid.x, "plus"),
                                            grid, cfg, t_eval=knots)
        except FAILURES as exc:
            failures.append(f"eps={eps}: {type(exc).__name__}: {exc}")
            u1_l2.append(float("nan"))
            continue
        u1 = traj.values[..., 0]
        u1_l2.append(float(np.sqrt(np.trapezoid(
            np.trapezoid(u1 * u1, grid.x, axis=1), traj.times))))
        norm_dev = float(np.max(np.abs(
            np.linalg.norm(traj.values, axis=-1) - 1.0)))
        if not _finite(traj.values, u1_l2[-1]):
            failures.append(f"eps={eps}: non-finite state")
        elif not np.allclose(traj.times, knots):
            failures.append(f"eps={eps}: output times left the knots")
        elif not traj.drift_max <= study.drift_tol:
            failures.append(f"eps={eps}: drift {traj.drift_max:.3e} > "
                            f"{study.drift_tol:.1e}")
        elif not norm_dev <= 1e-12:
            failures.append(f"eps={eps}: ||u|-1| {norm_dev:.3e} > 1e-12")
    outputs = {"epsilons": list(inputs.epsilons), "u1_l2": u1_l2}
    return PassResult(0.0, len(inputs.epsilons), len(failures), failures,
                      nx, outputs)


def max_rel_dev(outputs: dict, reference: dict) -> float:
    """Largest relative deviation of any recorded output from reference."""
    worst = 0.0
    for key, ref in reference.items():
        if key == "epsilons":
            continue
        got = np.asarray(outputs[key], dtype=float)
        ref = np.asarray(ref, dtype=float)
        ok = np.isfinite(got)  # failed rows are counted as failures
        dev = np.abs(got[ok] - ref[ok]) / np.abs(ref[ok])
        worst = max(worst, float(np.max(dev, initial=0.0)))
    return worst
