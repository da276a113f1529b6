"""Console driver: every pipeline stage behind one `llx` entry point.

Subcommands:
- limit: the discontinuous limit flow on the parameter mesh
- full: the exchange model at one eps on its layer-refined grid
- profiles: interface and wall layer construction with diagnostics
- ansatz: the assembled two-scale field and its model residual
- converge: the eps sweep (report.csv, optional plot.svg)
- check-stray: spectral stray-field identities at machine precision

Every command reads the same plain-text config (all keys optional, see
config.default_config_text), honors --tol-override patches, and writes
CSV artifacts whose bodies are byte-reproducible: reruns with the same
effective configuration diff clean, including parallel `converge`.

Exit codes: 0 success, 2 configuration or validation error, 3 solver
abort (non-contraction, step-rejection exhaustion). Failures print one
line `error: <reason>` on stderr.

Output directory precedence: --out flag, then the LLX_OUT environment
variable, then [run] out from the config.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .config import RunConfig, config_hash, default_config_text, load_config
from .errors import ConfigError, SolverAbort
from .expansion import (ExpansionAnsatz, build_expansion_pieces,
                        convergence_study)
from .full_model import (FullModelConfig, ResidualWalk, make_epsilon_grid,
                         simulate_full)
from .geometry import knot_times, param_nodes
from .limit_model import simulate_limit
from .reporting import (fmt, render_loglog_svg, write_convergence_csv,
                        write_csv, write_text)
from .strayfield import (TorusGrid, curl_torus, div_torus, layer_correction,
                         reconstruct_from_div_curl, stray_field_slab,
                         stray_field_torus)

OUT_ENV = "LLX_OUT"


def _meta(cfg: RunConfig, command: str, **extra) -> dict:
    out = {
        "version": __version__,
        "config_hash": config_hash(cfg),
        "command": command,
        "scenario": cfg.scenario,
    }
    out.update((k, v if isinstance(v, str) else fmt(v))
               for k, v in extra.items())
    return out


def cmd_limit(cfg: RunConfig, args, out_dir: str) -> int:
    x = param_nodes(cfg.study.param_cells)
    times = knot_times(cfg.study.T, cfg.study.dt_knot)
    u0 = np.stack([cfg.data(x, "minus"), cfg.data(x, "plus")])
    values = simulate_limit(u0, times)
    rows = [
        [t, xi] + list(values[k, 0, i]) + list(values[k, 1, i])
        for k, t in enumerate(times)
        for i, xi in enumerate(x)
    ]
    path = os.path.join(out_dir, "limit.csv")
    write_csv(path,
              ("t", "x", "u1_minus", "u2_minus", "u3_minus",
               "u1_plus", "u2_plus", "u3_plus"),
              rows,
              _meta(cfg, "limit", T=cfg.study.T,
                    param_cells=cfg.study.param_cells))
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def cmd_full(cfg: RunConfig, args, out_dir: str) -> int:
    grid = make_epsilon_grid(cfg.epsilon,
                             cells_per_eps=cfg.study.cells_per_eps)
    u0 = cfg.data(grid.x, "plus")
    fcfg = FullModelConfig(epsilon=cfg.epsilon, dt=cfg.study.dt_full,
                           T=cfg.study.T, drift_tol=cfg.study.drift_tol)
    traj = simulate_full(u0, grid, fcfg)
    rows = [[xi] + list(traj.values[-1, i]) for i, xi in enumerate(grid.x)]
    path = os.path.join(out_dir, "full.csv")
    write_csv(path, ("x", "u1", "u2", "u3"), rows,
              _meta(cfg, "full", epsilon=cfg.epsilon, T=cfg.study.T,
                    dt=cfg.study.dt_full, nx=grid.n,
                    drift_max=traj.drift_max,
                    steps_taken=traj.steps_taken,
                    halvings_used=traj.halvings_used))
    print(f"wrote {path} (final slice at T={cfg.study.T:g}, "
          f"drift {traj.drift_max:.3e})")
    return 0


def cmd_profiles(cfg: RunConfig, args, out_dir: str) -> int:
    pieces = build_expansion_pieces(cfg.data, cfg.study)
    pair = pieces.profiles
    times = pair.times
    trace = pair.junction_trace()
    rows = [[t] + list(trace[k]) + list(pair.delta[k])
            for k, t in enumerate(times)]
    value_gap, deriv_gap = pair.transmission_defect()
    path = os.path.join(out_dir, "profiles.csv")
    write_csv(path, ("t", "w1", "w2", "w3", "delta1", "delta2", "delta3"),
              rows,
              _meta(cfg, "profiles", T_used=pieces.T_used,
                    tail_max=pair.tail_max(),
                    junction_value_gap=value_gap,
                    junction_deriv_gap=deriv_gap,
                    support_defect=pieces.ext.support_defect(),
                    picard_iterations_max=int(pair.iterations),
                    wall_tail_max=pieces.boundary.tail_max(),
                    wall_flux_defect=pieces.boundary.neumann_defect()))
    print(f"wrote {path} (junction trace over {times.size} knots)")
    return 0


def cmd_ansatz(cfg: RunConfig, args, out_dir: str) -> int:
    pieces = build_expansion_pieces(cfg.data, cfg.study)
    grid = pieces.grid(cfg.epsilon, cfg.study.cells_per_eps)
    times = knot_times(pieces.T_used, cfg.study.dt_knot)
    walk = ResidualWalk(times, grid, cfg.epsilon)
    windows = ExpansionAnsatz(pieces, cfg.epsilon).sample_windows(
        times, grid.x, 1)
    for lo, start, stop, _, vals, _ in windows:
        walk.add(vals, lo, start, stop)
    report = walk.report()
    # the last window ends at the last knot
    rows = [[xi] + list(vals[-1, i]) for i, xi in enumerate(grid.x)]
    path = os.path.join(out_dir, "ansatz.csv")
    write_csv(path, ("x", "a1", "a2", "a3"), rows,
              _meta(cfg, "ansatz", epsilon=cfg.epsilon,
                    T_used=pieces.T_used, nx=grid.n,
                    residual_l2=report.l2_residual,
                    max_residual=report.max_residual,
                    neumann_defect=report.neumann_defect,
                    norm_defect=report.norm_defect))
    print(f"wrote {path} (residual_l2 {report.l2_residual:.6g})")
    return 0


def cmd_converge(cfg: RunConfig, args, out_dir: str) -> int:
    report = convergence_study(cfg.epsilons, cfg.data, cfg.study,
                               jobs=args.jobs)
    path = os.path.join(out_dir, "report.csv")
    write_convergence_csv(
        path, report,
        _meta(cfg, "converge", slope=report.slope, T_used=report.T_used,
              grid_sizes=" ".join(str(int(n)) for n in report.grid_sizes),
              param_cells=cfg.study.param_cells,
              profile_cells=cfg.study.profile_cells,
              wall_cells=cfg.study.wall_cells,
              cells_per_eps=cfg.study.cells_per_eps))
    print(f"wrote {path} ({report.epsilons.size} eps, "
          f"slope {report.slope:.4f})")
    if args.plot:
        svg = render_loglog_svg(report.epsilons, report.errors_l2,
                                title=f"{cfg.scenario}: error vs eps")
        plot_path = os.path.join(out_dir, "plot.svg")
        write_text(plot_path, svg)
        print(f"wrote {plot_path}")
    return 0


def _bandlimited(rng, grid: TorusGrid, kmax: int = 2) -> np.ndarray:
    """Mean-zero random field with Fourier support in max|k| <= kmax.

    Spectral derivatives are exact only below the Nyquist mode, so the
    identity checks must avoid white noise at the grid scale.
    """
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


def cmd_check_stray(cfg: RunConfig, args, out_dir: str) -> int:
    rng = np.random.default_rng(cfg.seed)
    grid = TorusGrid(shape=(12, 8, 10),
                     lengths=(2.0 * np.pi, np.pi, 4.0 * np.pi))
    m = _bandlimited(rng, grid)
    H = stray_field_torus(m, grid)
    curl_max = float(np.max(np.abs(curl_torus(H, grid))))
    back = reconstruct_from_div_curl(div_torus(H, grid),
                                     curl_torus(H, grid), grid)
    round_trip = float(np.max(np.abs(back - H)))

    u = rng.normal(size=(64, 3))
    slab = stray_field_slab(u)
    expect = np.zeros_like(u)
    expect[:, 0] = -u[:, 0]
    slab_defect = float(np.max(np.abs(slab - expect)))
    n = np.array([1.0, 0.0, 0.0])
    U = rng.normal(size=(64, 3))
    layer_defect = float(np.max(np.abs(
        layer_correction(U) + U[:, :1] * n)))

    checks = [
        ("round_trip", round_trip, 1e-12),
        ("curl_free", curl_max, 1e-12),
        ("slab_identity", slab_defect, 1e-14),
        ("layer_identity", layer_defect, 1e-14),
    ]
    path = os.path.join(out_dir, "stray.csv")
    write_csv(path, ("check", "value", "tolerance"),
              [[name, value, tol] for name, value, tol in checks],
              _meta(cfg, "check-stray", seed=cfg.seed))
    print(f"max round-trip error {round_trip:.3e}")
    print(f"curl max {curl_max:.3e}, slab defect {slab_defect:.3e}, "
          f"layer defect {layer_defect:.3e}")
    bad = [name for name, value, tol in checks if value > tol]
    if bad:
        print(f"error: stray-field identities failed: {', '.join(bad)}",
              file=sys.stderr)
        return 2
    return 0


_DISPATCH = {
    "limit": cmd_limit,
    "full": cmd_full,
    "profiles": cmd_profiles,
    "ansatz": cmd_ansatz,
    "converge": cmd_converge,
    "check-stray": cmd_check_stray,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="llx",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="Default configuration:\n\n" + default_config_text())
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("limit", "limit flow on the parameter mesh -> limit.csv"),
            ("full", "exchange model at one eps -> full.csv"),
            ("profiles", "layer profiles and diagnostics -> profiles.csv"),
            ("ansatz", "assembled field and residual -> ansatz.csv"),
            ("converge", "eps sweep -> report.csv "
                         "(columns: epsilon, err_l2, residual_l2, "
                         "slope_running, eclass_m0, eclass_m<m>)"),
            ("check-stray", "stray-field identities -> stray.csv")):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--config", metavar="PATH",
                       help="config file (defaults used when omitted)")
        p.add_argument("--out", metavar="DIR",
                       help="output directory (overrides LLX_OUT and "
                            "the config)")
        p.add_argument("--tol-override", metavar="K=V", action="append",
                       default=[],
                       help="patch one config value, e.g. "
                            "study.picard_tol=1e-6 (repeatable)")
        if name == "converge":
            p.add_argument("--jobs", type=int, default=1, metavar="N",
                           help="concurrent per-eps workers")
            p.add_argument("--plot", action="store_true",
                           help="also write plot.svg")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.tol_override)
        out_dir = args.out or os.environ.get(OUT_ENV) or cfg.out
        os.makedirs(out_dir, exist_ok=True)
        return _DISPATCH[args.command](cfg, args, out_dir)
    except SolverAbort as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
