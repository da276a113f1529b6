"""End-to-end runs of the console driver through main()."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from llx import expansion
from llx.cli import main

# small enough to keep every command under a few seconds
TINY = """\
[study]
epsilons = 0.1 0.07 0.05
T = 0.02
dt_knot = 2.5e-3
dt_full = 1e-3
profile_cells = 64
wall_cells = 64
box_y = 10.0
box_z = 10.0
"""


@pytest.fixture()
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY, encoding="utf-8")
    return str(path)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_converge_help_documents_schema(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["converge", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "epsilon, err_l2, residual_l2" in out
    assert "--jobs" in out


def test_module_entry_point_runs():
    # `python -m llx` reaches the same driver as the installed script
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-m", "llx", "--help"], env=env,
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    assert "converge" in done.stdout


def test_missing_config_is_exit_2(tmp_path, capsys):
    rc = main(["limit", "--config", str(tmp_path / "absent.cfg"),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config not found")


def test_directory_config_is_exit_2(tmp_path, capsys):
    rc = main(["limit", "--config", str(tmp_path),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: config unreadable")


def test_invalid_config_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[study]\nbogus = 1\n", encoding="utf-8")
    rc = main(["limit", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: unknown key")


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_exit_2(tmp_path, capsys, jobs):
    rc = main(["converge", "--jobs", jobs, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: --jobs must be at least 1, got {jobs}\n")


def test_non_decreasing_epsilons_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY.replace("0.1 0.07 0.05", "0.1 0.1 0.05"),
                   encoding="utf-8")
    rc = main(["converge", "--config", str(bad),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "decreasing" in err


def test_unresolved_eps_grid_is_exit_2(tiny_cfg, tmp_path, capsys):
    # 6 cells per eps passes the config (the mesh builder takes 4) but
    # leaves the study's layers unresolved
    rc = main(["converge", "--config", tiny_cfg, "--out", str(tmp_path / "o"),
               "--tol-override", "study.cells_per_eps=6"])
    assert rc == 2
    assert "study.cells_per_eps" in capsys.readouterr().err


def test_non_positive_epsilon_is_exit_2(tiny_cfg, tmp_path, capsys):
    rc = main(["full", "--config", tiny_cfg, "--out", str(tmp_path / "o"),
               "--tol-override", "run.epsilon=0"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: run.epsilon")


@pytest.mark.parametrize("override, reason", [
    ("study.wall_cells=8", "wall flux defect"),
    ("study.box_z=1", "wall profile tail"),
])
def test_unresolved_wall_layer_is_exit_2(tiny_cfg, tmp_path, capsys,
                                         override, reason):
    rc = main(["profiles", "--config", tiny_cfg,
               "--out", str(tmp_path / "o"),
               "--tol-override", "scenario.data=named",
               "--tol-override", override])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {reason}")


def test_solver_abort_is_exit_3(tiny_cfg, tmp_path, capsys):
    # an unreachable drift tolerance exhausts the halving budget
    rc = main(["full", "--config", tiny_cfg, "--out", str(tmp_path / "o"),
               "--tol-override", "study.drift_tol=1e-18"])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error:")


def test_study_solver_abort_is_exit_3(tiny_cfg, tmp_path, capsys):
    # the march aborts in the middle of an eps row's walk
    out = tmp_path / "o"
    rc = main(["converge", "--config", tiny_cfg, "--out", str(out),
               "--tol-override", "study.drift_tol=1e-18"])
    assert rc == 3
    assert "halved 10 times" in capsys.readouterr().err
    assert not (out / "report.csv").exists()


def test_off_knot_trajectory_is_exit_3(tiny_cfg, tmp_path, capsys,
                                       monkeypatch):
    class Shifted(expansion.FullMarch):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.times = self.times + 1e-9

    monkeypatch.setattr(expansion, "FullMarch", Shifted)
    rc = main(["converge", "--config", tiny_cfg,
               "--out", str(tmp_path / "o")])
    assert rc == 3
    assert capsys.readouterr().err == (
        "error: solver output times drifted off the knots\n")


def test_finer_knots_alone_is_exit_2(tmp_path, capsys):
    # the default dt_full equals the default dt_knot, so a finer dt_knot
    # must bring dt_full down with it
    rc = main(["converge", "--out", str(tmp_path / "o"),
               "--tol-override", "study.dt_knot=1.25e-3"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: study.dt_full=")
    assert "study.dt_knot=" in err
    assert "lower study.dt_full" in err


def test_out_dir_precedence(tiny_cfg, tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    flag_dir = tmp_path / "from_flag"
    monkeypatch.setenv("LLX_OUT", str(env_dir))
    assert main(["check-stray", "--config", tiny_cfg]) == 0
    assert (env_dir / "stray.csv").is_file()
    assert main(["check-stray", "--config", tiny_cfg,
                 "--out", str(flag_dir)]) == 0
    assert (flag_dir / "stray.csv").is_file()


def test_check_stray_passes(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["check-stray", "--config", tiny_cfg, "--out", str(out)])
    assert rc == 0
    assert "round-trip" in capsys.readouterr().out
    lines = _read(out / "stray.csv").splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "check,value,tolerance"
    body = [l.split(",") for l in lines if not l.startswith("#")][1:]
    assert len(body) == 4
    for name, value, tol in body:
        assert float(value) <= float(tol), name


def test_limit_output(tiny_cfg, tmp_path):
    out = tmp_path / "o"
    assert main(["limit", "--config", tiny_cfg, "--out", str(out)]) == 0
    lines = _read(out / "limit.csv").splitlines()
    assert "# config_hash=" in lines[1]
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "t,x,u1_minus,u2_minus,u3_minus,u1_plus,u2_plus,u3_plus"
    assert len(lines) > 10


# 11 * 0.03 falls one ulp short of 0.33, and the knots must still end on T
ULP_SHORT = ["--tol-override", "study.T=0.33",
             "--tol-override", "study.dt_knot=0.03"]


def test_limit_knots_end_on_T(tiny_cfg, tmp_path):
    out = tmp_path / "o"
    assert main(["limit", "--config", tiny_cfg, "--out", str(out)]
                + ULP_SHORT) == 0
    body = [l.split(",") for l in _read(out / "limit.csv").splitlines()
            if not l.startswith("#")][1:]
    # 12 knots of 33 parameter nodes each
    assert len(body) == 12 * 33
    times = sorted({float(row[0]) for row in body})
    assert len(times) == 12 and times[-1] == 0.33


def test_converge_knots_end_on_T(tiny_cfg, tmp_path):
    out = tmp_path / "o"
    assert main(["converge", "--config", tiny_cfg, "--out", str(out)]
                + ULP_SHORT) == 0
    body = [l.split(",") for l in _read(out / "report.csv").splitlines()
            if not l.startswith("#")][1:]
    assert len(body) == 3
    # slope_running is nan in the first row by definition
    assert all(math.isfinite(float(v)) for row in body
               for i, v in enumerate(row) if i != 3)


def test_full_output(tiny_cfg, tmp_path):
    out = tmp_path / "o"
    assert main(["full", "--config", tiny_cfg, "--out", str(out)]) == 0
    text = _read(out / "full.csv")
    assert "# drift_max=" in text
    assert "# steps_taken=" in text
    assert "# halvings_used=" in text
    header = [l for l in text.splitlines() if not l.startswith("#")][0]
    assert header == "x,u1,u2,u3"


def test_profiles_output(tiny_cfg, tmp_path):
    out = tmp_path / "o"
    assert main(["profiles", "--config", tiny_cfg, "--out", str(out)]) == 0
    text = _read(out / "profiles.csv")
    assert "# junction_value_gap=" in text
    assert "# wall_flux_defect=" in text
    header = [l for l in text.splitlines() if not l.startswith("#")][0]
    assert header == "t,w1,w2,w3,delta1,delta2,delta3"


def test_default_profiles_output_is_pinned(tmp_path):
    """The whole default `llx profiles` output, byte for byte: the
    junction trace and jump at x = 0 and every diagnostic in the header
    (tail, junction gaps, support defect, most sweeps of a window)."""
    out = tmp_path / "o"
    assert main(["profiles", "--out", str(out)]) == 0
    pinned = Path(__file__).parent / "data" / "jump_profiles.csv"
    assert _read_bytes(out / "profiles.csv") == pinned.read_bytes()


def test_ansatz_output(tiny_cfg, tmp_path):
    out = tmp_path / "o"
    assert main(["ansatz", "--config", tiny_cfg, "--out", str(out)]) == 0
    text = _read(out / "ansatz.csv")
    assert "# residual_l2=" in text
    assert "# norm_defect=" in text
    header = [l for l in text.splitlines() if not l.startswith("#")][0]
    assert header == "x,a1,a2,a3"


def test_converge_deterministic_and_parallel(tiny_cfg, tmp_path, capsys):
    dirs = [str(tmp_path / f"o{i}") for i in range(3)]
    assert main(["converge", "--config", tiny_cfg, "--out", dirs[0]]) == 0
    assert "slope" in capsys.readouterr().out
    assert main(["converge", "--config", tiny_cfg, "--out", dirs[1]]) == 0
    assert main(["converge", "--config", tiny_cfg, "--out", dirs[2],
                 "--jobs", "4"]) == 0

    ref = _read_bytes(os.path.join(dirs[0], "report.csv"))
    assert _read_bytes(os.path.join(dirs[1], "report.csv")) == ref
    assert _read_bytes(os.path.join(dirs[2], "report.csv")) == ref

    lines = ref.decode("utf-8").splitlines()
    meta = [l for l in lines if l.startswith("#")]
    assert any(l.startswith("# config_hash=") for l in meta)
    assert not any("time" in l.split("=")[0] for l in meta)
    body = [l for l in lines if not l.startswith("#")]
    assert body[0] == "epsilon,err_l2,residual_l2,slope_running,eclass_m0,eclass_m1"
    assert len(body) == 4


def test_converge_plot_and_override(tiny_cfg, tmp_path):
    out = tmp_path / "o"
    rc = main(["converge", "--config", tiny_cfg, "--out", str(out),
               "--plot", "--tol-override", "study.T=0.01"])
    assert rc == 0
    text = _read(out / "report.csv")
    assert "# T_used=0.01" in text
    root = ET.fromstring(_read(out / "plot.svg"))
    assert root.tag.endswith("svg")
