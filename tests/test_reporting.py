"""CSV layout, float rendering, and the log-log SVG plot."""

from __future__ import annotations

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from llx.expansion import ConvergenceReport, EClassNorms
from llx.reporting import (
    fmt,
    render_loglog_svg,
    write_convergence_csv,
    write_csv,
    write_text,
)


def _report(m: int = 1):
    eps = np.array([0.1, 0.05, 0.025])

    def records(order, total):
        return tuple(EClassNorms(m=order, conormal=t, normal_conormal=0.0,
                                 sup=0.0, sup_conormal=0.0, sup_normal=0.0)
                     for t in total)

    return ConvergenceReport(
        epsilons=eps,
        errors_l2=np.array([1e-1, 7e-2, 5e-2]),
        residuals=np.array([1e-2, 4e-3, 1.5e-3]),
        slope=0.5,
        slope_running=np.array([np.nan, 0.51, 0.49]),
        eclass_m0=np.array([1.0, 1.1, 1.2]),
        eclass_m1=np.array([2.0, 2.2, 2.4]),
        records_m0=records(0, [1.0, 1.1, 1.2]),
        records_m1=records(m, [2.0, 2.2, 2.4]),
        T_used=0.5,
        grid_sizes=np.array([161, 321, 641]),
        drift_max=1e-7,
    )


def test_fmt_canonical_rendering():
    assert fmt(0.1) == "0.1"
    assert fmt(np.nan) == "nan"
    assert fmt(3) == "3"
    assert fmt(np.int64(7)) == "7"
    assert fmt(1e-30) == "1e-30"
    # twelve significant digits survive
    assert fmt(0.123456789012345) == "0.123456789012"


def test_write_csv_layout(tmp_path):
    path = str(tmp_path / "out.csv")
    meta = {"version": "0.1.0", "config_hash": "abc123"}
    write_csv(path, ("a", "b"), [[1, 2.5], ["x,y", np.nan]], meta=meta)
    text = open(path, encoding="utf-8").read()
    lines = text.split("\n")
    assert lines[0] == "# version=0.1.0"
    assert lines[1] == "# config_hash=abc123"
    assert lines[2] == "a,b"
    assert lines[3] == "1,2.5"
    # a comma inside a string cell gets quoted, nan renders as text
    assert lines[4] == '"x,y",nan'
    assert text.endswith("\n")
    assert "\r" not in text


def test_write_csv_bytes_deterministic(tmp_path):
    rows = [[0.1, 1.0 / 3.0], [0.05, 2.0 / 7.0]]
    pa = str(tmp_path / "a.csv")
    pb = str(tmp_path / "b.csv")
    write_csv(pa, ("eps", "val"), rows, meta={"k": "v"})
    write_csv(pb, ("eps", "val"), rows, meta={"k": "v"})
    assert open(pa, "rb").read() == open(pb, "rb").read()


def test_convergence_csv_shape(tmp_path):
    path = str(tmp_path / "report.csv")
    write_convergence_csv(path, _report(), meta={"slope": "0.5"})
    lines = open(path, encoding="utf-8").read().splitlines()
    assert lines[0] == "# slope=0.5"
    assert lines[1] == ("epsilon,err_l2,residual_l2,slope_running,"
                        "eclass_m0,eclass_m1")
    body = [l.split(",") for l in lines[2:]]
    assert len(body) == 3
    assert body[0][0] == "0.1"
    # the first running slope has no predecessor
    assert body[0][3] == "nan"
    assert body[1][3] == "0.51"


def test_convergence_csv_names_the_second_eclass_column_by_its_order(
        tmp_path):
    path = str(tmp_path / "report.csv")
    write_convergence_csv(path, _report(m=2))
    header = open(path, encoding="utf-8").read().splitlines()[0]
    assert header.split(",")[-2:] == ["eclass_m0", "eclass_m2"]


def test_write_text_exact(tmp_path):
    path = str(tmp_path / "t.svg")
    write_text(path, "<svg/>\n")
    assert open(path, "rb").read() == b"<svg/>\n"


def test_svg_well_formed_and_deterministic():
    eps = np.array([0.1, 0.05, 0.025, 0.0125])
    err = 0.3 * eps ** 0.5
    one = render_loglog_svg(eps, err, title="demo")
    two = render_loglog_svg(eps, err, title="demo")
    assert one == two
    root = ET.fromstring(one)
    assert root.tag.endswith("svg")
    # one marker per data point
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    assert len(circles) == eps.size


def test_svg_reports_fitted_slope():
    eps = np.array([0.1, 0.05, 0.025])
    svg = render_loglog_svg(eps, 2.0 * eps ** 0.5)
    assert "slope 0.500" in svg
    svg2 = render_loglog_svg(eps, 2.0 * eps ** 2)
    assert "slope 2.000" in svg2


def test_svg_rejects_bad_input():
    with pytest.raises(ValueError, match="positive"):
        render_loglog_svg([0.1, 0.05], [1.0, 0.0])
    with pytest.raises(ValueError, match=">= 2"):
        render_loglog_svg([0.1], [1.0])
    with pytest.raises(ValueError, match=">= 2"):
        render_loglog_svg([0.1, 0.05], [1.0])
