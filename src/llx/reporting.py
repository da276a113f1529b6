"""Tabular and plot outputs with byte-reproducible bodies.

Every CSV starts with '# key=value' metadata lines (version, config
hash, per-command facts; never a timestamp), then one header row, then
the data rows with floats rendered through %.12g. Identical inputs
produce identical bytes, which is what the determinism checks diff.

The convergence plot is a self-contained SVG 1.1 document drawn here
directly: log-log axes, one marker per eps, and the fitted power law
as a dashed line with its slope printed alongside.

Contains:
- fmt / write_csv: canonical float rendering and the CSV layout
- convergence_rows / write_convergence_csv: the eps-study table
- render_loglog_svg / write_text: the plot
"""

from __future__ import annotations

import csv

import numpy as np

def fmt(value) -> str:
    """Canonical cell rendering: shortest %.12g float, plain ints."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.12g" % float(value)


def write_csv(path: str, columns, rows, meta=None) -> None:
    """Write metadata lines, a header row, and formatted body rows.

    meta maps keys to already-formatted strings; insertion order is
    kept. Rows may contain numbers (formatted here) or strings
    (written as-is, with RFC-4180 quoting when needed).
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key, value in (meta or {}).items():
            fh.write(f"# {key}={value}\n")
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL,
                            lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([cell if isinstance(cell, str) else fmt(cell)
                             for cell in row])


def convergence_rows(report) -> list:
    """The per-eps body of a convergence report, ready for write_csv."""
    return [
        [report.epsilons[i], report.errors_l2[i], report.residuals[i],
         report.slope_running[i], report.eclass_m0[i], report.eclass_m1[i]]
        for i in range(report.epsilons.size)
    ]


def write_convergence_csv(path: str, report, meta=None) -> None:
    """The report as CSV; the second E-class column is named by the
    order its records hold (study.eclass_m)."""
    columns = ("epsilon", "err_l2", "residual_l2", "slope_running",
               "eclass_m0", f"eclass_m{report.records_m1[0].m}")
    write_csv(path, columns, convergence_rows(report), meta)


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _ticks(lo: float, hi: float, n: int = 4) -> np.ndarray:
    return np.linspace(lo, hi, n)


def render_loglog_svg(epsilons, errors, title: str = "convergence") -> str:
    """Log-log scatter of errors against eps with the fitted power law."""
    eps = np.asarray(epsilons, dtype=float)
    err = np.asarray(errors, dtype=float)
    if eps.size != err.size or eps.size < 2:
        raise ValueError(f"need >= 2 paired points, got {eps.size}")
    if np.any(eps <= 0.0) or np.any(err <= 0.0):
        raise ValueError("log-log plot needs positive data")
    lx = np.log10(eps)
    ly = np.log10(err)
    slope, intercept = np.polyfit(lx, ly, 1)

    width, height = 640.0, 480.0
    ml, mr, mt, mb = 80.0, 24.0, 48.0, 64.0
    pad_x = 0.06 * (lx.max() - lx.min() or 1.0)
    pad_y = 0.10 * (ly.max() - ly.min() or 1.0)
    x0, x1 = lx.min() - pad_x, lx.max() + pad_x
    y0, y1 = ly.min() - pad_y, ly.max() + pad_y

    def sx(v):
        return ml + (v - x0) / (x1 - x0) * (width - ml - mr)

    def sy(v):
        return height - mb - (v - y0) / (y1 - y0) * (height - mt - mb)

    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:g}" height="{height:g}" '
        f'viewBox="0 0 {width:g} {height:g}">',
        f'<rect width="{width:g}" height="{height:g}" fill="white"/>',
        f'<text x="{width / 2:.2f}" y="{mt - 20:.2f}" font-size="16" '
        'text-anchor="middle" font-family="sans-serif">'
        f'{title}</text>',
    ]
    # frame and tick labels
    out.append(
        f'<rect x="{ml:.2f}" y="{mt:.2f}" width="{width - ml - mr:.2f}" '
        f'height="{height - mt - mb:.2f}" fill="none" stroke="black"/>')
    for v in _ticks(x0, x1):
        px = sx(v)
        out.append(f'<line x1="{px:.2f}" y1="{height - mb:.2f}" '
                   f'x2="{px:.2f}" y2="{height - mb + 6:.2f}" '
                   'stroke="black"/>')
        out.append(f'<text x="{px:.2f}" y="{height - mb + 22:.2f}" '
                   'font-size="12" text-anchor="middle" '
                   f'font-family="sans-serif">{10.0 ** v:.3g}</text>')
    for v in _ticks(y0, y1):
        py = sy(v)
        out.append(f'<line x1="{ml - 6:.2f}" y1="{py:.2f}" '
                   f'x2="{ml:.2f}" y2="{py:.2f}" stroke="black"/>')
        out.append(f'<text x="{ml - 10:.2f}" y="{py + 4:.2f}" '
                   'font-size="12" text-anchor="end" '
                   f'font-family="sans-serif">{10.0 ** v:.3g}</text>')
    out.append(f'<text x="{width / 2:.2f}" y="{height - 18:.2f}" '
               'font-size="13" text-anchor="middle" '
               'font-family="sans-serif">eps</text>')
    out.append(f'<text x="22" y="{height / 2:.2f}" font-size="13" '
               'text-anchor="middle" font-family="sans-serif" '
               f'transform="rotate(-90 22 {height / 2:.2f})">'
               'error</text>')

    # fitted dashed line across the frame, then the data on top
    fit = [(sx(v), sy(intercept + slope * v)) for v in (x0, x1)]
    out.append(f'<line x1="{fit[0][0]:.2f}" y1="{fit[0][1]:.2f}" '
               f'x2="{fit[1][0]:.2f}" y2="{fit[1][1]:.2f}" '
               'stroke="#d62728" stroke-dasharray="6 4"/>')
    pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(lx, ly))
    out.append(f'<polyline points="{pts}" fill="none" stroke="#1f77b4" '
               'stroke-width="1.5"/>')
    for a, b in zip(lx, ly):
        out.append(f'<circle cx="{sx(a):.2f}" cy="{sy(b):.2f}" r="4" '
                   'fill="#1f77b4"/>')
    out.append(f'<text x="{width - mr - 8:.2f}" y="{mt + 20:.2f}" '
               'font-size="13" text-anchor="end" '
               f'font-family="sans-serif">slope {slope:.3f}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
