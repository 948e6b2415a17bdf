"""Minimal self-contained plot emitters: SVG line plots and heatmaps plus
gnuplot surface scripts.  No external runtime is needed to produce the
files; styling is deliberately plain."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .entanglement import EntropySweep
from .output import wigner_table
from .spectra import SpectrumSweep
from .wigner import WignerGrid

__all__ = [
    "emit_plot",
    "spectrum_svg",
    "entropy_svg",
    "wigner_svg",
    "wigner_gnuplot",
    "gnuplot_script",
]

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 64, 16, 16, 48

_PALETTE = [
    "#1b6ca8", "#c03028", "#2d8a4e", "#8450a8", "#c07828",
    "#2898a0", "#a83468", "#707028",
]


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _tick_label(x: float) -> str:
    return f"{x:.4g}"


class _Frame:
    """Maps data coordinates into the SVG plot rectangle."""

    def __init__(self, x_lo, x_hi, y_lo, y_hi):
        if y_hi == y_lo:
            y_hi = y_lo + 1.0
        self.x_lo, self.x_hi, self.y_lo, self.y_hi = x_lo, x_hi, y_lo, y_hi

    def x(self, v: float) -> float:
        return _ML + (v - self.x_lo) / (self.x_hi - self.x_lo) * (_W - _ML - _MR)

    def y(self, v: float) -> float:
        return _H - _MB - (v - self.y_lo) / (self.y_hi - self.y_lo) * (_H - _MT - _MB)


def _axes(frame: _Frame, x_label: str, y_label: str) -> list[str]:
    parts = [
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>'
    ]
    for xv in np.linspace(frame.x_lo, frame.x_hi, 5):
        px = frame.x(xv)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{_H - _MB}" x2="{_fmt(px)}" '
            f'y2="{_H - _MB + 4}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{_H - _MB + 18}" font-size="12" '
            f'text-anchor="middle">{_tick_label(xv)}</text>'
        )
    for yv in np.linspace(frame.y_lo, frame.y_hi, 5):
        py = frame.y(yv)
        parts.append(
            f'<line x1="{_ML - 4}" y1="{_fmt(py)}" x2="{_ML}" '
            f'y2="{_fmt(py)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{_fmt(py + 4)}" font-size="12" '
            f'text-anchor="end">{_tick_label(yv)}</text>'
        )
    parts.append(
        f'<text x="{(_ML + _W - _MR) // 2}" y="{_H - 8}" font-size="13" '
        f'text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="14" y="{(_MT + _H - _MB) // 2}" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 14 {(_MT + _H - _MB) // 2})">'
        f"{y_label}</text>"
    )
    return parts


def _polyline(frame: _Frame, xs, ys, color: str, dashed: bool = False) -> str:
    pts = " ".join(f"{_fmt(frame.x(x))},{_fmt(frame.y(y))}" for x, y in zip(xs, ys))
    dash = ' stroke-dasharray="6 4"' if dashed else ""
    return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"{dash}/>'


def _document(parts: list[str]) -> str:
    body = "\n".join(parts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">\n<rect width="{_W}" height="{_H}" fill="white"/>\n'
        f"{body}\n</svg>\n"
    )


def spectrum_svg(sweep: SpectrumSweep) -> str:
    """One polyline per energy level against the coupling strength."""
    g = sweep.g_grid
    frame = _Frame(g[0], g[-1], float(sweep.levels.min()), float(sweep.levels.max()))
    parts = _axes(frame, "g / omega_c", f"energy ({sweep.model_tag})")
    for k in range(sweep.levels.shape[1]):
        parts.append(_polyline(frame, g, sweep.levels[:, k], _PALETTE[k % len(_PALETTE)]))
    return _document(parts)


def entropy_svg(sweep: EntropySweep) -> str:
    """Ground-state entropy of both model variants against coupling."""
    g = sweep.g_grid
    top = max(1.0, float(max(sweep.s_qrm.max(), sweep.s_qrma.max())))
    frame = _Frame(g[0], g[-1], 0.0, top)
    parts = _axes(frame, "g / omega_c", "S (bits)")
    parts.append(_polyline(frame, g, sweep.s_qrm, "#2d8a4e"))
    parts.append(_polyline(frame, g, sweep.s_qrma, "#c03028", dashed=True))
    parts.append(
        f'<text x="{_W - _MR - 8}" y="{_MT + 18}" font-size="12" text-anchor="end" '
        f'fill="#2d8a4e">QRM</text>'
    )
    parts.append(
        f'<text x="{_W - _MR - 8}" y="{_MT + 34}" font-size="12" text-anchor="end" '
        f'fill="#c03028">QRMA</text>'
    )
    return _document(parts)


def _diverging_color(v: float, vmax: float) -> str:
    # symmetric scale centered at zero so negativity is visible
    t = min(abs(v) / vmax, 1.0) if vmax > 0 else 0.0
    if v >= 0:
        r, g, b = 255 - t * (255 - 178), 255 - t * (255 - 24), 255 - t * (255 - 43)
    else:
        r, g, b = 255 - t * (255 - 33), 255 - t * (255 - 102), 255 - t * (255 - 172)
    return f"#{int(r):02x}{int(g):02x}{int(b):02x}"


def wigner_svg(w: WignerGrid) -> str:
    """Heatmap of the Wigner values with a diverging scale centered at 0."""
    q = w.grid.q_axis()
    p = w.grid.p_axis()
    frame = _Frame(w.grid.q_min, w.grid.q_max, w.grid.p_min, w.grid.p_max)
    vmax = float(np.max(np.abs(w.values)))
    cell_w = (_W - _ML - _MR) / w.grid.n_q
    cell_h = (_H - _MT - _MB) / w.grid.n_p
    parts = []
    for i in range(w.grid.n_p):
        y = frame.y(p[i]) - cell_h / 2
        for j in range(w.grid.n_q):
            x = frame.x(q[j]) - cell_w / 2
            color = _diverging_color(float(w.values[i, j]), vmax)
            parts.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(cell_w + 0.5)}" '
                f'height="{_fmt(cell_h + 0.5)}" fill="{color}"/>'
            )
    parts.extend(_axes(frame, "q", "p"))
    return _document(parts)


def emit_plot(data, fmt: str, path: Path) -> None:
    """Render one result to ``path`` in the requested format.

    SVG is available for sweeps, entropy tables and Wigner grids; gnuplot
    (a ``.gp`` script plus ``.dat`` grid file next to it) only for Wigner
    grids.  Raises ValueError for a format the data kind does not support.
    """
    path = Path(path)
    if fmt == "svg":
        if isinstance(data, SpectrumSweep):
            text = spectrum_svg(data)
        elif isinstance(data, EntropySweep):
            text = entropy_svg(data)
        elif isinstance(data, WignerGrid):
            text = wigner_svg(data)
        else:
            raise ValueError(f"no svg rendering for {type(data).__name__}")
        path.write_text(text, encoding="utf-8", newline="\n")
        return
    if fmt == "gnuplot":
        if not isinstance(data, WignerGrid):
            raise ValueError(f"no gnuplot rendering for {type(data).__name__}")
        dat = path.with_suffix(".dat")
        script, grid_text = wigner_gnuplot(data, dat.name)
        path.with_suffix(".gp").write_text(script, encoding="utf-8", newline="\n")
        dat.write_text(grid_text, encoding="utf-8", newline="\n")
        return
    raise ValueError(f"unsupported plot format {fmt!r}")


def gnuplot_script(data_filename: str) -> str:
    """Gnuplot surface script that plots the grid file ``data_filename``."""
    return "\n".join(
        [
            "# run with: gnuplot -p <this file>",
            "set xlabel 'q'",
            "set ylabel 'p'",
            "set zlabel 'W(q,p)'",
            "set hidden3d",
            "set pm3d",
            "set view 55, 30",
            f"splot '{data_filename}' using 1:2:3 with pm3d notitle",
            "",
        ]
    )


def wigner_gnuplot(w: WignerGrid, data_filename: str) -> tuple[str, str]:
    """Gnuplot surface script plus its grid-format data file, whose cells
    are those of the CSV Wigner table."""
    _, rows = wigner_table(w)
    lines = list(rows.lines(" "))
    n_q = w.grid.n_q
    blocks = ("\n".join(lines[i : i + n_q]) for i in range(0, len(lines), n_q))
    return gnuplot_script(data_filename), "\n\n".join(blocks) + "\n"
