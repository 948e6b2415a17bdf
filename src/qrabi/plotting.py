"""Minimal self-contained SVG renderers: line plots of the sweeps and
heatmaps of Wigner grids.  Each renderer returns the document as text and
writes no file; the CLI writes it, and ``output.write_gnuplot`` writes the
gnuplot surfaces.  No external runtime is needed; styling is deliberately
plain.

A heatmap is one embedded PNG with a pixel per grid point, written with
stored deflate blocks so its bytes are the same on any machine.  Its
colours are mapped on the grid's folded quadrant (``WignerGrid.fold``) and
gathered to the full image, so a mirror-symmetric panel colours a quarter
of its points.  A sweep's polyline formats all its points in one pass
over the mapped coordinates."""

from __future__ import annotations

import binascii
import struct
import zlib

import numpy as np

from .entanglement import EntropySweep
from .spectra import SpectrumSweep
from .wigner import WignerGrid

__all__ = ["spectrum_svg", "entropy_svg", "wigner_svg"]

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
        if x_hi == x_lo:
            x_hi = x_lo + 1.0
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
    # the frame maps apply elementwise, so each point is the one a scalar map
    # would give, and "%.2f" formats a float as _fmt does
    x, y = frame.x(np.asarray(xs)).tolist(), frame.y(np.asarray(ys)).tolist()
    pts = " ".join(map("%.2f,%.2f".__mod__, zip(x, y)))
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


def _diverging_rgb(values: np.ndarray) -> np.ndarray:
    """uint8 RGB of each value on a symmetric scale centered at zero, so
    negativity is visible: white at 0, red at +vmax, blue at -vmax."""
    vmax = float(np.max(np.abs(values)))
    t = np.minimum(np.abs(values) / vmax, 1.0) if vmax > 0 else np.zeros(values.shape)
    positive = values >= 0
    rgb = np.empty(values.shape + (3,), dtype=np.uint8)
    for c, (hi, lo) in enumerate(zip((178, 24, 43), (33, 102, 172))):
        # 255 - t * (255 - end) in float64, truncated to uint8 on assignment
        rgb[..., c] = 255 - t * np.where(positive, 255.0 - hi, 255.0 - lo)
    return rgb


def _png(rgb: np.ndarray) -> bytes:
    """PNG of a (rows, columns, 3) uint8 image, top row first.  Every row
    has filter 0 and the zlib stream holds stored deflate blocks, so the
    bytes do not depend on the zlib build."""
    n_rows, n_cols = rgb.shape[:2]
    raw = np.pad(rgb.reshape(n_rows, -1), ((0, 0), (1, 0))).tobytes()
    blocks = [raw[k:k + 65535] for k in range(0, len(raw), 65535)]
    idat = b"\x78\x01" + b"".join(
        struct.pack("<BHH", k == len(blocks) - 1, len(b), len(b) ^ 0xFFFF) + b
        for k, b in enumerate(blocks)) + struct.pack(">I", zlib.adler32(raw))
    ihdr = struct.pack(">IIBBBBB", n_cols, n_rows, 8, 2, 0, 0, 0)
    return b"\x89PNG\r\n\x1a\n" + b"".join(
        struct.pack(">I", len(data)) + tag + data + struct.pack(">I", zlib.crc32(tag + data))
        for tag, data in ((b"IHDR", ihdr), (b"IDAT", idat), (b"IEND", b"")))


def wigner_svg(w: WignerGrid) -> str:
    """Heatmap of the Wigner values with a diverging scale centered at 0:
    one embedded PNG pixel per grid point, centred on its (q, p)."""
    grid = w.grid
    frame = _Frame(grid.q_min, grid.q_max, grid.p_min, grid.p_max)
    # the pixel pitch is the sample spacing and the corner samples map to
    # the plot corners, so pixel (i, j) is centred on (x(q_j), y(p_i));
    # PNG rows run from p_max down to p_min.  Only the folded quadrant is
    # coloured: its vmax is the grid's, and -0.0 is coloured as 0.0.
    dx, dy = (_W - _ML - _MR) / (grid.n_q - 1), (_H - _MT - _MB) / (grid.n_p - 1)
    quadrant, ip, iq = w.fold
    rgb = np.take(np.take(_diverging_rgb(quadrant), ip[::-1], axis=0), iq, axis=1)
    png = binascii.b2a_base64(_png(rgb), newline=False)
    image = (
        f'<image x="{_fmt(_ML - dx / 2)}" y="{_fmt(_MT - dy / 2)}" width="{_fmt(grid.n_q * dx)}" '
        f'height="{_fmt(grid.n_p * dy)}" preserveAspectRatio="none" '
        f'style="image-rendering:pixelated" href="data:image/png;base64,{png.decode("ascii")}"/>'
    )
    return _document([image] + _axes(frame, "q", "p"))
