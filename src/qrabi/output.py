"""Deterministic CSV/JSON artifact writers.

Formatting is pinned so identical inputs produce identical bytes: floats
carry 12 significant digits (%.12g), CSV uses comma separators, UTF-8 and
LF line endings with a mandatory header row, and JSON documents are built
with a fixed key order.

JSON numbers carry the same 12 digits as the CSV, written as the shortest
float repr: integer-valued floats end in ``.0`` (CSV ``-6``, JSON
``-6.0``), values from 1e12 up to 1e16 are written out in full (CSV
``1.5e+13``, JSON ``15000000000000.0``), and NaN and infinities are
``NaN``/``Infinity``.  Integer columns print the same in both; boolean
columns are ``1``/``0`` in CSV and ``true``/``false`` in JSON.

Tables are held column-wise (:class:`Column`, :class:`Rows`) and each
column's cell text is formatted once, then shared by the CSV and JSON
writers and by the gnuplot data file.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np

from .entanglement import EntropySweep
from .spectra import CrossingReport, SpectrumSweep
from .wigner import WignerGrid

__all__ = [
    "Column",
    "Rows",
    "write_csv",
    "write_json",
    "write_manifest",
    "spectrum_table",
    "entropy_table",
    "wigner_table",
    "crossings_table",
]


def _json_number(cell: str) -> str:
    # a %.12g cell with a '.' or a negative exponent already is the shortest
    # repr of the float it parses to, except below 1e-299, where subnormal
    # floats carry fewer digits; integer-valued cells, positive exponents
    # and nan/inf are not
    if ("." in cell or "e-" in cell) and "e+" not in cell and cell[-5:-2] != "e-3":
        return cell
    return json.dumps(float(cell))


class Column:
    """One typed table column: float64, integer or bool values.

    In the table each value repeats ``repeat`` times in a run and the whole
    run tiles ``tile`` times, so a grid axis is formatted once per value.
    """

    def __init__(self, values, repeat: int = 1, tile: int = 1) -> None:
        self.values = np.asarray(values)
        self.repeat = repeat
        self.tile = tile

    def __len__(self) -> int:
        return self.values.size * self.repeat * self.tile

    @functools.cached_property
    def _text(self) -> str:
        """CSV cells of the distinct values, one per line, formatted once.

        Held as one string, which is cheap to keep and to free; each writer
        splits it into cells."""
        if self.values.dtype.kind in "biu":
            fmt, values = "%d\n", self.values
        else:
            fmt, values = "%.12g\n", self.values + 0.0  # + 0.0 canonicalizes -0.0
        return fmt * values.size % tuple(values.tolist())

    def cells(self, json_numbers: bool = False) -> list[str]:
        """Cell text of every row, as CSV or as JSON numbers."""
        text = self._text.splitlines()
        if json_numbers:
            kind = self.values.dtype.kind
            if kind == "b":
                text = ["true" if c == "1" else "false" for c in text]
            elif kind not in "iu":
                text = list(map(_json_number, text))
        if self.repeat > 1:
            text = [c for c in text for _ in range(self.repeat)]
        return text * self.tile


class Rows:
    """Table body stored column-wise; ``len()`` is the row count."""

    def __init__(self, *columns: Column) -> None:
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def lines(self, sep: str, json_numbers: bool = False):
        """Each row's cells joined by ``sep``, in row order."""
        return map(sep.join, zip(*(c.cells(json_numbers) for c in self.columns)))


def write_csv(path: Path, columns: list[str], rows: Rows) -> None:
    lines = [",".join(columns), *rows.lines(",")]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_json(path: Path, spec: dict, columns: list[str], rows: Rows) -> None:
    head = json.dumps({"spec": spec, "columns": columns})
    body = "], [".join(rows.lines(", ", json_numbers=True))
    body = f"[{body}]" if len(rows) else ""
    text = f'{head[:-1]}, "rows": [{body}]}}\n'
    path.write_text(text, encoding="utf-8", newline="\n")


def write_manifest(path: Path, spec: dict) -> None:
    path.write_text(
        json.dumps(spec, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline="\n"
    )


def spectrum_table(sweep: SpectrumSweep) -> tuple[list[str], Rows]:
    """Columns g_over_wc, E0, E1, ... and one row per grid point."""
    k = sweep.levels.shape[1]
    columns = ["g_over_wc"] + [f"E{i}" for i in range(k)]
    rows = Rows(Column(sweep.g_grid), *(Column(sweep.levels[:, i]) for i in range(k)))
    return columns, rows


def entropy_table(sweep: EntropySweep) -> tuple[list[str], Rows]:
    columns = ["g_over_wc", "S_qrm_bits", "S_qrma_bits"]
    rows = Rows(Column(sweep.g_grid), Column(sweep.s_qrm), Column(sweep.s_qrma))
    return columns, rows


def wigner_table(w: WignerGrid) -> tuple[list[str], Rows]:
    """Long-form q, p, w rows; p varies slowest, q fastest."""
    n_q, n_p = w.grid.n_q, w.grid.n_p
    rows = Rows(
        Column(w.grid.q_axis(), tile=n_p),
        Column(w.grid.p_axis(), repeat=n_q),
        Column(w.values.ravel()),
    )
    return ["q", "p", "w"], rows


def crossings_table(reports: list[CrossingReport]) -> tuple[list[str], Rows]:
    columns = ["level_lower", "level_upper", "g_at_min", "min_gap", "at_boundary"]
    rows = Rows(
        Column(np.array([r.level_pair[0] for r in reports], dtype=np.int64)),
        Column(np.array([r.level_pair[1] for r in reports], dtype=np.int64)),
        Column(np.array([r.g_at_min for r in reports], dtype=float)),
        Column(np.array([r.min_gap for r in reports], dtype=float)),
        Column(np.array([r.at_boundary for r in reports], dtype=bool)),
    )
    return columns, rows
