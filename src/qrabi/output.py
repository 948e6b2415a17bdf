"""Deterministic artifact writers: CSV and JSON tables, the run manifest
and gnuplot surfaces.

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

Tables are held column-wise (:class:`Column`, :class:`Rows`).  A column's
cells are an object array in its values' shape, formatted once and shared
by the CSV writer and the gnuplot data file.  Its JSON cells are the CSV
cells except for the few that may differ (integer-valued, ``e+``,
``e-3xx`` and non-finite cells): a vectorised filter flags a superset of
them, and each flagged cell becomes ``json.dumps(float(cell))``, so a
column where none is flagged reuses the CSV cells.  A Wigner table's w
column is its grid's folded quadrant (``WignerGrid.fold``): on a
mirror-symmetric grid the formatting sees a quarter of the points.

A table body is an iterator of strings.  A Wigner table yields one string
per p row, joined from one reusable row of q, p and w pieces: its q pieces
are the grid's, cached per grid and format, and each row puts in its p
piece and its w cells: the quadrant row its mirror index names, gathered
to the q columns once for CSV and once for JSON cells.  The writers pass
header, rows and tail to the file as they come, so no text of a whole
Wigner table is ever held.  The CLI writes a panel equal to a written one
as a copy.

:func:`write_gnuplot` is the one writer of a ``.gp`` script and its
``.dat`` grid; the grid is a Wigner table's body in the ``dat`` format.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from .entanglement import EntropySweep
from .spectra import CrossingReport, SpectrumSweep
from .wigner import QuadratureGrid, WignerGrid

__all__ = [
    "Column",
    "Rows",
    "write_csv",
    "write_json",
    "write_manifest",
    "gnuplot_script",
    "write_gnuplot",
    "spectrum_table",
    "entropy_table",
    "wigner_table",
    "crossings_table",
]


class Column:
    """One typed table column: float64, integer or bool values, in any shape."""

    def __init__(self, values) -> None:
        self.values = np.asarray(values)

    def __len__(self) -> int:
        return self.values.size

    @functools.cached_property
    def _csv_cells(self) -> np.ndarray:
        v = self.values
        fmt, v = ("%d\n", v) if v.dtype.kind in "biu" else ("%.12g\n", v + 0.0)  # -0.0 -> 0
        text = (fmt * v.size % tuple(v.ravel().tolist())).splitlines()
        return np.array(text, dtype=object).reshape(v.shape)

    @functools.cached_property
    def _json_cells(self) -> np.ndarray:
        kind = self.values.dtype.kind
        if kind == "b":
            return np.where(self.values, "true", "false").astype(object)
        if kind in "iu":
            return self._csv_cells
        # a %.12g cell is already the shortest repr of its float unless it
        # is integer-valued, has "e+" or "e-3xx" (subnormals carry fewer
        # digits), or is nan/inf; json.dumps rewrites a superset of those:
        # values within 1e-10 of their size of an integer (the 12-digit
        # rounding moves a value by under 5e-12 of its size, and every value
        # from 5e9 up passes, which covers all "e+" cells), values below
        # 1e-298, and nan and infinities, set to 0 here
        x = np.where(np.isfinite(self.values), self.values, 0.0)
        size = np.abs(x)
        rewrite = (size < 1e-298) | (np.abs(x - np.rint(x)) <= 1e-10 * size)
        if not rewrite.any():
            return self._csv_cells
        cells = self._csv_cells.copy()
        cells[rewrite] = [json.dumps(float(c)) for c in cells[rewrite]]
        return cells

    def cells(self, json_numbers: bool = False) -> np.ndarray:
        """Cell text of every value, as CSV or as JSON numbers, in an object
        array of the values' shape; it is built once per column and shared,
        so callers must not change it."""
        return self._json_cells if json_numbers else self._csv_cells


# format -> (cell separator, row separator, p-block separator, JSON numbers)
_BODY = {"csv": (",", "\n", "\n", False), "json": (", ", "], [", "], [", True),
         "dat": (" ", "\n", "\n\n", False)}


class Rows:
    """Table body stored column-wise; ``len()`` is the row count."""

    def __init__(self, *columns: Column) -> None:
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def body(self, fmt: str) -> Iterator[str]:
        """Rows as csv, json or dat text, without header, brackets or final
        newline, as one string."""
        sep, row_sep, _, json_numbers = _BODY[fmt]
        rows = zip(*(c.cells(json_numbers).tolist() for c in self.columns))
        yield row_sep.join(map(sep.join, rows))


class _GridRows:
    """Rows of a Wigner table, with the ``len()`` and ``body`` of :class:`Rows`."""

    def __init__(self, w: WignerGrid) -> None:
        self.grid = w.grid
        quadrant, self.ip, self.iq = w.fold
        self.w = Column(quadrant)
        self._w_rows: dict[bool, list[list[str]]] = {}

    def __len__(self) -> int:
        return self.grid.n_q * self.grid.n_p

    def body(self, fmt: str) -> Iterator[str]:
        """The text of :meth:`Rows.body`, one string per p row with the
        p-block separator between them."""
        block_sep, json_numbers = _BODY[fmt][2:]
        q, p = _axis_pieces(self.grid, fmt)
        n_q = len(q)
        # the w cells of each quadrant row, gathered to the n_q columns
        # once per flavour; p row i is quadrant row ip[i]
        w_rows = self._w_rows.get(json_numbers)
        if w_rows is None:
            w_rows = self._w_rows[json_numbers] = self.w.cells(json_numbers)[:, self.iq].tolist()
        row: list[str | None] = [None] * (3 * n_q)  # a q, a p and a w piece per point
        row[0::3] = q
        for i, (pc, k) in enumerate(zip(p, self.ip.tolist())):
            if i:
                yield block_sep
            row[1::3] = [pc] * n_q
            row[2::3] = w_rows[k]
            yield "".join(row)


@functools.lru_cache(maxsize=3)
def _axis_pieces(grid: QuadratureGrid, fmt: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The q and p pieces of a Wigner table row on ``grid``: each q piece
    but the first starts with the row separator, and every piece ends with
    the cell separator."""
    sep, row_sep, _, json_numbers = _BODY[fmt]
    q, p = ([f"{c}{sep}" for c in Column(axis).cells(json_numbers)]
            for axis in (grid.q_axis(), grid.p_axis()))
    return (q[0], *(row_sep + qc for qc in q[1:])), tuple(p)


def write_pieces(path: str | Path, *parts: Iterable[str]) -> None:
    """Write the strings of each of ``parts`` in order as one UTF-8 file
    with LF line endings, without joining them first."""
    # a 256 KiB buffer writes a streamed table in a few large writes
    with open(path, "w", encoding="utf-8", newline="\n", buffering=1 << 18) as f:
        for part in parts:
            f.writelines(part)


def write_csv(path: Path, columns: list[str], rows: Rows) -> None:
    body = (rows.body("csv"), ["\n"]) if len(rows) else ()
    write_pieces(path, [",".join(columns) + "\n"], *body)


def write_json(path: Path, spec: dict, columns: list[str], rows: Rows) -> None:
    head = json.dumps({"spec": spec, "columns": columns})
    body = (["["], rows.body("json"), ["]"]) if len(rows) else ()
    write_pieces(path, [f'{head[:-1]}, "rows": ['], *body, ["]}\n"])


def write_manifest(path: Path, spec: dict) -> None:
    path.write_text(
        json.dumps(spec, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline="\n"
    )


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


def write_gnuplot(path: str | Path, rows: Rows) -> None:
    """Write a Wigner table's ``rows`` as a gnuplot surface: a ``.gp``
    script at ``path`` plus the ``.dat`` grid file next to it, whose cells
    are those of the CSV table, streamed one p row at a time."""
    path = Path(path)
    dat = path.with_suffix(".dat")
    path.with_suffix(".gp").write_text(gnuplot_script(dat.name), encoding="utf-8", newline="\n")
    write_pieces(dat, rows.body("dat"), ["\n"])


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
    return ["q", "p", "w"], _GridRows(w)


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
