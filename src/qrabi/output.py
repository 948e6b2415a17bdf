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

Tables are held column-wise (:class:`Column`, :class:`Rows`).  A column's
distinct values are found by one sort and each is formatted once; its
per-row cell list is built once and shared by the CSV writer and the
gnuplot data file.  Its JSON cells are the CSV cells except for the few
that :func:`_json_number` rewrites (integer-valued, ``e+``, ``e-3xx`` and
non-finite cells), so a column where none is rewritten reuses the CSV
list.  A Wigner table's body is cached per grid and format as a list of
pieces, a q piece, a p piece and a w slot per row, that share the grid's
q and p strings; a panel puts its w cells into the slots, joins the list
and empties the slots again.  Files are written in pieces (header, body,
tail) without joining them into one string.  The CLI writes a panel equal
to a written one as a copy.
"""

from __future__ import annotations

import functools
import json
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
    """One typed table column: float64, integer or bool values."""

    def __init__(self, values) -> None:
        self.values = np.asarray(values)

    def __len__(self) -> int:
        return self.values.size

    @functools.cached_property
    def _distinct(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct values in ascending order and the index of each value's one."""
        values = self.values if self.values.dtype.kind in "biu" else self.values + 0.0
        return np.unique(values, return_inverse=True)  # + 0.0 canonicalizes -0.0

    @functools.cached_property
    def _text(self) -> list[str]:
        """CSV cell of each distinct value, each formatted once."""
        distinct = self._distinct[0]
        fmt = "%d\n" if distinct.dtype.kind in "biu" else "%.12g\n"
        return (fmt * distinct.size % tuple(distinct.tolist())).splitlines()

    def _expand(self, text: list[str]) -> list[str]:
        return np.array(text, dtype=object)[self._distinct[1]].tolist()

    @functools.cached_property
    def _csv_cells(self) -> list[str]:
        return self._expand(self._text)

    @functools.cached_property
    def _json_cells(self) -> list[str]:
        kind = self.values.dtype.kind
        if kind == "b":
            return self._expand(["true" if c == "1" else "false" for c in self._text])
        if kind in "iu":
            return self._csv_cells
        # _json_number rewrites only integer-valued, "e+", "e-3xx" and
        # nan/inf cells, so it runs on a superset of them: values within
        # 1e-10 of their size of an integer (the 12-digit rounding moves a
        # value by under 5e-12 of its size, and every value from 5e9 up
        # passes, which covers all "e+" cells), values below 1e-298, and
        # nan and infinities, set to 0 here
        x = self._distinct[0]
        x = np.where(np.isfinite(x), x, 0.0)
        size = np.abs(x)
        rewrite = (size < 1e-298) | (np.abs(x - np.rint(x)) <= 1e-10 * size)
        text = list(self._text)
        for i in np.flatnonzero(rewrite).tolist():
            text[i] = _json_number(text[i])
        return self._csv_cells if text == self._text else self._expand(text)

    def cells(self, json_numbers: bool = False) -> list[str]:
        """Cell text of every row, as CSV or as JSON numbers; the list is
        built once per column and shared, so callers must not change it."""
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

    def body(self, fmt: str) -> str:
        """Rows as csv, json or dat text, without header, brackets or final newline."""
        sep, row_sep, _, json_numbers = _BODY[fmt]
        rows = zip(*(c.cells(json_numbers) for c in self.columns))
        return row_sep.join(map(sep.join, rows))


class _GridRows:
    """Rows of a Wigner table, with the ``len()`` and ``body`` of :class:`Rows`;
    their q, p text is the grid's cached skeleton."""

    def __init__(self, w: WignerGrid) -> None:
        self.grid = w.grid
        self.w = Column(w.values.ravel())

    def __len__(self) -> int:
        return self.grid.n_q * self.grid.n_p

    def body(self, fmt: str) -> str:
        pieces = _skeleton(self.grid, fmt)
        pieces[2::3] = self.w.cells(_BODY[fmt][3])
        text = "".join(pieces)
        pieces[2::3] = [None] * len(self)  # the cache keeps no panel's cells
        return text


@functools.lru_cache(maxsize=3)
def _skeleton(grid: QuadratureGrid, fmt: str) -> list[str | None]:
    """Body of a Wigner table on ``grid`` as a q piece, a p piece and a w
    slot per row, ready for ``"".join`` once the slots hold the w cells.
    A q piece starts with the separator from the previous row, and the
    pieces of all rows share the grid's q and p strings."""
    sep, row_sep, block_sep, json_numbers = _BODY[fmt]
    q, p = ([f"{c}{sep}" for c in Column(axis).cells(json_numbers)]
            for axis in (grid.q_axis(), grid.p_axis()))
    heads = [block_sep + q[0]] + [row_sep + qc for qc in q[1:]]
    pieces = [piece for pc in p for qc in heads for piece in (qc, pc, None)]
    pieces[0] = q[0]  # the body starts without a separator
    return pieces


def write_pieces(path: Path, *pieces: str) -> None:
    """Write ``pieces`` in order as one UTF-8 file with LF line endings,
    without joining them first."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.writelines(pieces)


def write_csv(path: Path, columns: list[str], rows: Rows) -> None:
    body = (rows.body("csv"), "\n") if len(rows) else ()
    write_pieces(path, ",".join(columns) + "\n", *body)


def write_json(path: Path, spec: dict, columns: list[str], rows: Rows) -> None:
    head = json.dumps({"spec": spec, "columns": columns})
    body = ("[", rows.body("json"), "]") if len(rows) else ()
    write_pieces(path, f'{head[:-1]}, "rows": [', *body, "]}\n")


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
