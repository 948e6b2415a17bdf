"""Correctness checks on the artifacts of one command, and their digests.

The checks hold for any correct solver: sampled spectrum rows against an
independent real-matrix ``numpy.linalg.eigvalsh`` oracle built here, the
g = 0 Wigner panels against the vacuum exp(-q^2 - p^2)/pi, entropies in
[0, 1] and 0 at g = 0, plus the full file set and every table header.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from workloads import LEVELS, SWEEP_G_MAX, SWEEP_G_MIN, SWEEP_G_STEPS, WIGNER_AXIS, Command

ENERGY_RTOL = 1e-9  # relative to max(1, |E|); the tables carry 12 digits
WIGNER_ATOL = 1e-10
ENTROPY_ATOL = 1e-9
WIGNER_BOUND = 1.0 / np.pi + 1e-8
SAMPLE_STRIDE = 25  # spectrum rows 0, 25, ..., 200 go to the oracle

# reproduce-paper preset: (name, n_max, diamagnetic)
PAPER_SPECTRA = (("fig1a", 2, False), ("fig1b", 2, True), ("fig2a", 15, False),
                 ("fig2b", 15, True))
PAPER_PANELS = (("fig4a", 2, False), ("fig4b", 2, True), ("fig5a", 15, False),
                ("fig5b", 15, True))
PAPER_SURFACES = ("fig6a", "fig6b", "fig7a", "fig7b")
PAPER_ENTROPY = ("fig8a", "fig8b")
PAPER_GS = (0.0, 0.5, 1.0, 3.0, 7.0, 10.0)

CROSSINGS_COLUMNS = ["level_lower", "level_upper", "g_at_min", "min_gap", "at_boundary"]
ENTROPY_COLUMNS = ["g_over_wc", "S_qrm_bits", "S_qrma_bits"]
WIGNER_COLUMNS = ["q", "p", "w"]


class CheckFailed(Exception):
    """An artifact that a correct run would not have written."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def oracle_levels(omega0: float, nmax: int, diamagnetic: bool, g: float, k: int) -> np.ndarray:
    """Lowest ``k`` levels of the truncated model (omega_c = 1), from a real
    dense matrix built independently of qrabi."""
    a = np.diag(np.sqrt(np.arange(1.0, nmax)), 1)
    x = a + a.T
    h = (np.kron(np.eye(2), np.diag(np.arange(nmax, dtype=float)))
         + 0.5 * omega0 * np.kron(np.diag([1.0, -1.0]), np.eye(nmax))
         + g * np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), x))
    if diamagnetic:
        h += g * g * np.kron(np.eye(2), x @ x)
    return np.linalg.eigvalsh(h)[:k]


def _g_grid(steps: int) -> np.ndarray:
    return np.linspace(SWEEP_G_MIN, SWEEP_G_MAX, steps)


def _read_csv(path: Path, columns: list[str], n_rows: int) -> np.ndarray:
    _require(path.is_file(), f"{path.name} is missing")
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
    _require(header == columns, f"{path.name}: header {header} != {columns}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    _require(data.shape == (n_rows, len(columns)),
             f"{path.name}: shape {data.shape} != {(n_rows, len(columns))}")
    _require(bool(np.all(np.isfinite(data))), f"{path.name}: non-finite values")
    return data


def _check_json(path: Path, columns: list[str], csv_data: np.ndarray | None, n_rows: int) -> None:
    _require(path.is_file(), f"{path.name} is missing")
    doc = json.loads(path.read_text(encoding="utf-8"))
    _require(list(doc) == ["spec", "columns", "rows"], f"{path.name}: keys {list(doc)}")
    _require(doc["columns"] == columns, f"{path.name}: columns {doc['columns']}")
    _require(len(doc["rows"]) == n_rows, f"{path.name}: {len(doc['rows'])} rows")
    if csv_data is not None:
        _require(np.array_equal(np.array(doc["rows"], dtype=float), csv_data),
                 f"{path.name}: rows differ from the CSV")


def _check_levels(name: str, data: np.ndarray, omega0: float, nmax: int, dia: bool) -> None:
    k = data.shape[1] - 1
    _require(np.allclose(data[:, 0], _g_grid(data.shape[0]), rtol=0, atol=1e-12),
             f"{name}: g column is not the sweep grid")
    _require(bool(np.all(np.diff(data[:, 1:], axis=1) >= 0)), f"{name}: levels not ascending")
    for i in range(0, data.shape[0], SAMPLE_STRIDE):
        ref = oracle_levels(omega0, nmax, dia, data[i, 0], k)
        err = np.max(np.abs(data[i, 1:] - ref) / np.maximum(1.0, np.abs(ref)))
        _require(err <= ENERGY_RTOL, f"{name}: row {i} differs from the oracle by {err:.2e}")


def _check_spectrum(out: Path, name: str, cmd: Command, nmax: int, dia: bool) -> None:
    k = min(LEVELS, 2 * nmax)
    columns = ["g_over_wc"] + [f"E{i}" for i in range(k)]
    data = None
    if "csv" in cmd.formats:
        data = _read_csv(out / f"{name}.csv", columns, SWEEP_G_STEPS)
        _check_levels(name, data, cmd.omega0, nmax, dia)
    if "json" in cmd.formats:
        _check_json(out / f"{name}.json", columns, data, SWEEP_G_STEPS)


def _check_entropy(out: Path, name: str, cmd: Command, steps: int) -> None:
    data = None
    if "csv" in cmd.formats:
        data = _read_csv(out / f"{name}.csv", ENTROPY_COLUMNS, steps)
        s = data[:, 1:]
        _require(bool(np.all((s >= -ENTROPY_ATOL) & (s <= 1.0 + ENTROPY_ATOL))),
                 f"{name}: entropy outside [0, 1]")
        _require(data[0, 0] == 0.0 and bool(np.all(np.abs(s[0]) <= ENTROPY_ATOL)),
                 f"{name}: entropy at g = 0 is {s[0]}")
    if "json" in cmd.formats:
        _check_json(out / f"{name}.json", ENTROPY_COLUMNS, data, steps)


def _vacuum(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    return np.exp(-q * q - p * p) / np.pi


def _check_wigner_values(name: str, data: np.ndarray, vacuum: bool) -> None:
    lo, hi, n = WIGNER_AXIS
    axis = np.linspace(lo, hi, n)
    _require(np.allclose(data[:, 0], np.tile(axis, n), rtol=0, atol=1e-12)
             and np.allclose(data[:, 1], np.repeat(axis, n), rtol=0, atol=1e-12),
             f"{name}: (q, p) columns are not the quadrature grid")
    _require(bool(np.all(np.abs(data[:, 2]) <= WIGNER_BOUND)), f"{name}: |W| exceeds 1/pi")
    if vacuum:
        err = np.max(np.abs(data[:, 2] - _vacuum(data[:, 0], data[:, 1])))
        _require(err <= WIGNER_ATOL, f"{name}: g = 0 panel differs from the vacuum by {err:.2e}")


def _check_wigner(out: Path, name: str, cmd: Command, vacuum: bool, parse_all: bool) -> None:
    n_rows = WIGNER_AXIS[2] ** 2
    parse = vacuum or parse_all
    data = None
    if "csv" in cmd.formats:
        if parse:
            data = _read_csv(out / f"{name}.csv", WIGNER_COLUMNS, n_rows)
            _check_wigner_values(name, data, vacuum)
        else:
            _check_line_count(out / f"{name}.csv", ",".join(WIGNER_COLUMNS), n_rows)
    if "json" in cmd.formats:
        if parse:
            _check_json(out / f"{name}.json", WIGNER_COLUMNS, data, n_rows)
        else:
            _check_json_shape(out / f"{name}.json", WIGNER_COLUMNS, n_rows)
    if "svg" in cmd.formats:
        _check_svg(out / f"{name}.svg")
    if "gnuplot" in cmd.formats:
        script = (out / f"{name}.gp").read_text(encoding="utf-8")
        _require(f"splot '{name}.dat'" in script, f"{name}.gp does not plot {name}.dat")
        dat = out / f"{name}.dat"
        if vacuum:
            data = np.loadtxt(dat, ndmin=2)
            _require(data.shape == (n_rows, 3), f"{dat.name}: shape {data.shape}")
            _check_wigner_values(dat.name, data, vacuum)
        else:
            text = dat.read_bytes()
            rows = text.count(b"\n") - text.count(b"\n\n")
            _require(rows == n_rows, f"{dat.name}: {rows} rows")


def _check_json_shape(path: Path, columns: list[str], n_rows: int) -> None:
    """Structure and row count of a large JSON table, without parsing it."""
    _require(path.is_file(), f"{path.name} is missing")
    text = path.read_text(encoding="utf-8")
    head = f'"columns": {json.dumps(columns)}, "rows": [['
    _require(text.startswith('{"spec": {') and head in text and text.endswith("]]}\n"),
             f"{path.name}: not a {{spec, columns, rows}} table of {columns}")
    rows = text.count("], [") + 1
    _require(rows == n_rows, f"{path.name}: {rows} rows")


def _check_line_count(path: Path, header: str, n_rows: int) -> None:
    _require(path.is_file(), f"{path.name} is missing")
    text = path.read_bytes()
    _require(text.startswith(header.encode() + b"\n"), f"{path.name}: bad header")
    rows = text.count(b"\n") - 1
    _require(rows == n_rows, f"{path.name}: {rows} rows")


def _check_svg(path: Path) -> None:
    text = path.read_text(encoding="utf-8")
    _require(text.startswith("<svg ") and text.endswith("</svg>\n"),
             f"{path.name} is not a complete SVG document")


def _check_crossings(out: Path, cmd: Command) -> None:
    data = _read_csv(out / "crossings.csv", CROSSINGS_COLUMNS, LEVELS - 1)
    _require(np.array_equal(data[:, 0], np.arange(LEVELS - 1))
             and np.array_equal(data[:, 1], np.arange(1, LEVELS)),
             "crossings: level pairs are not (k, k+1)")
    _require(bool(np.all(np.isin(data[:, 4], (0.0, 1.0)))), "crossings: at_boundary not 0/1")
    _require(bool(np.all((data[:, 2] >= SWEEP_G_MIN) & (data[:, 2] <= SWEEP_G_MAX))),
             "crossings: g_at_min outside the sweep")
    _require(bool(np.all(data[:, 3] >= 0.0)), "crossings: negative gap")
    # the minimal gap over the sweep is no larger than the gap at any grid point
    grid = _g_grid(cmd.g_steps)
    for g in grid[::SAMPLE_STRIDE]:
        gaps = np.diff(oracle_levels(cmd.omega0, cmd.nmax, cmd.diamagnetic, g, LEVELS))
        _require(bool(np.all(data[:, 3] <= gaps * (1.0 + ENERGY_RTOL) + ENERGY_RTOL)),
                 f"crossings: min_gap exceeds the oracle gap at g = {g:g}")


def expected_files(cmd: Command) -> set[str]:
    """Names of every file the command writes into its output directory."""
    if cmd.kind != "reproduce-paper":
        return {f"{cmd.kind}.csv", "manifest.json"}
    suffixes = {"csv": (".csv",), "json": (".json",), "svg": (".svg",), "gnuplot": (".gp", ".dat")}
    tables = [n for n, _, _ in PAPER_SPECTRA] + list(PAPER_ENTROPY)
    panels = [f"{n}_g{_g_label(g)}" for n, _, _ in PAPER_PANELS for g in PAPER_GS]
    panels += list(PAPER_SURFACES)
    names = {"manifest.json"}
    for fmt in cmd.formats:
        for suffix in suffixes[fmt]:
            if suffix in (".csv", ".json", ".svg"):
                names.update(n + suffix for n in tables)
            names.update(n + suffix for n in panels)
    return names


def _g_label(g: float) -> str:
    return f"{g:.12g}".replace(".", "p")


def check(cmd: Command, out: Path) -> None:
    """Raise CheckFailed if the artifacts of ``cmd`` in ``out`` are wrong."""
    found = {p.name for p in out.iterdir()} if out.is_dir() else set()
    expected = expected_files(cmd)
    _require(found == expected, f"{cmd.out}: missing {sorted(expected - found)[:5]}, "
                                f"unexpected {sorted(found - expected)[:5]}")
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    _require(manifest.get("command") == cmd.kind,
             f"{cmd.out}: manifest names {manifest.get('command')!r}")

    if cmd.kind == "spectrum":
        _check_spectrum(out, "spectrum", cmd, cmd.nmax, cmd.diamagnetic)
    elif cmd.kind == "crossings":
        _check_crossings(out, cmd)
    elif cmd.kind == "entropy":
        _check_entropy(out, "entropy", cmd, cmd.g_steps)
    elif cmd.kind == "wigner":
        _check_wigner(out, "wigner", cmd, vacuum=cmd.g == 0.0, parse_all=True)
    else:
        for name, nmax, dia in PAPER_SPECTRA:
            if "svg" in cmd.formats:
                _check_svg(out / f"{name}.svg")
            _check_spectrum(out, name, cmd, nmax, dia)
        for name in PAPER_ENTROPY:
            if "svg" in cmd.formats:
                _check_svg(out / f"{name}.svg")
            _check_entropy(out, name, cmd, SWEEP_G_STEPS)
        for name, _, _ in PAPER_PANELS:
            for g in PAPER_GS:
                _check_wigner(out, f"{name}_g{_g_label(g)}", cmd, vacuum=g == 0.0,
                              parse_all=False)
        for name in PAPER_SURFACES:
            _check_wigner(out, name, cmd, vacuum=False, parse_all=False)


def digests(root: Path) -> dict[str, dict]:
    """sha256 and size of every file under ``root``, keyed by relative path."""
    out = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        out[path.relative_to(root).as_posix()] = {
            "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    return out


def bundle_digest(files: dict[str, dict]) -> str:
    """One sha256 over the sorted (path, file digest) pairs."""
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(f"{name}\0{files[name]['sha256']}\n".encode())
    return h.hexdigest()
