"""Artifact writers: byte equality with a per-cell reference, pinned bytes
of small CLI runs, and the gnuplot data file."""

import base64
import hashlib
import json
import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from qrabi import plotting
from qrabi.cli import EXIT_OK, _copy_wigner, _emit, main
from qrabi.entanglement import entropy_sweep
from qrabi.model import ModelConfig
from qrabi.output import (
    Column,
    Rows,
    crossings_table,
    spectrum_table,
    wigner_table,
    write_csv,
    write_gnuplot,
    write_json,
)
from qrabi.plotting import _Frame, _axes, _document, _fmt, entropy_svg, spectrum_svg, wigner_svg
from qrabi.spectra import CrossingReport, SpectrumSweep, sweep_spectrum
from qrabi.wigner import QuadratureGrid, WignerGrid, ground_state_wigner


# Reference: the per-cell writers the column-wise ones replaced.

def ref_format_float(x) -> str:
    return f"{float(x) + 0.0:.12g}"


def ref_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return ref_format_float(value)


def ref_json_row(row) -> list:
    out = []
    for v in row:
        if isinstance(v, (bool, np.bool_)):
            out.append(bool(v))
        elif isinstance(v, (int, np.integer)):
            out.append(int(v))
        else:
            out.append(float(ref_format_float(v)))
    return out


def ref_csv(columns, rows) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(ref_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def ref_json(spec, columns, rows) -> str:
    doc = {"spec": spec, "columns": columns, "rows": [ref_json_row(r) for r in rows]}
    return json.dumps(doc) + "\n"


SPEC = {"command": "test", "nmax": 2, "formats": ["csv", "json"], "d_override": None}

EDGE_FLOATS = [
    -0.0, 0.0, -6.0, 6.0, 1e-05, -1e-05, 1.5e13, -1.5e13, 1e16, 1.5e16, 1e12, 1e11,
    999999999999.9, 123456789012.5, 0.99999999999999, 0.0001, 0.00012, -2.5e-07,
    0.1, 1 / 3, 3.7e-31, 1e-300, 1.2e-305, 2.5e-310, 5e-324, 1.7976931348623157e308,
    float("nan"), float("inf"), float("-inf"),
]


def write_both(tmp_path, columns, rows):
    write_csv(tmp_path / "t.csv", columns, rows)
    write_json(tmp_path / "t.json", SPEC, columns, rows)
    return (tmp_path / "t.csv").read_bytes(), (tmp_path / "t.json").read_bytes()


def test_float_edge_cases_match_reference(tmp_path):
    a = np.array(EDGE_FLOATS)
    b = -a[::-1]
    csv, js = write_both(tmp_path, ["a", "b"], Rows(Column(a), Column(b)))
    ref_rows = [[x, y] for x, y in zip(a, b)]
    assert csv == ref_csv(["a", "b"], ref_rows).encode()
    assert js == ref_json(SPEC, ["a", "b"], ref_rows).encode()


def test_float_edge_cases_documented_text(tmp_path):
    a = np.array([-0.0, -6.0, 1e-05, 1.5e13, 1e16, float("nan"), float("inf")])
    csv, js = write_both(tmp_path, ["x"], Rows(Column(a)))
    assert csv.decode().split("\n")[1:-1] == [
        "0", "-6", "1e-05", "1.5e+13", "1e+16", "nan", "inf"
    ]
    assert js.decode().endswith(
        '"rows": [[0.0], [-6.0], [1e-05], [15000000000000.0], [1e+16], [NaN], '
        "[Infinity]]}\n"
    )


def test_repeated_values_match_reference(tmp_path):
    # each distinct value is formatted once; interleaved repeats, both signed
    # zeros and every nan must still get their own cell
    distinct = np.array([-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 5e-324,
                         -2.5e-310, 1.2e-305, 1.5e13, -1.5e13, 0.1])
    rng = np.random.default_rng(3)
    a = np.concatenate([np.tile(distinct, 3), np.repeat(distinct, 2),
                        distinct[rng.integers(0, distinct.size, 200)]])
    b = -a[::-1]
    csv, js = write_both(tmp_path, ["a", "b"], Rows(Column(a), Column(b)))
    ref_rows = [[x, y] for x, y in zip(a, b)]
    assert csv == ref_csv(["a", "b"], ref_rows).encode()
    assert js == ref_json(SPEC, ["a", "b"], ref_rows).encode()


def test_json_rewrite_thresholds_match_reference(tmp_path):
    # values on both sides of each bound of the JSON rewrite filter: cells
    # that round to an integer, to an "e+" cell (1e12 up) or to an "e-3xx"
    # cell (below 1e-299, subnormals included), and their neighbours
    a = np.array([
        1e11, np.nextafter(1e11, 0.0), np.nextafter(1e11, np.inf),
        999999999999.4, 999999999999.5,
        1e-298, 1e-299, 2.2250738585072014e-308, 1.23456789e-310, 5e-324,
        0.9999999999996, 2.0000000000004, -3.0000000000001, 12345678901.99999,
        0.0, -0.0, 1e15 + 0.5,
    ])
    b = -a[::-1]
    csv, js = write_both(tmp_path, ["a", "b"], Rows(Column(a), Column(b)))
    ref_rows = [[x, y] for x, y in zip(a, b)]
    assert csv == ref_csv(["a", "b"], ref_rows).encode()
    assert js == ref_json(SPEC, ["a", "b"], ref_rows).encode()


def test_random_floats_match_reference(tmp_path):
    rng = np.random.default_rng(7)
    n = 4000
    mags = 10.0 ** rng.uniform(-323, 308, n)
    a = np.where(rng.random(n) < 0.5, -mags, mags)
    ints = np.round(rng.uniform(-1e6, 1e6, n))
    # often integer-valued once rounded to 12 digits
    rounded = np.round(10.0 ** rng.uniform(-6, 14, n), 11)
    rows = Rows(Column(a), Column(ints), Column(rounded))
    csv, js = write_both(tmp_path, ["a", "i", "r"], rows)
    ref_rows = list(zip(a, ints, rounded))
    assert csv == ref_csv(["a", "i", "r"], ref_rows).encode()
    assert js == ref_json(SPEC, ["a", "i", "r"], ref_rows).encode()


def test_crossings_int_and_bool_columns(tmp_path):
    reports = [
        CrossingReport((0, 1), 3.0, 0.162277660168, True),
        CrossingReport((1, 2), 1.25, -0.0, False),
        CrossingReport((6, 7), 0.5, 1.5e13, True),
    ]
    columns, rows = crossings_table(reports)
    assert len(rows) == 3
    csv, js = write_both(tmp_path, columns, rows)
    ref_rows = [[r.level_pair[0], r.level_pair[1], r.g_at_min, r.min_gap, r.at_boundary]
                for r in reports]
    assert csv == ref_csv(columns, ref_rows).encode()
    assert js == ref_json(SPEC, columns, ref_rows).encode()
    assert csv.decode().split("\n")[1] == "0,1,3,0.162277660168,1"
    assert csv.decode().split("\n")[2] == "1,2,1.25,0,0"
    assert json.loads(js)["rows"][0] == [0, 1, 3.0, 0.162277660168, True]
    assert b"[1, 2, 1.25, 0.0, false]" in js


def test_empty_table(tmp_path):
    columns, rows = crossings_table([])
    assert len(rows) == 0
    csv, js = write_both(tmp_path, columns, rows)
    assert csv == ref_csv(columns, []).encode()
    assert js == ref_json(SPEC, columns, []).encode()


def test_spectrum_table_matches_reference(tmp_path):
    g = np.linspace(0.0, 3.0, 7)
    levels = np.column_stack([-g * 2, -g ** 2 / 3, g + 0.5])
    sweep = SpectrumSweep(g, levels, "QRM")
    columns, rows = spectrum_table(sweep)
    assert len(rows) == 7
    csv, js = write_both(tmp_path, columns, rows)
    ref_rows = [[gv, *lv] for gv, lv in zip(g, levels)]
    assert csv == ref_csv(columns, ref_rows).encode()
    assert js == ref_json(SPEC, columns, ref_rows).encode()


def small_wigner() -> WignerGrid:
    grid = QuadratureGrid(-1.5, 1.5, -1.0, 2.0, 4, 3)
    values = np.array([[-0.0, 0.1, 1e-05, 0.2],
                       [0.0, -0.25, 3e-13, 0.3],
                       [-1e-07, 0.125, 0.31, -0.05]])
    return WignerGrid(grid, values)


def mirror_wigner() -> WignerGrid:
    """A 9 x 8 grid equal to its mirror images in both axes, so it folds to
    its 5 x 4 quadrant, with mirrored pairs of 0.0 and -0.0."""
    rng = np.random.default_rng(23)
    quadrant = rng.uniform(-0.3, 0.3, (5, 4))
    quadrant[0, 1], quadrant[3, 0], quadrant[4, 3] = 0.0, -0.0, 1e-05
    values = np.hstack([quadrant[:, ::-1], quadrant])
    values = np.vstack([values[1:][::-1], values])
    values[4, 2], values[1, 4] = -0.0, 0.0  # the mirrors of [4, 5] = 0.0 and [7, 4] = -0.0
    w = WignerGrid(QuadratureGrid(-2.0, 2.0, -1.5, 1.5, 8, 9), values)
    assert w.fold[0].shape == (5, 4)
    return w


def test_wigner_table_and_dat_match_reference(tmp_path):
    w = small_wigner()
    q, p = w.grid.q_axis(), w.grid.p_axis()
    columns, rows = wigner_table(w)
    assert len(rows) == 12
    csv, js = write_both(tmp_path, columns, rows)
    ref_rows = [[qv, pv, w.values[i, j]] for i, pv in enumerate(p) for j, qv in enumerate(q)]
    assert csv == ref_csv(columns, ref_rows).encode()
    assert js == ref_json(SPEC, columns, ref_rows).encode()

    write_gnuplot(str(tmp_path / "w.gp"), rows)  # a str path works as a Path does
    assert "splot 'w.dat' using 1:2:3" in (tmp_path / "w.gp").read_text()
    assert (tmp_path / "w.dat").read_text() == ref_dat(w)


def ref_dat(w: WignerGrid) -> str:
    q, p = w.grid.q_axis(), w.grid.p_axis()
    blocks = ["\n".join(f"{ref_format_float(q[j])} {ref_format_float(pv)} "
                        f"{ref_format_float(w.values[i, j])}" for j in range(len(q)))
              for i, pv in enumerate(p)]
    return "\n\n".join(blocks) + "\n"


def test_dat_prints_negative_zero_as_zero(tmp_path):
    # the .dat shares the table cells, so -0.0 is written as 0 as in the CSV
    write_gnuplot(tmp_path / "w.gp", wigner_table(small_wigner())[1])
    dat = (tmp_path / "w.dat").read_text()
    first = dat.split("\n")[0]
    assert first == "-1.5 -1 0"
    assert all("-0 " not in line and not line.endswith(" -0") for line in dat.split("\n"))


# Reference: the per-cell colour of the rect heatmap the PNG one replaced,
# and a PNG decoder that checks every structure the renderer promises.

def ref_diverging_color(v: float, vmax: float) -> str:
    t = min(abs(v) / vmax, 1.0) if vmax > 0 else 0.0
    if v >= 0:
        r, g, b = 255 - t * (255 - 178), 255 - t * (255 - 24), 255 - t * (255 - 43)
    else:
        r, g, b = 255 - t * (255 - 33), 255 - t * (255 - 102), 255 - t * (255 - 172)
    return f"#{int(r):02x}{int(g):02x}{int(b):02x}"


def decode_png(png: bytes) -> np.ndarray:
    """(rows, columns, 3) uint8 pixels of an 8-bit RGB PNG with one IDAT of
    stored deflate blocks and filter 0 on every row; fails on anything else."""
    assert png[:8] == b"\x89PNG\r\n\x1a\n"
    chunks, pos = [], 8
    while pos < len(png):
        (length,) = struct.unpack(">I", png[pos:pos + 4])
        tag, data = png[pos + 4:pos + 8], png[pos + 8:pos + 8 + length]
        (crc,) = struct.unpack(">I", png[pos + 8 + length:pos + 12 + length])
        assert crc == zlib.crc32(tag + data), tag
        chunks.append((tag, data))
        pos += 12 + length
    assert pos == len(png)
    assert [tag for tag, _ in chunks] == [b"IHDR", b"IDAT", b"IEND"]
    n_cols, n_rows, depth, colour, *methods = struct.unpack(">IIBBBBB", chunks[0][1])
    assert (depth, colour, methods) == (8, 2, [0, 0, 0])
    idat = chunks[1][1]
    assert idat[0] & 0x0F == 8 and (idat[0] * 256 + idat[1]) % 31 == 0
    raw, pos, final = b"", 2, False
    while not final:
        final, btype = idat[pos] & 1, idat[pos] >> 1
        assert btype == 0  # stored, with no other header bits set
        length, nlength = struct.unpack("<HH", idat[pos + 1:pos + 5])
        assert nlength == length ^ 0xFFFF
        raw += idat[pos + 5:pos + 5 + length]
        pos += 5 + length
    assert idat[pos:] == struct.pack(">I", zlib.adler32(raw))
    assert zlib.decompress(idat) == raw
    rows = np.frombuffer(raw, np.uint8).reshape(n_rows, 1 + 3 * n_cols)
    assert not rows[:, 0].any()  # filter byte 0 on each row
    return rows[:, 1:].reshape(n_rows, n_cols, 3)


IMAGE = re.compile(
    r'<image x="([0-9.-]+)" y="([0-9.-]+)" width="([0-9.]+)" height="([0-9.]+)" '
    r'preserveAspectRatio="none" style="image-rendering:pixelated" '
    r'href="data:image/png;base64,([A-Za-z0-9+/=]+)"/>')


def assert_heatmap_matches_reference(svg: str, w: WignerGrid):
    grid = w.grid
    frame = _Frame(grid.q_min, grid.q_max, grid.p_min, grid.p_max)
    image = IMAGE.fullmatch(svg.split("\n")[2])
    assert image is not None
    assert svg == _document([image.group(0)] + _axes(frame, "q", "p"))
    x, y, width, height = map(float, image.groups()[:4])
    # pixel centres sit on the samples, to the two printed decimals
    q_centres = x + (np.arange(grid.n_q) + 0.5) * width / grid.n_q
    p_centres = y + (np.arange(grid.n_p) + 0.5) * height / grid.n_p
    assert np.max(np.abs(q_centres - frame.x(grid.q_axis()))) <= 0.01
    assert np.max(np.abs(p_centres - frame.y(grid.p_axis()[::-1]))) <= 0.01
    pixels = decode_png(base64.b64decode(image.group(5), validate=True))
    assert pixels.shape == (grid.n_p, grid.n_q, 3)
    vmax = float(np.max(np.abs(w.values)))
    for r in range(grid.n_p):  # PNG rows run from p_max down to p_min
        i = grid.n_p - 1 - r
        for j in range(grid.n_q):
            got = "#%02x%02x%02x" % tuple(pixels[r, j])
            assert got == ref_diverging_color(float(w.values[i, j]), vmax), (i, j)


def heatmap_grids():
    rng = np.random.default_rng(11)
    # both signs reach vmax, so t is clamped at 1 on either branch
    clamp = np.array([[0.3, -0.3, 0.15], [-0.15, 0.0, -0.0]])
    qrma = ModelConfig(g=3.0, include_diamagnetic=True, n_max=15)
    return [
        pytest.param(small_wigner(), id="small"),
        pytest.param(WignerGrid(QuadratureGrid(-1.0, 1.0, -2.0, 2.0, 5, 4), np.zeros((4, 5))),
                     id="zero"),
        pytest.param(WignerGrid(QuadratureGrid(0.0, 1.0, 0.0, 1.0, 3, 2), clamp), id="clamp"),
        pytest.param(WignerGrid(QuadratureGrid(-4.5, 2.0, -1.0, 6.0, 37, 11),
                                rng.uniform(-0.2, 0.3, (11, 37))), id="37x11"),
        pytest.param(WignerGrid(QuadratureGrid(), rng.uniform(-1 / np.pi, 1 / np.pi, (201, 201))),
                     id="random"),
        pytest.param(ground_state_wigner(qrma, QuadratureGrid()), id="qrma_g3_nmax15"),
        pytest.param(mirror_wigner(), id="mirror_9x8"),
    ]


def assert_same_text(got, want):
    if got != want:  # name the first differing line, not a megabyte diff
        lines = zip(got.split("\n"), want.split("\n"))
        i, (a, b) = next(((i, ab) for i, ab in enumerate(lines) if ab[0] != ab[1]),
                         (None, (len(got), len(want))))
        pytest.fail(f"line {i}: {a!r} != reference {b!r}")


@pytest.mark.parametrize("w", heatmap_grids())
def test_wigner_svg_matches_per_cell_reference(w):
    svg = wigner_svg(w)
    assert_heatmap_matches_reference(svg, w)
    assert wigner_svg(w) == svg  # rendering twice gives the same bytes


# Reference: the per-point polyline the one-pass one replaced.

def ref_polyline(frame, xs, ys, color, dashed=False):
    pts = " ".join(f"{_fmt(frame.x(x))},{_fmt(frame.y(y))}" for x, y in zip(xs, ys))
    dash = ' stroke-dasharray="6 4"' if dashed else ""
    return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"{dash}/>'


def polyline_sweeps():
    grid = np.linspace(0.0, 3.0, 201)
    qrm = ModelConfig(n_max=15)
    flat = SpectrumSweep(np.linspace(0.5, 1.5, 7), np.full((7, 2), -0.25), "QRM")
    return [
        # 8 levels, down to E0 = -8.89 at g = 3
        pytest.param(sweep_spectrum(qrm, grid, 8), spectrum_svg, id="spectrum_nmax15"),
        # the QRMA curve is dashed
        pytest.param(entropy_sweep(qrm, grid), entropy_svg, id="entropy_nmax15"),
        # all levels equal, so the frame widens its y range by 1
        pytest.param(flat, spectrum_svg, id="flat"),
    ]


@pytest.mark.parametrize("sweep, render", polyline_sweeps())
def test_sweep_svg_matches_per_point_reference(monkeypatch, sweep, render):
    got = render(sweep)
    assert got.count("<polyline") == (sweep.levels.shape[1] if render is spectrum_svg else 2)
    monkeypatch.setattr(plotting, "_polyline", ref_polyline)
    assert_same_text(got, render(sweep))


def assert_wigner_files_match_reference(tmp_path, w, spec=SPEC):
    columns, rows = wigner_table(w)
    write_csv(tmp_path / "t.csv", columns, rows)
    write_json(tmp_path / "t.json", spec, columns, rows)
    ref_rows = [[qv, pv, w.values[i, j]] for i, pv in enumerate(w.grid.p_axis())
                for j, qv in enumerate(w.grid.q_axis())]
    assert_same_text((tmp_path / "t.csv").read_text(), ref_csv(columns, ref_rows))
    assert_same_text((tmp_path / "t.json").read_text(), ref_json(spec, columns, ref_rows))
    write_gnuplot(tmp_path / "t.gp", rows)
    assert_same_text((tmp_path / "t.dat").read_text(), ref_dat(w))
    assert_heatmap_matches_reference(wigner_svg(w), w)


def streamed_grids():
    rng = np.random.default_rng(5)
    qrm = ModelConfig(g=1.0, n_max=15)
    return [
        pytest.param(ground_state_wigner(qrm, QuadratureGrid()), id="preset_g1_nmax15"),
        pytest.param(small_wigner(), id="small"),
        pytest.param(WignerGrid(QuadratureGrid(-4.5, 2.0, -1.0, 6.0, 37, 11),
                                rng.uniform(-0.2, 0.3, (11, 37))), id="37x11"),
        pytest.param(WignerGrid(QuadratureGrid(-1.0, 1.0, -1.0, 1.0, 2, 2),
                                np.array([[0.1, -0.0], [1e-05, -0.2]])), id="2x2"),
        pytest.param(mirror_wigner(), id="mirror_9x8"),
    ]


@pytest.mark.parametrize("w", streamed_grids())
def test_streamed_wigner_rows_match_per_cell_reference(tmp_path, w):
    # every Wigner format is streamed one p row at a time from the grid's
    # q and p pieces and the panel's w cells; the per-cell writers above
    # are the reference
    assert_wigner_files_match_reference(tmp_path, w)


def test_axis_pieces_are_cached_per_grid_bounds(tmp_path):
    # output._axis_pieces caches a grid's q and p pieces by its bounds and
    # shape; two grids of one shape and different bounds, written alternately,
    # would read the other's q and p pieces if the key left the bounds out
    rng = np.random.default_rng(9)
    grids = [QuadratureGrid(-2.0, 2.0, -1.0, 1.0, 5, 4), QuadratureGrid(-1.0, 3.0, 0.5, 2.5, 5, 4)]
    for grid in grids * 2:
        assert_wigner_files_match_reference(
            tmp_path, WignerGrid(grid, rng.uniform(-0.3, 0.3, (4, 5))))


@pytest.mark.parametrize("suffix", [".csv", ".json", ".dat"])
def test_wigner_writes_hold_one_row_at_a_time(tmp_path, suffix):
    # once a table's cells are built, writing it again holds no text of
    # the whole body (nor an encoded copy), only one p row at a time
    rng = np.random.default_rng(17)
    grid = QuadratureGrid(-4.0, 6.0, -2.5, 3.5, 301, 201)
    columns, rows = wigner_table(WignerGrid(grid, rng.uniform(-0.3, 0.3, (201, 301))))
    write = {".csv": lambda: write_csv(tmp_path / "t.csv", columns, rows),
             ".json": lambda: write_json(tmp_path / "t.json", SPEC, columns, rows),
             ".dat": lambda: write_gnuplot(tmp_path / "t.gp", rows)}[suffix]
    write()
    tracemalloc.start()
    try:
        write()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / f"t{suffix}").stat().st_size
    assert size > 1_900_000
    assert peak < size / 4, f"peak {peak} B for a {size} B file"


def test_mirror_symmetric_heatmap_colours_one_quadrant():
    # a panel equal to its mirror images is coloured on its 101 x 101
    # quadrant and gathered to the full image; colouring all 40 401 points
    # peaked at 3.5 times the values' size
    w = ground_state_wigner(ModelConfig(g=1.0, n_max=15), QuadratureGrid())
    tracemalloc.start()
    try:
        wigner_svg(w)  # the fold is found in this call too
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.fold[0].shape == (101, 101)
    assert peak < 3 * w.values.nbytes, f"peak {peak} B for {w.values.nbytes} B of values"


def test_percent_signs_are_written_verbatim(tmp_path, monkeypatch):
    # a % in spec or path text is written verbatim
    assert_wigner_files_match_reference(tmp_path, small_wigner(),
                                        {**SPEC, "label": "100% %s %d %%"})
    monkeypatch.chdir(tmp_path)
    formats = "csv,json,svg,gnuplot"
    argv = ["wigner", "--nmax", "3", "--n-q", "6", "--n-p", "5", "--format", formats,
            "--out", "w%s%d%"]
    assert main(argv) == EXIT_OK
    out = tmp_path / "w%s%d%"
    spec = json.loads((out / "wigner.json").read_text())["spec"]
    assert spec["out"] == "w%s%d%"
    direct = tmp_path / "direct"
    direct.mkdir()
    w = ground_state_wigner(ModelConfig(g=1.0, n_max=3),
                            QuadratureGrid(-6.0, 6.0, -6.0, 6.0, 6, 5))
    _emit(direct, "wigner", w, wigner_table, wigner_svg, spec, formats.split(","))
    for suffix in (".csv", ".json", ".svg", ".dat", ".gp"):
        assert (out / f"wigner{suffix}").read_bytes() == (direct / f"wigner{suffix}").read_bytes()


def test_copied_wigner_panel_equals_emitted_panel(tmp_path):
    cfg = ModelConfig(omega_c=1.0, omega_0=1.0, g=1.0, n_max=3)
    w = ground_state_wigner(cfg, QuadratureGrid(-3.0, 3.0, -3.0, 3.0, 9, 7))
    formats = ("csv", "json", "svg", "gnuplot")
    _emit(tmp_path, "panel", w, wigner_table, wigner_svg, SPEC, formats)
    _emit(tmp_path, "direct", w, wigner_table, wigner_svg, SPEC, formats)
    # the SVG is the renderer's text as UTF-8 with LF line endings
    assert (tmp_path / "direct.svg").read_bytes() == wigner_svg(w).encode()
    _copy_wigner(tmp_path, "panel", "copy", formats)
    for suffix in (".csv", ".json", ".svg", ".dat"):
        assert (tmp_path / f"copy{suffix}").read_bytes() == \
            (tmp_path / f"direct{suffix}").read_bytes()
    direct_gp = (tmp_path / "direct.gp").read_text()
    assert (tmp_path / "copy.gp").read_text() == direct_gp.replace("direct.dat", "copy.dat")


# sha256 of every file of small runs, recorded before the writers were
# made column-wise (the .json and manifest.json ones again when the spec
# lost its threads key); --out is relative because the spec echoes it
PINNED = {
    ("spectrum", "--nmax", "2", "--levels", "4", "--g-steps", "5", "--format", "csv,json"): {
        "manifest.json": "8e8ca72afe2edb99eabcf1108cb08ffc83106c4115538adadeaf489da3a3f819",
        "spectrum.csv": "2b8d10c5a90e981566c4cd7d6bef5a6f813665a116e56234627726c1d3fcf82f",
        "spectrum.json": "3ee644094f2a66383168f07d5d082cd3899e7722b9fa564ee298764ed9996e12",
    },
    ("wigner", "--nmax", "2", "--n-q", "5", "--n-p", "4", "--format", "csv,json,gnuplot"): {
        "manifest.json": "555e0391241585db04d59c408a4382775198e641addaa1762d6d0a4ead852d6d",
        "wigner.csv": "c0bb6f22a89c6c2a12b196c08ea638dbfcc9e9a4e77ebc4849cfc798eba19731",
        "wigner.dat": "d6d06cbe5169a4f6a81c7ec72f6ded71cad39a083957b22cf377bdd45f25b54a",
        "wigner.gp": "2e562470fd083a71916faa8685f4f4789a20c962875bf84976a2e05283a8f224",
        "wigner.json": "167f1987adc14a5c7fc07f2588d7394fd7df8c26f4c5c575908f6fec00234127",
    },
    ("crossings", "--nmax", "2", "--levels", "4", "--g-steps", "5", "--format", "csv,json"): {
        "manifest.json": "30aeb1e14f548feeb3e65a59b439dceb3ed7ef01ba194e8df48ea5f0409254bb",
        "crossings.csv": "6c2bc1d0f5abeccfad2e5917031d20159e0160aac09db828c89e752891970975",
        "crossings.json": "22cd65b24b21d8616dc46e360d9afba3e160be2fe8ee913732cfeeb3aa7f68a9",
    },
    ("entropy", "--nmax", "2", "--g-steps", "5", "--format", "csv,json"): {
        "manifest.json": "1a533f751a2d903706172dd6a8a8a6bb8205e91f96ce96af43c94144b20c833b",
        "entropy.csv": "05663ba83fa88c0374aa6c8c676e5916a69198d316b25cf56ce87299cc3c14b4",
        "entropy.json": "e51d4a30c3c83e0bf74db08b3d6e156828c89270a4c56c67d21e088346c11b8f",
    },
    # the plot files, recorded before the heatmap was rendered array-wise; the
    # wigner.svg one again when the heatmap became one embedded PNG, whose
    # pixels equal the fill colours of the rects it replaced
    ("wigner", "--nmax", "3", "--g", "1", "--n-q", "9", "--n-p", "7",
     "--format", "svg,gnuplot"): {
        "manifest.json": "5b0e98db6a810ad42098e1017ffcd194ab8874a0b97f774a648e5a001a80d7c7",
        "wigner.dat": "885fbed8d9a3d829a0e340bf9c692390ec7bdb7b25c7ebfa53912dbeb53b832e",
        "wigner.gp": "2e562470fd083a71916faa8685f4f4789a20c962875bf84976a2e05283a8f224",
        "wigner.svg": "1bce5efaba056dad6e6343259f33eabee66cac2e7cdd2bb20bc13e630b08667c",
    },
    ("spectrum", "--nmax", "2", "--levels", "4", "--g-steps", "5", "--format", "svg"): {
        "manifest.json": "e57af2a0865dd592df74e70206d5829c6866f9031c6723e6dd2347037f6bfb41",
        "spectrum.svg": "89903a3bd098abb3fa0e36698ecf4c204a3f7727a9094f7d4dec002748c5cf27",
    },
    ("entropy", "--nmax", "2", "--g-steps", "5", "--format", "svg"): {
        "entropy.svg": "1553c9b1cac50a6c5fc7e63f2f430bd9ffcd7236226492ddd22ae9284697214e",
        "manifest.json": "4fb9dd686d1be4c3bf311f4273cb10a21b2124d85cfeecbdbe9107fa30b77cae",
    },
}


@pytest.mark.parametrize("argv", list(PINNED),
                         ids=lambda a: f"{a[0]}-svg" if "svg" in a[-1] else a[0])
def test_pinned_artifact_bytes(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    command = argv[0]
    assert main([*argv, "--out", command]) == EXIT_OK
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in sorted((tmp_path / command).iterdir())}
    assert digests == PINNED[argv]
