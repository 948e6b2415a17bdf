"""Artifact writers: byte equality with a per-cell reference, pinned bytes
of small CLI runs, and the gnuplot data file."""

import hashlib
import json

import numpy as np
import pytest

from qrabi.cli import EXIT_OK, _copy_wigner, _emit_wigner, main
from qrabi.model import ModelConfig
from qrabi.operators import FockTruncation
from qrabi.output import (
    Column,
    Rows,
    crossings_table,
    spectrum_table,
    wigner_table,
    write_csv,
    write_json,
)
from qrabi.plotting import wigner_gnuplot
from qrabi.spectra import CrossingReport, SpectrumSweep
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


SPEC = {"command": "test", "threads": 1, "formats": ["csv", "json"], "d_override": None}

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


def test_wigner_table_and_dat_match_reference(tmp_path):
    w = small_wigner()
    q, p = w.grid.q_axis(), w.grid.p_axis()
    columns, rows = wigner_table(w)
    assert len(rows) == 12
    csv, js = write_both(tmp_path, columns, rows)
    ref_rows = [[qv, pv, w.values[i, j]] for i, pv in enumerate(p) for j, qv in enumerate(q)]
    assert csv == ref_csv(columns, ref_rows).encode()
    assert js == ref_json(SPEC, columns, ref_rows).encode()

    script, dat = wigner_gnuplot(w, "w.dat")
    assert "splot 'w.dat' using 1:2:3" in script
    blocks = ["\n".join(f"{ref_format_float(q[j])} {ref_format_float(pv)} "
                        f"{ref_format_float(w.values[i, j])}" for j in range(len(q)))
              for i, pv in enumerate(p)]
    assert dat == "\n\n".join(blocks) + "\n"


def test_dat_prints_negative_zero_as_zero():
    # the .dat shares the table cells, so -0.0 is written as 0 as in the CSV
    _, dat = wigner_gnuplot(small_wigner(), "w.dat")
    first = dat.split("\n")[0]
    assert first == "-1.5 -1 0"
    assert all("-0 " not in line and not line.endswith(" -0") for line in dat.split("\n"))


def test_copied_wigner_panel_equals_emitted_panel(tmp_path):
    cfg = ModelConfig(omega_c=1.0, omega_0=1.0, g=1.0, trunc=FockTruncation(3))
    w = ground_state_wigner(cfg, QuadratureGrid(-3.0, 3.0, -3.0, 3.0, 9, 7))
    formats = ("csv", "json", "svg", "gnuplot")
    _emit_wigner(tmp_path, "panel", w, SPEC, formats)
    _emit_wigner(tmp_path, "direct", w, SPEC, formats)
    _copy_wigner(tmp_path, "panel", "copy", formats)
    for suffix in (".csv", ".json", ".svg", ".dat"):
        assert (tmp_path / f"copy{suffix}").read_bytes() == \
            (tmp_path / f"direct{suffix}").read_bytes()
    direct_gp = (tmp_path / "direct.gp").read_text()
    assert (tmp_path / "copy.gp").read_text() == direct_gp.replace("direct.dat", "copy.dat")


# sha256 of every file of small runs, recorded before the writers were
# made column-wise; --out is relative because the spec echoes it
PINNED = {
    ("spectrum", "--nmax", "2", "--levels", "4", "--g-steps", "5", "--format", "csv,json"): {
        "manifest.json": "fb89b95e63b2f00a449699d068ef28b72104316311047005405dcecd0719c422",
        "spectrum.csv": "2b8d10c5a90e981566c4cd7d6bef5a6f813665a116e56234627726c1d3fcf82f",
        "spectrum.json": "15a1f8b3775941c1cac6716dd7cd36918de5a3c11a0cb9dcaef5cf069d2cf74a",
    },
    ("wigner", "--nmax", "2", "--n-q", "5", "--n-p", "4", "--format", "csv,json,gnuplot"): {
        "manifest.json": "fbcaf27c9965621f41b92b3382a22c995a3b63ca8e1fcb6c77ac00874778a549",
        "wigner.csv": "c0bb6f22a89c6c2a12b196c08ea638dbfcc9e9a4e77ebc4849cfc798eba19731",
        "wigner.dat": "d6d06cbe5169a4f6a81c7ec72f6ded71cad39a083957b22cf377bdd45f25b54a",
        "wigner.gp": "2e562470fd083a71916faa8685f4f4789a20c962875bf84976a2e05283a8f224",
        "wigner.json": "c906a0697526878969a09d5b3e8a9802fa4c669c8aaa445b6e1d9e644ea7fc24",
    },
    ("crossings", "--nmax", "2", "--levels", "4", "--g-steps", "5", "--format", "csv,json"): {
        "manifest.json": "43baf1b52536ae16e0804739ed988960343ab3c92791b65ef5fa854104c179cc",
        "crossings.csv": "6c2bc1d0f5abeccfad2e5917031d20159e0160aac09db828c89e752891970975",
        "crossings.json": "3005e8fd8ccf91a27ff6210ee3358af27a882ac036b4da705e64d06665f988ae",
    },
    ("entropy", "--nmax", "2", "--g-steps", "5", "--format", "csv,json"): {
        "manifest.json": "6fd5132caa5af5b93bf6156151facffc60bbf89c9f00f4be51c618642911f86f",
        "entropy.csv": "05663ba83fa88c0374aa6c8c676e5916a69198d316b25cf56ce87299cc3c14b4",
        "entropy.json": "ec0dcab00fb20102cf96afaabf699e9e8e950d7e9303909a66fcf0a86455ff6d",
    },
}


@pytest.mark.parametrize("argv", list(PINNED), ids=lambda a: a[0])
def test_pinned_artifact_bytes(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    command = argv[0]
    assert main([*argv, "--threads", "1", "--out", command]) == EXIT_OK
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in sorted((tmp_path / command).iterdir())}
    assert digests == PINNED[argv]
