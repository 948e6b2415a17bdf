"""Results under another OpenBLAS kernel.  Byte identity holds for one numpy
build, CPU dispatch target and BLAS kernel; across kernels the n_max = 15
cells may differ in their last digits.  Each run is a fresh interpreter,
because OpenBLAS picks its kernel once, when numpy loads it."""

import json
from pathlib import Path

import numpy as np
import pytest

from test_threads import run_python

BLAS = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
# OPENBLAS_CORETYPE is honoured only by a DYNAMIC_ARCH build
DYNAMIC_ARCH = "DYNAMIC_ARCH" in BLAS.get("openblas configuration", "")

COMMANDS = (
    "wigner --g 3 --nmax 15 --diamagnetic on --format csv,json --out out",
    "spectrum --nmax 15 --diamagnetic on --format csv,json --out out",
)
# %.12g cells of values of order one that differ in their last digit
BOUND = 1e-12


def run_bundle(cwd: Path, **variables) -> dict[str, Path]:
    """Run every command of COMMANDS in ``cwd``; return its files by name."""
    code = ("import sys\nfrom qrabi.cli import main\n"
            f"sys.exit(max(main(argv.split()) for argv in {COMMANDS!r}))")
    cwd.mkdir()
    run_python(code, cwd=cwd, **variables)
    return {p.name: p for p in sorted((cwd / "out").iterdir())}


@pytest.mark.skipif(not DYNAMIC_ARCH, reason="needs OpenBLAS built with DYNAMIC_ARCH")
def test_results_agree_under_another_blas_kernel(tmp_path):
    default = run_bundle(tmp_path / "default")
    haswell = run_bundle(tmp_path / "haswell", OPENBLAS_CORETYPE="Haswell")
    assert sorted(default) == sorted(haswell) == [
        "manifest.json", "spectrum.csv", "spectrum.json", "wigner.csv", "wigner.json"]
    for name in ("spectrum", "wigner"):
        tables = []
        for files in (default, haswell):
            header, *lines = files[f"{name}.csv"].read_text().splitlines()
            doc = json.loads(files[f"{name}.json"].read_text())
            assert doc["columns"] == header.split(",")
            csv = np.array([line.split(",") for line in lines], dtype=float)
            tables.append((header, csv, np.array(doc["rows"], dtype=float)))
        (header, csv, js), (header_h, csv_h, js_h) = tables
        assert header == header_h
        assert csv.shape == csv_h.shape and js.shape == js_h.shape == csv.shape
        assert np.max(np.abs(csv - csv_h)) <= BOUND, name
        assert np.max(np.abs(js - js_h)) <= BOUND, name
