"""The BLAS thread count that ``import qrabi`` chooses, and output bytes that
depend on neither the hash seed nor the thread count.  Each case runs in a
fresh interpreter, because OpenBLAS reads its thread variables once, when
numpy loads it, and Python its hash seed at start-up.  The thread variables
of the test's own environment are removed there, except where a case sets
one, and ``-W error`` fails a run on any warning, as pytest's
filterwarnings setting does in process.  ``run_python`` (code) and
``run_qrabi`` (CLI commands) are the suite's one fresh-interpreter runner;
``test_cli`` and ``test_blas_kernel`` use them too."""

import collections
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qrabi

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
SRC = str(Path(qrabi.__file__).resolve().parents[1])
BLAS = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
# /proc/self/status gives the thread count; OpenBLAS runs at most one
# thread per CPU it may use
COUNTS_THREADS = sys.platform == "linux" and "openblas" in BLAS
TWO_THREADS = COUNTS_THREADS and len(os.sched_getaffinity(0)) >= 2

# imports qrabi, then prints the running thread count after some BLAS and
# LAPACK work, the thread variables of os.environ and whether the import
# left os.environ as it was
PROBE = """
import json, os
{first}
before = dict(os.environ)
import qrabi
import numpy as np
a = np.arange(90000.0).reshape(300, 300) / 9e4
np.linalg.eigh(a @ a.T)
threads = None
if os.path.exists("/proc/self/status"):
    with open("/proc/self/status") as status:
        threads = int(next(l for l in status if l.startswith("Threads:")).split()[1])
env = {{k: v for k, v in os.environ.items() if k in {names!r}}}
print(json.dumps({{"threads": threads, "env": env, "same": before == dict(os.environ)}}))
"""


def run_python(code, cwd=None, **variables):
    """Run ``code`` with ``python -W error -c`` in an environment without the
    thread variables, plus ``variables``; return its stdout."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-W", "error", "-c", code], env={**env, **variables},
                          cwd=cwd, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def run_qrabi(commands, cwd, **variables):
    """Run each ``qrabi`` command of ``commands`` (its arguments, split at
    spaces) in order, in one fresh interpreter in ``cwd`` with ``variables``;
    the first command that fails ends the run and fails the test."""
    code = ("import sys\nfrom qrabi.cli import main\n"
            f"for argv in {commands!r}:\n    if main(argv.split()):\n        sys.exit(argv)")
    run_python(code, cwd=cwd, **variables)


def probe(first="", **variables):
    code = PROBE.format(first=first, names=THREAD_VARS)
    return json.loads(run_python(code, **variables))


def test_import_loads_openblas_with_one_thread():
    seen = probe()
    assert seen["env"] == {}
    assert seen["same"]
    if not COUNTS_THREADS:
        pytest.skip("counts threads only for OpenBLAS on Linux")
    assert seen["threads"] == 1


@pytest.mark.parametrize("name", THREAD_VARS)
def test_a_thread_variable_the_user_sets_wins(name):
    seen = probe(**{name: "2"})
    assert seen["env"] == {name: "2"}
    assert seen["same"]
    if TWO_THREADS:
        assert seen["threads"] == 2


def test_numpy_imported_first_keeps_its_threads_and_the_environment():
    seen = probe("import numpy")
    assert seen["env"] == {}
    assert seen["same"]
    if TWO_THREADS:
        assert seen["threads"] >= 2


# The tier-1 rerun checks compare runs in one process, under one hash seed.
# Here each setting of SETTINGS runs every command, in order, in a fresh
# interpreter, to the same relative --out (the JSON files echo it), and every
# file must have the same bytes in all three:
COMMANDS = (
    # an n_max = 40 panel and an n_max = 100 entropy sweep, as csv,json
    "wigner --nmax 40 --g 3 --n-q 41 --n-p 41 --format csv,json --out out",
    "entropy --nmax 100 --g-steps 21 --format csv,json --out out",
    # the bundle the benchmark writes, in all four formats
    "reproduce-paper --format csv,json,svg,gnuplot --out bundle",
    # the preset's panels stop at n_max = 15, so an n_max = 100 panel
    "wigner --g 7 --nmax 100 --diamagnetic on --format csv,json,svg,gnuplot --out w",
    # the preset runs no crossings, so the crossings at their defaults
    "crossings --format csv,json --out c",
    # at --omega0 0.9 some fig4b states differ from fig4a's in their last
    # bits, so only this preset run writes fig4b panels that are not copies
    "reproduce-paper --omega0 0.9 --format csv,json --out b09",
)
# files per --out directory
FILES = {"out": 5, "bundle": 159, "w": 6, "c": 3, "b09": 69}
# qrabi's one-thread default under two hash seeds, then OpenBLAS's own
# two-thread pool instead of the one thread that importing qrabi sets
SETTINGS = ({"PYTHONHASHSEED": "1"}, {"PYTHONHASHSEED": "2"},
            {"PYTHONHASHSEED": "1", "OPENBLAS_NUM_THREADS": "2"})


def digests(root: Path) -> dict[str, str]:
    """sha256 of each file under ``root``, by its path relative to it."""
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in root.rglob("*") if p.is_file()}


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    cwd = tmp_path / "run"
    runs = []
    for variables in SETTINGS:
        cwd.mkdir()
        run_qrabi(COMMANDS, cwd, **variables)
        runs.append(digests(cwd))
        shutil.rmtree(cwd)  # one setting's files on disk at a time
    first = runs[0]
    assert collections.Counter(path.split("/")[0] for path in first) == FILES
    for variables, run in zip(SETTINGS[1:], runs[1:]):
        differ = sorted(p for p in first.keys() | run.keys() if first.get(p) != run.get(p))
        assert differ == [], variables
