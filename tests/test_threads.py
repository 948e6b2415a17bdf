"""The BLAS thread count that ``import qrabi`` chooses.  Each case runs in a
fresh interpreter, because OpenBLAS reads its thread variables once, when
numpy loads it.  The thread variables of the test's own environment are
removed there, except where a case sets one."""

import json
import os
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
    """Run ``code`` with ``python -c`` in an environment without the thread
    variables, plus ``variables``; return its stdout."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env={**env, **variables}, cwd=cwd,
                          capture_output=True, text=True, check=True)
    return done.stdout


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


COMMANDS = (
    "wigner --nmax 40 --g 3 --n-q 41 --n-p 41 --format csv,json --out out",
    "entropy --nmax 100 --g-steps 21 --format csv,json --out out",
)


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    code = ("import sys\nfrom qrabi.cli import main\n"
            f"sys.exit(max(main(argv.split()) for argv in {COMMANDS!r}))")
    bundles = []
    for threads in ("1", "2"):
        cwd = tmp_path / threads
        cwd.mkdir()
        run_python(code, cwd=cwd, OPENBLAS_NUM_THREADS=threads)
        bundles.append({p.relative_to(cwd): p.read_bytes()
                        for p in sorted(cwd.rglob("*")) if p.is_file()})
    one, two = bundles
    assert sorted(one) == sorted(two)
    assert len(one) == 5
    for path in one:
        assert one[path] == two[path], path
