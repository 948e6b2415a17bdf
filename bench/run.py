"""qrabi benchmark: run a workload for a while, check its outputs, print metrics.

Usage (from the repository root)::

    python3 bench/run.py --workload paper_tables --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 40 --trace 1

One client runs the workload's commands in sequence (a closed loop).  Each
iteration runs in a fresh interpreter (``worker.py``) that imports qrabi
from this checkout's ``src`` and writes into a fresh directory under
``bench/.work``, which is checked and then deleted.  Iterations repeat until
``--seconds`` have passed; metrics are medians over iterations.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced iterations and prints the per-layer metrics, with the
tracing overhead as traced minus untraced ``wall_s``.  Human-readable lines
and a one-line JSON report (environment, artifact digests, golden-bundle
match, span table) come first; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
GOLDEN = BENCH / "golden.json"

# a run must end within 180 s; no iteration starts that would end after this
HARD_LIMIT_S = 150.0
SETUP_PROBES = 3

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("bytes_written", "bytes"),
    ("files_written", "count"),
)

_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import qrabi.cli; print(time.perf_counter() - t)"
)


def _iteration(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    """Run one iteration in a fresh worker, then check and digest its output."""
    commands = workloads.commands(workload, seed)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    started = time.perf_counter()
    try:
        argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
                "--seed", str(seed), "--trace", str(int(traced)), "--src", str(SRC)]
        try:
            proc = subprocess.run(argv, cwd=work, capture_output=True, text=True,
                                  timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            return {"traced": traced, "error": f"worker timed out after {timeout:.0f} s",
                    "failures": [c.out for c in commands]}
        if proc.stderr:
            sys.stderr.write(proc.stderr[-4000:])
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"traced": traced, "error": f"worker exited with {proc.returncode}",
                    "failures": [c.out for c in commands]}
        result = json.loads(lines[-1])
        failures = []
        for cmd, code in zip(commands, result["codes"]):
            if code != 0:
                failures.append(f"{cmd.out}: exit code {code}")
                continue
            try:
                checks.check(cmd, work / cmd.out)
            except (checks.CheckFailed, OSError, ValueError, KeyError) as exc:
                failures.append(f"{cmd.out}: {exc}")
        files = checks.digests(work)
        result.update(
            traced=traced,
            failures=failures,
            files=files,
            bytes_written=sum(f["bytes"] for f in files.values()),
            files_written=len(files),
            bundle_sha256=checks.bundle_digest(files),
            seconds=time.perf_counter() - started,
        )
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _setup_probe() -> float:
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(SRC)], cwd=WORK,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _environment() -> dict:
    import numpy
    import scipy

    def blas(config: dict) -> dict:
        dep = config["Build Dependencies"]["blas"]
        return {"name": dep.get("name"), "version": dep.get("version")}

    nproc = None
    if shutil.which("nproc"):
        nproc = subprocess.run(["nproc"], capture_output=True, text=True).stdout.strip()
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": nproc,
        "os.cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.startswith(("OPENBLAS_", "OMP_"))},
        "git_commit": commit,
    }


def _median(values) -> float:
    return float(statistics.median(values))


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Iterate the workload for ``seconds`` and reduce the iterations to
    metrics.  Returns the result fields plus a report."""
    commands = workloads.commands(workload, seed)
    start = time.perf_counter()
    iterations: list[dict] = []
    while True:
        traced = trace and len(iterations) % 2 == 1
        remaining = HARD_LIMIT_S - (time.perf_counter() - start)
        it = _iteration(workload, seed, traced, remaining)
        iterations.append(it)
        elapsed = time.perf_counter() - start
        if "error" in it or elapsed + it["seconds"] > HARD_LIMIT_S:
            break
        if elapsed >= seconds and (not trace or len(iterations) >= 2):
            break

    measured = [it for it in iterations if "error" not in it]
    untraced = [it for it in measured if not it["traced"]]
    traced_its = [it for it in measured if it["traced"]]
    attempted = len(commands) * len(iterations)
    failed = sum(len(it["failures"]) for it in iterations)

    metrics: dict[str, dict] = {}
    layers = None
    if not trace and untraced:
        samples = {name: [it[name] for it in untraced]
                   for name, _ in END_TO_END if name != "setup_s"}
        samples["setup_s"] = ([it["import_s"] for it in untraced]
                              + [_setup_probe() for _ in range(SETUP_PROBES)])
        for name, unit in END_TO_END:
            metrics[name] = {"value": _median(samples[name]), "unit": unit}
    elif trace and untraced and traced_its:
        summaries = [tracing.summarize(it["trace"], it["wall_s"]) for it in traced_its]
        samples = {name: [s["figures"][name] for s in summaries]
                   for name, _ in tracing.LAYER_METRICS}
        samples["trace.overhead_s"] = [_median([it["wall_s"] for it in traced_its])
                                       - _median([it["wall_s"] for it in untraced])]
        for name, unit in tracing.LAYER_METRICS:
            metrics[name] = {"value": _median(samples[name]), "unit": unit}
        layers = {"spans": summaries[-1]["spans"], "absent": summaries[-1]["absent"]}
    else:
        samples = {}

    digests = sorted({it["bundle_sha256"] for it in measured})
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")).get(workload)
    golden_match, golden_mismatch = None, []
    if golden is not None and seed == 0 and digests:
        golden_match = digests == [golden["bundle_sha256"]]
        files = measured[-1]["files"]
        golden_mismatch = sorted(
            name for name in golden["files"].keys() | files.keys()
            if golden["files"].get(name) != files.get(name, {}).get("sha256"))
    report = {
        "workload": workload,
        "why": workloads.WHY[workload],
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "commands": [" ".join(c.argv) for c in commands],
        "iterations": [
            {k: it[k] for k in ("traced", "wall_s", "cpu_s", "import_s", "peak_rss_mb",
                                "bytes_written", "files_written", "codes", "command_s",
                                "failures", "error", "seconds") if k in it}
            for it in iterations
        ],
        "samples": samples,
        "failed_ops": {"value": failed / attempted, "unit": "share",
                       "failed": failed, "attempted": attempted},
        "bundle_sha256": digests,
        "deterministic": len(digests) == 1,
        "golden_match": golden_match,
        "golden_mismatch": golden_mismatch,
        "artifacts": measured[-1]["files"] if measured else {},
        "layers": layers,
    }
    return {"correct": failed == 0 and bool(metrics), "attempted": attempted,
            "failed": failed, "metrics": metrics, "report": report}


def _print_human(result: dict) -> None:
    rep = result["report"]
    traced = sum(1 for it in rep["iterations"] if it["traced"])
    print(f"== {rep['workload']} (seed {rep['seed']}; {len(rep['iterations']) - traced} untraced, "
          f"{traced} traced iterations): {rep['why']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<36} {m['value']:>16.6g} {m['unit']}")
    fo = rep["failed_ops"]
    print(f"  {'failed_ops':<36} {fo['value']:>16.6g} share ({fo['failed']} of "
          f"{fo['attempted']} commands)")
    for it in rep["iterations"]:
        for failure in it["failures"]:
            print(f"  FAILED {failure}")
    if rep["golden_match"] is not None:
        print(f"  {'golden_match':<36} {str(rep['golden_match']):>16}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "qrabi" / "cli.py").is_file():
        print(f"bench: no qrabi sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    if not all(r["metrics"] for r in results.values()):
        for w, r in results.items():
            for it in r["report"]["iterations"]:
                print(f"bench: {w}: {it.get('error') or it['failures']}", file=sys.stderr)
        print("bench: no iteration produced measurements", file=sys.stderr)
        return 1

    env = _environment()
    for result in results.values():
        _print_human(result)
        print(json.dumps({"report": {**result["report"], "environment": env}}))
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v
                        for w, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
        final = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
