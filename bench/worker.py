"""One timed iteration of a workload, in a fresh interpreter.

Runs the workload's commands in sequence through ``qrabi.cli.main`` in the
current directory and prints one JSON line: the import time of
``qrabi.cli``, the wall and CPU time from the first command to the last byte
written, the peak RSS, each command's exit code and, with ``--trace 1``,
the recorded spans.  ``run.py`` starts it; it is not meant to be run alone.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _run(main, argv: list[str], tracer) -> int:
    try:
        return tracer.call("cli.main", main, argv) if tracer else main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # report the command as failed and run the next one
        traceback.print_exc()
        return -1


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--src", required=True, help="directory holding the qrabi package")
    args = parser.parse_args()
    commands = workloads.commands(args.workload, args.seed)

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import qrabi.cli
    import_s = time.perf_counter() - start
    if src not in Path(qrabi.cli.__file__).resolve().parents:
        print(f"qrabi was imported from {qrabi.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    codes, ends = [], []
    for cmd in commands:
        codes.append(_run(qrabi.cli.main, list(cmd.argv), tracer))
        ends.append(time.perf_counter())
    wall_s = ends[-1] - t0
    cpu_s = _cpu_s() - cpu0

    result = {
        "import_s": import_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "codes": codes,
        "command_s": [b - a for a, b in zip([t0] + ends, ends)],
        "trace": tracer.export() if tracer else None,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
