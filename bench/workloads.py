"""Workload definitions: the qrabi commands each workload runs, made from a
seed.

Seed 0 is exactly the documented preset.  Other seeds only perturb
parameter values (the qubit frequency in [0.8, 1.2], the Wigner couplings in
[6, 10]); grid sizes, n_max and formats never change, so the work per run
does not depend on the seed.

This module imports only the standard library, so the worker can time the
import of ``qrabi.cli`` (and with it numpy and scipy) from a clean start.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# one sentence each: why the workload is in the benchmark
WHY = {
    "paper_tables": (
        "reproduce-paper --format csv,json is the bundle users regenerate; "
        "the output layer does most of its work"
    ),
    "paper_figures": (
        "reproduce-paper --format svg,gnuplot: plotting does most of its work "
        "while output writes only the manifest"
    ),
    "converged": (
        "n_max 50/100 solves and Wigner grids: spectra/entanglement and wigner "
        "each take about half, output is small"
    ),
}

WORKLOADS = tuple(WHY)

# CLI defaults (and reproduce-paper preset values) that the commands rely on
# and the checks compare against
SWEEP_G_MIN, SWEEP_G_MAX, SWEEP_G_STEPS = 0.0, 3.0, 201
LEVELS = 8
WIGNER_AXIS = (-6.0, 6.0, 201)


@dataclass(frozen=True)
class Command:
    """One qrabi CLI invocation and the parameters its checks need.

    ``out`` is the output directory relative to the iteration's work
    directory; it is passed as a relative ``--out`` so that the spec echoed
    into the artifacts does not depend on where the benchmark runs.
    """

    kind: str
    out: str
    argv: tuple[str, ...]
    omega0: float = 1.0
    nmax: int = 15
    diamagnetic: bool = False
    g: float = 1.0
    g_steps: int = SWEEP_G_STEPS
    formats: tuple[str, ...] = ("csv",)


def commands(workload: str, seed: int) -> list[Command]:
    """The commands of one workload iteration, in the order they run."""
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = random.Random(seed)
    omega0 = 1.0 if seed == 0 else round(rng.uniform(0.8, 1.2), 6)
    omega_flag = () if seed == 0 else ("--omega0", repr(omega0))

    if workload in ("paper_tables", "paper_figures"):
        formats = ("csv", "json") if workload == "paper_tables" else ("svg", "gnuplot")
        argv = ("reproduce-paper", "--format", ",".join(formats), "--out", "bundle") + omega_flag
        return [Command("reproduce-paper", "bundle", argv, omega0=omega0, formats=formats)]

    if seed == 0:
        wigner_gs = (7.0, 10.0)
    else:
        wigner_gs = (round(rng.uniform(6.0, 10.0), 6), round(rng.uniform(6.0, 10.0), 6))
    out = []
    for kind, nmax, dia, g_steps in (
        ("spectrum", 50, False, SWEEP_G_STEPS),
        ("crossings", 50, True, SWEEP_G_STEPS),
        ("entropy", 50, False, 101),
    ):
        argv = (kind, "--nmax", str(nmax), "--diamagnetic", "on" if dia else "off")
        if kind == "entropy":
            argv = (kind, "--nmax", str(nmax), "--g-steps", str(g_steps))
        argv += ("--format", "csv", "--out", kind) + omega_flag
        out.append(Command(kind, kind, argv, omega0=omega0, nmax=nmax, diamagnetic=dia,
                           g_steps=g_steps))
    for i, (g, dia) in enumerate(zip(wigner_gs, (False, True))):
        name = f"wigner{i}"
        argv = ("wigner", "--g", repr(g), "--nmax", "100",
                "--diamagnetic", "on" if dia else "off", "--format", "csv",
                "--out", name) + omega_flag
        out.append(Command("wigner", name, argv, omega0=omega0, nmax=100, diamagnetic=dia,
                           g=g))
    return out
