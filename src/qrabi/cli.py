"""Configuration-driven command line front end.

Commands
--------
spectrum         lowest-k energy levels over a coupling grid
crossings        minimal adjacent-level gaps for the same sweep
entropy          ground-state entanglement entropy of both model variants
wigner           ground-state cavity Wigner function at one coupling
reproduce-paper  curated preset regenerating the standard figure bundle

Options may come from a ``key = value`` config file (``--config``); explicit
command-line flags win over the file, which wins over built-in defaults.
Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .entanglement import entropy_sweep
from .model import ModelConfig
from .operators import FockTruncation
from .output import (
    crossings_table,
    entropy_table,
    spectrum_table,
    wigner_table,
    write_csv,
    write_json,
    write_manifest,
)
from .plotting import emit_plot, gnuplot_script
from .spectra import SweepError, find_avoided_crossings, sweep_spectrum
from .wigner import QuadratureGrid, ground_state_wigner

__all__ = ["ExperimentSpec", "ConfigError", "run", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_FORMATS = ("csv", "json", "svg", "gnuplot")
_FORMATS_BY_COMMAND = {
    "spectrum": ("csv", "json", "svg"),
    "crossings": ("csv", "json"),
    "entropy": ("csv", "json", "svg"),
    "wigner": ("csv", "json", "svg", "gnuplot"),
    "reproduce-paper": ("csv", "json", "svg", "gnuplot"),
}

_DEFAULTS = {
    "omega_c": 1.0,
    "omega0": 1.0,
    "g": 1.0,
    "g_min": 0.0,
    "g_max": 3.0,
    "g_steps": 201,
    "nmax": 15,
    "diamagnetic": "off",
    "d_override": None,
    "levels": 8,
    "q_min": -6.0,
    "q_max": 6.0,
    "p_min": -6.0,
    "p_max": 6.0,
    "n_q": 201,
    "n_p": 201,
    "out": "qrabi_out",
    "format": "csv",
    "threads": None,
}

_COERCE = {
    "omega_c": float,
    "omega0": float,
    "g": float,
    "g_min": float,
    "g_max": float,
    "g_steps": int,
    "nmax": int,
    "diamagnetic": str,
    "d_override": float,
    "levels": int,
    "q_min": float,
    "q_max": float,
    "p_min": float,
    "p_max": float,
    "n_q": int,
    "n_p": int,
    "out": str,
    "format": str,
    "threads": int,
}


class ConfigError(ValueError):
    """Invalid command line, config file, or parameter combination."""


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully resolved parameters of one CLI run."""

    command: str
    omega_c: float
    omega_0: float
    g: float
    g_min: float
    g_max: float
    g_steps: int
    nmax: int
    diamagnetic: bool
    d_override: float | None
    levels: int
    q_min: float
    q_max: float
    p_min: float
    p_max: float
    n_q: int
    n_p: int
    out: str
    formats: tuple[str, ...]
    threads: int


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrabi",
        description=(
            "Quantum Rabi model toolkit: energy spectra, avoided crossings, "
            "ground-state Wigner functions and entanglement entropy, with and "
            "without the diamagnetic A^2 term."
        ),
    )
    parser.add_argument("--version", action="version", version=f"qrabi {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="key = value config file; flags override it")
        p.add_argument("--omega-c", dest="omega_c", type=float,
                       help="cavity frequency (default 1.0; all units relative to it)")
        p.add_argument("--omega0", type=float,
                       help="qubit transition frequency (default 1.0, i.e. resonance)")
        p.add_argument("--nmax", type=int, help="Fock states kept (default 15)")
        p.add_argument("--diamagnetic", choices=["on", "off"],
                       help="include the diamagnetic A^2 term (default off)")
        p.add_argument("--d-override", dest="d_override", type=float,
                       help="explicit diamagnetic constant D (default g^2/omega_c)")
        p.add_argument("--out", help="output directory (default ./qrabi_out)")
        p.add_argument("--format", help="comma list of csv,json,svg,gnuplot (default csv)")
        p.add_argument("--threads", type=int,
                       help="sweep parallelism (default: hardware parallelism)")

    def add_sweep(p: argparse.ArgumentParser) -> None:
        p.add_argument("--g-min", dest="g_min", type=float, help="sweep start (default 0)")
        p.add_argument("--g-max", dest="g_max", type=float, help="sweep end (default 3)")
        p.add_argument("--g-steps", dest="g_steps", type=int,
                       help="number of grid points (default 201)")

    p_spec = sub.add_parser("spectrum", help="energy levels vs coupling")
    add_common(p_spec)
    add_sweep(p_spec)
    p_spec.add_argument("--levels", type=int, help="levels per grid point (default 8)")

    p_cross = sub.add_parser("crossings", help="minimal adjacent-level gaps")
    add_common(p_cross)
    add_sweep(p_cross)
    p_cross.add_argument("--levels", type=int, help="levels per grid point (default 8)")

    p_ent = sub.add_parser("entropy", help="ground-state entanglement entropy sweep")
    add_common(p_ent)
    add_sweep(p_ent)

    p_wig = sub.add_parser("wigner", help="ground-state cavity Wigner function")
    add_common(p_wig)
    p_wig.add_argument("--g", type=float, help="coupling strength (default 1.0)")
    p_wig.add_argument("--q-min", dest="q_min", type=float)
    p_wig.add_argument("--q-max", dest="q_max", type=float)
    p_wig.add_argument("--p-min", dest="p_min", type=float)
    p_wig.add_argument("--p-max", dest="p_max", type=float)
    p_wig.add_argument("--n-q", dest="n_q", type=int)
    p_wig.add_argument("--n-p", dest="n_p", type=int)

    p_rep = sub.add_parser("reproduce-paper", help="regenerate the full figure bundle")
    add_common(p_rep)

    return parser


def load_config(path: str) -> dict[str, str]:
    """Parse a ``key = value`` config file (``#`` starts a comment)."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _coerce(key: str, value) -> object:
    if value is None:
        return None
    try:
        return _COERCE[key](value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key}: {value!r}") from exc


def resolve_spec(args: argparse.Namespace) -> ExperimentSpec:
    merged = dict(_DEFAULTS)
    if getattr(args, "config", None):
        for key, value in load_config(args.config).items():
            merged[key] = _coerce(key, value)
    for key in _DEFAULTS:
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            merged[key] = _coerce(key, cli_value)

    formats = tuple(f.strip() for f in str(merged["format"]).split(",") if f.strip())
    if not formats:
        raise ConfigError("at least one output format is required")
    for f in formats:
        if f not in _FORMATS:
            raise ConfigError(f"unknown format {f!r}; choose from {', '.join(_FORMATS)}")
        if f not in _FORMATS_BY_COMMAND[args.command]:
            raise ConfigError(f"format {f!r} is not supported by {args.command!r}")

    threads = merged["threads"]
    if threads is None:
        threads = os.cpu_count() or 1
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")

    spec = ExperimentSpec(
        command=args.command,
        omega_c=float(merged["omega_c"]),
        omega_0=float(merged["omega0"]),
        g=float(merged["g"]),
        g_min=float(merged["g_min"]),
        g_max=float(merged["g_max"]),
        g_steps=int(merged["g_steps"]),
        nmax=int(merged["nmax"]),
        diamagnetic=str(merged["diamagnetic"]).lower() == "on",
        d_override=merged["d_override"],
        levels=int(merged["levels"]),
        q_min=float(merged["q_min"]),
        q_max=float(merged["q_max"]),
        p_min=float(merged["p_min"]),
        p_max=float(merged["p_max"]),
        n_q=int(merged["n_q"]),
        n_p=int(merged["n_p"]),
        out=str(merged["out"]),
        formats=formats,
        threads=int(threads),
    )
    _validate_spec(spec)
    return spec


def _validate_spec(spec: ExperimentSpec) -> None:
    if spec.omega_c <= 0:
        raise ConfigError("omega_c must be > 0")
    if spec.omega_0 < 0 or spec.g < 0 or spec.g_min < 0:
        raise ConfigError("frequencies and couplings must be >= 0")
    if spec.nmax < 2:
        raise ConfigError("nmax must be >= 2")
    if spec.d_override is not None and spec.d_override < 0:
        raise ConfigError("d_override must be >= 0")
    if spec.command in ("spectrum", "crossings", "entropy"):
        if spec.g_steps < 1 or spec.g_max < spec.g_min:
            raise ConfigError("need g_min <= g_max and g_steps >= 1")
        if spec.command == "crossings" and spec.g_steps < 3:
            raise ConfigError("crossings needs at least 3 grid points")
    if spec.command in ("spectrum", "crossings") and not (
        1 <= spec.levels <= 2 * spec.nmax
    ):
        raise ConfigError(f"levels must be in [1, {2 * spec.nmax}]")
    if spec.command == "wigner":
        if not (spec.q_min < spec.q_max and spec.p_min < spec.p_max):
            raise ConfigError("need q_min < q_max and p_min < p_max")
        if spec.n_q < 2 or spec.n_p < 2:
            raise ConfigError("n_q and n_p must be >= 2")


def _model_config(spec: ExperimentSpec, g: float, diamagnetic: bool | None = None) -> ModelConfig:
    return ModelConfig(
        omega_c=spec.omega_c,
        omega_0=spec.omega_0,
        g=g,
        include_diamagnetic=spec.diamagnetic if diamagnetic is None else diamagnetic,
        d_override=spec.d_override,
        trunc=FockTruncation(spec.nmax),
    )


def _g_grid(spec: ExperimentSpec) -> np.ndarray:
    return np.linspace(spec.g_min, spec.g_max, spec.g_steps)


def _spec_dict(spec: ExperimentSpec) -> dict:
    doc = dataclasses.asdict(spec)
    doc["formats"] = list(spec.formats)
    doc["version"] = __version__
    return doc


def _write_table(out: Path, name: str, spec_doc: dict, columns, rows, formats) -> None:
    if "csv" in formats:
        write_csv(out / f"{name}.csv", columns, rows)
    if "json" in formats:
        write_json(out / f"{name}.json", spec_doc, columns, rows)


def _emit_wigner(out: Path, name: str, w, spec_doc: dict, formats) -> None:
    if "csv" in formats or "json" in formats:
        columns, rows = wigner_table(w)
        _write_table(out, name, spec_doc, columns, rows, formats)
    if "svg" in formats:
        emit_plot(w, "svg", out / f"{name}.svg")
    if "gnuplot" in formats:
        emit_plot(w, "gnuplot", out / f"{name}.gp")


def _copy_wigner(out: Path, source: str, name: str, formats) -> None:
    """Write panel ``name`` as a byte copy of the written panel ``source``;
    only the gnuplot script differs, as it names its own data file."""
    suffixes = {"csv": ".csv", "json": ".json", "svg": ".svg", "gnuplot": ".dat"}
    for fmt in formats:
        suffix = suffixes[fmt]
        shutil.copyfile(out / f"{source}{suffix}", out / f"{name}{suffix}")
    if "gnuplot" in formats:
        (out / f"{name}.gp").write_text(
            gnuplot_script(f"{name}.dat"), encoding="utf-8", newline="\n"
        )


def _run_spectrum(spec: ExperimentSpec, out: Path, spec_doc: dict) -> None:
    cfg = _model_config(spec, g=0.0)
    sweep = sweep_spectrum(cfg, _g_grid(spec), spec.levels, workers=spec.threads)
    columns, rows = spectrum_table(sweep)
    _write_table(out, "spectrum", spec_doc, columns, rows, spec.formats)
    if "svg" in spec.formats:
        emit_plot(sweep, "svg", out / "spectrum.svg")


def _run_crossings(spec: ExperimentSpec, out: Path, spec_doc: dict) -> None:
    cfg = _model_config(spec, g=0.0)
    sweep = sweep_spectrum(cfg, _g_grid(spec), spec.levels, workers=spec.threads)
    reports = [find_avoided_crossings(sweep, (k, k + 1)) for k in range(spec.levels - 1)]
    columns, rows = crossings_table(reports)
    _write_table(out, "crossings", spec_doc, columns, rows, spec.formats)


def _run_entropy(spec: ExperimentSpec, out: Path, spec_doc: dict) -> None:
    cfg = _model_config(spec, g=0.0)
    sweep = entropy_sweep(cfg, _g_grid(spec), workers=spec.threads)
    columns, rows = entropy_table(sweep)
    _write_table(out, "entropy", spec_doc, columns, rows, spec.formats)
    if "svg" in spec.formats:
        emit_plot(sweep, "svg", out / "entropy.svg")


def _run_wigner(spec: ExperimentSpec, out: Path, spec_doc: dict) -> None:
    cfg = _model_config(spec, g=spec.g)
    grid = QuadratureGrid(spec.q_min, spec.q_max, spec.p_min, spec.p_max, spec.n_q, spec.n_p)
    w = ground_state_wigner(cfg, grid)
    _emit_wigner(out, "wigner", w, spec_doc, spec.formats)


def _g_label(g: float) -> str:
    return f"{g:.12g}".replace(".", "p").replace("-", "m")


def _run_reproduce_paper(spec: ExperimentSpec, out: Path, spec_doc: dict) -> None:
    """Curated preset: resonance, n_max in {2, 15}, coupling sweeps over
    [0, 3], Wigner panels at g in {0, 0.5, 1, 3, 7, 10}, 3D surfaces at
    g = 10, and entropy sweeps for both truncations."""
    grid_34 = np.linspace(0.0, 3.0, 201)
    wigner_gs = (0.0, 0.5, 1.0, 3.0, 7.0, 10.0)
    quad = QuadratureGrid(-6.0, 6.0, -6.0, 6.0, 201, 201)

    def preset_cfg(nmax: int, g: float, dia: bool) -> ModelConfig:
        return ModelConfig(
            omega_c=spec.omega_c,
            omega_0=spec.omega_0,
            g=g,
            include_diamagnetic=dia,
            d_override=spec.d_override,
            trunc=FockTruncation(nmax),
        )

    # fig1/fig2: spectra for both truncations and both model variants
    for name, nmax, dia in (
        ("fig1a", 2, False),
        ("fig1b", 2, True),
        ("fig2a", 15, False),
        ("fig2b", 15, True),
    ):
        levels = min(8, 2 * nmax)
        sweep = sweep_spectrum(preset_cfg(nmax, 0.0, dia), grid_34, levels,
                               workers=spec.threads)
        columns, rows = spectrum_table(sweep)
        _write_table(out, name, spec_doc, columns, rows, spec.formats)
        if "svg" in spec.formats:
            emit_plot(sweep, "svg", out / f"{name}.svg")

    # fig4/fig5: Wigner panels per coupling; fig6/fig7: the g = 10 surfaces,
    # which are copies of the g = 10 panels
    for name, surface, nmax, dia in (
        ("fig4a", "fig6a", 2, False),
        ("fig4b", "fig6b", 2, True),
        ("fig5a", "fig7a", 15, False),
        ("fig5b", "fig7b", 15, True),
    ):
        for g in wigner_gs:
            w = ground_state_wigner(preset_cfg(nmax, g, dia), quad)
            _emit_wigner(out, f"{name}_g{_g_label(g)}", w, spec_doc, spec.formats)
        _copy_wigner(out, f"{name}_g{_g_label(10.0)}", surface, spec.formats)

    # fig8: entropy sweeps for both truncations
    for name, nmax in (("fig8a", 2), ("fig8b", 15)):
        sweep = entropy_sweep(preset_cfg(nmax, 0.0, False), grid_34, workers=spec.threads)
        columns, rows = entropy_table(sweep)
        _write_table(out, name, spec_doc, columns, rows, spec.formats)
        if "svg" in spec.formats:
            emit_plot(sweep, "svg", out / f"{name}.svg")


_RUNNERS = {
    "spectrum": _run_spectrum,
    "crossings": _run_crossings,
    "entropy": _run_entropy,
    "wigner": _run_wigner,
    "reproduce-paper": _run_reproduce_paper,
}


def run(spec: ExperimentSpec) -> int:
    """Execute a resolved experiment; returns a process exit code."""
    try:
        out = Path(spec.out)
        out.mkdir(parents=True, exist_ok=True)
        spec_doc = _spec_dict(spec)
        _RUNNERS[spec.command](spec, out, spec_doc)
        write_manifest(out / "manifest.json", spec_doc)
    except OSError as exc:
        print(f"qrabi: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except SweepError as exc:
        print(f"qrabi: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"qrabi: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = resolve_spec(args)
    except ConfigError as exc:
        print(f"qrabi: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return run(spec)


if __name__ == "__main__":
    sys.exit(main())
