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
Each option is declared once, as a field of ``ExperimentSpec`` (see
``_option``): its default, parser, help text and the commands whose parser
offers it as a flag, which list it in field order; each command once, in
``_COMMANDS``: its help text, its formats and its runner.  A command offers
only the flags it uses.  A config file may set any key, since one file may
serve several commands; a key the command does not use is echoed in the
manifest and otherwise ignored, beyond the checks every command makes.  A
parameter rule lives in the library type that owns it: the CLI checks only
what no type owns (finite floats, ``g_min``, the sweep grid, formats),
builds the run's ``ModelConfig`` and, for wigner, its ``QuadratureGrid``,
checks ``levels`` with the sweep's own ``k_levels`` rule, and reports their
``ValueError`` as a configuration error.  Every result is written by one
emitter, ``_emit``, in the formats its caller passes: tables and gnuplot
surfaces through the ``output`` writers, and SVG as the text of the
``plotting`` renderer the caller names.
reproduce-paper computes nothing itself: each figure is a fresh spec of
its command (``_figure``), run by that command's code, so its files equal
the command's; ``_run_wigner`` writes a panel whose fold is bit-equal to
that of a panel already written in the run as a copy of it.  A flag, like
a config key, must be spelled in full.

Exit codes: 0 success, 2 configuration error, 3 numerical failure
(including an array too large to allocate), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .entanglement import entropy_sweep
from .model import ModelConfig
from .output import (
    crossings_table,
    entropy_table,
    gnuplot_script,
    spectrum_table,
    wigner_table,
    write_csv,
    write_gnuplot,
    write_json,
    write_manifest,
)
from .plotting import entropy_svg, spectrum_svg, wigner_svg
from .spectra import SweepError, _check_k_levels, find_avoided_crossings, sweep_spectrum
from .wigner import QuadratureGrid, ground_state_wigner

__all__ = ["ExperimentSpec", "ConfigError", "run", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_FORMATS = ("csv", "json", "svg", "gnuplot")

class ConfigError(ValueError):
    """Invalid command line, config file, or parameter combination."""


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
    for command, (help_text, _formats, _runner) in _COMMANDS.items():
        # no abbreviated flags: a config key must be spelled in full too
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        p.add_argument("--config", help="key = value config file; flags override it")
        for key, field in _KEYS.items():
            option = field.metadata
            if command in option["commands"]:
                p.add_argument("--" + key.replace("_", "-"), type=option["type"],
                               choices=option["choices"], help=option["help"])
    return parser


def load_config(path: str) -> dict[str, object]:
    """Typed values of a ``key = value`` config file (``#`` starts a comment)."""
    values: dict[str, object] = {}
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
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _coerce(key, value)
    return values


def _coerce(key: str, value) -> object:
    option = _KEYS[key].metadata
    try:
        value = option["type"](value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key}: {value!r}") from exc
    if option["choices"] and value not in option["choices"]:
        raise ConfigError(f"{key} must be {' or '.join(option['choices'])}, got {value!r}")
    return value


def resolve_spec(args: argparse.Namespace) -> ExperimentSpec:
    given = load_config(args.config) if args.config else {}
    # the flags given, to which argparse applied their type and choices
    given |= {key: getattr(args, key) for key in _KEYS if getattr(args, key, None) is not None}
    values = {}
    for key, value in given.items():
        choices = _KEYS[key].metadata["choices"]
        values[_KEYS[key].name] = choices[value] if choices else value
    spec = _new_spec(args.command, **values)
    _validate_spec(spec)
    return spec


def _new_spec(command: str, **values) -> ExperimentSpec:
    """``command``'s spec of ``values`` (by field name) over the defaults; a
    command that offers --levels gets min(8, 2*nmax) unless given one."""
    spec = ExperimentSpec(command, **values)
    if "levels" not in values and command in _KEYS["levels"].metadata["commands"]:
        spec = dataclasses.replace(spec, levels=min(spec.levels, 2 * spec.nmax))
    return spec


def _validate_spec(spec: ExperimentSpec) -> None:
    if not spec.formats:
        raise ConfigError("at least one output format is required")
    for f in spec.formats:
        if f not in _FORMATS:
            raise ConfigError(f"unknown format {f!r}; choose from {', '.join(_FORMATS)}")
        if f not in _COMMANDS[spec.command][1]:
            raise ConfigError(f"format {f!r} is not supported by {spec.command!r}")
    if len(set(spec.formats)) < len(spec.formats):
        raise ConfigError(f"each format may be given once, got {','.join(spec.formats)}")
    for name, value in dataclasses.asdict(spec).items():
        if isinstance(value, float) and not np.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
    try:
        _model_config(spec)
        if spec.command in ("spectrum", "crossings"):
            _check_k_levels(spec.levels, spec.nmax)
        if spec.command == "wigner":
            _quadrature_grid(spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if spec.g_min < 0:
        raise ConfigError("g_min must be >= 0")
    if spec.command in _SWEEPS:
        if spec.g_steps < 1 or spec.g_max < spec.g_min:
            raise ConfigError("need g_min <= g_max and g_steps >= 1")
        if spec.g_min == spec.g_max and spec.g_steps > 1:
            raise ConfigError("g_min = g_max repeats one coupling; need g_steps = 1")
        if spec.command == "crossings" and spec.g_steps < 3:
            raise ConfigError("crossings needs at least 3 grid points")


def _model_config(spec: ExperimentSpec) -> ModelConfig:
    """The spec's model; a sweep replaces its ``g`` with each grid point."""
    return ModelConfig(
        omega_c=spec.omega_c,
        omega_0=spec.omega_0,
        g=spec.g,
        include_diamagnetic=spec.diamagnetic,
        d_override=spec.d_override,
        n_max=spec.nmax,
    )


def _quadrature_grid(spec: ExperimentSpec) -> QuadratureGrid:
    return QuadratureGrid(spec.q_min, spec.q_max, spec.p_min, spec.p_max, spec.n_q, spec.n_p)


def _g_grid(spec: ExperimentSpec) -> np.ndarray:
    return np.linspace(spec.g_min, spec.g_max, spec.g_steps)


def _spec_dict(spec: ExperimentSpec) -> dict:
    doc = dataclasses.asdict(spec)
    doc["version"] = __version__
    return doc


def _emit(out: Path, name: str, data, table, svg, spec_doc: dict, formats) -> None:
    """Write result ``data`` as ``name`` in each of ``formats``: the CSV, JSON
    and gnuplot files from the one ``table(data)``, then the SVG document
    ``svg(data)`` (``svg`` is None for a result whose formats exclude svg)."""
    if {"csv", "json", "gnuplot"} & set(formats):
        columns, rows = table(data)
        if "csv" in formats:
            write_csv(out / f"{name}.csv", columns, rows)
        if "json" in formats:
            write_json(out / f"{name}.json", spec_doc, columns, rows)
        if "gnuplot" in formats:
            write_gnuplot(out / f"{name}.gp", rows)
    if "svg" in formats:
        (out / f"{name}.svg").write_text(svg(data), encoding="utf-8", newline="\n")


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


def _run_spectrum(spec: ExperimentSpec, out: Path, spec_doc: dict, name: str = "spectrum") -> None:
    sweep = sweep_spectrum(_model_config(spec), _g_grid(spec), spec.levels)
    _emit(out, name, sweep, spectrum_table, spectrum_svg, spec_doc, spec.formats)


def _run_crossings(spec: ExperimentSpec, out: Path, spec_doc: dict) -> None:
    sweep = sweep_spectrum(_model_config(spec), _g_grid(spec), spec.levels)
    reports = [find_avoided_crossings(sweep, (k, k + 1)) for k in range(spec.levels - 1)]
    _emit(out, "crossings", reports, crossings_table, None, spec_doc, spec.formats)


def _run_entropy(spec: ExperimentSpec, out: Path, spec_doc: dict, name: str = "entropy") -> None:
    sweep = entropy_sweep(_model_config(spec), _g_grid(spec))
    _emit(out, name, sweep, entropy_table, entropy_svg, spec_doc, spec.formats)


def _run_wigner(spec: ExperimentSpec, out: Path, spec_doc: dict, name: str = "wigner",
                written: dict | None = None) -> None:
    """The panel ``name``; with ``written``, a registry of the panels written
    so far, a panel bit-equal to one of them is written as a copy of it.  A
    panel's key is the shape and bytes of each part of its fold, so two
    panels share a key only when they are bit-equal (-0.0 and 0.0 differ)."""
    w = ground_state_wigner(_model_config(spec), _quadrature_grid(spec))
    source = name
    if written is not None:
        source = written.setdefault(tuple((part.shape, part.tobytes()) for part in w.fold), name)
    if source == name:
        _emit(out, name, w, wigner_table, wigner_svg, spec_doc, spec.formats)
    else:
        _copy_wigner(out, source, name, spec.formats)


def _g_label(g: float) -> str:
    return f"{g:.12g}".replace(".", "p").replace("-", "m")


def _run_reproduce_paper(spec: ExperimentSpec, out: Path, spec_doc: dict) -> None:
    """The preset at n_max in {2, 15}: spectra of both model variants (fig1,
    fig2), Wigner panels (fig4, fig5) with copies of the g = 10 panels as
    surfaces (fig6, fig7), and entropy sweeps (fig8); every JSON file
    echoes the preset's spec."""
    for name, nmax, dia in (("fig1a", 2, False), ("fig1b", 2, True),
                            ("fig2a", 15, False), ("fig2b", 15, True)):
        _run_spectrum(_figure(spec, "spectrum", nmax=nmax, diamagnetic=dia), out, spec_doc, name)
    written: dict[tuple, str] = {}  # panel key -> name of the panel written with it
    for name, surface, nmax, dia in (("fig4a", "fig6a", 2, False), ("fig4b", "fig6b", 2, True),
                                     ("fig5a", "fig7a", 15, False), ("fig5b", "fig7b", 15, True)):
        for g in (0.0, 0.5, 1.0, 3.0, 7.0, 10.0):
            _run_wigner(_figure(spec, "wigner", nmax=nmax, diamagnetic=dia, g=g), out, spec_doc,
                        f"{name}_g{_g_label(g)}", written)
        _copy_wigner(out, f"{name}_g{_g_label(10.0)}", surface, spec.formats)
    del written  # its keys, about 85 kB a panel, are not held through fig8
    for name, nmax in (("fig8a", 2), ("fig8b", 15)):
        _run_entropy(_figure(spec, "entropy", nmax=nmax), out, spec_doc, name)


def _figure(spec: ExperimentSpec, command: str, **figure) -> ExperimentSpec:
    """A preset figure as a fresh spec of ``command``: its defaults, with the
    preset's omega_c, omega_0 and d_override, those of the preset's formats
    that the command offers, and the ``figure``'s nmax, diamagnetic and g."""
    formats = tuple(f for f in spec.formats if f in _COMMANDS[command][1])
    return _new_spec(command, omega_c=spec.omega_c, omega_0=spec.omega_0,
                     d_override=spec.d_override, formats=formats, **figure)


# command -> (help text, the formats its --format accepts, runner); the
# order is the order of the subcommands in ``qrabi --help``
_COMMANDS = {
    "spectrum": ("energy levels vs coupling", ("csv", "json", "svg"), _run_spectrum),
    "crossings": ("minimal adjacent-level gaps", ("csv", "json"), _run_crossings),
    "entropy": ("ground-state entanglement entropy sweep", ("csv", "json", "svg"), _run_entropy),
    "wigner": ("ground-state cavity Wigner function", _FORMATS, _run_wigner),
    "reproduce-paper": ("regenerate the full figure bundle", _FORMATS, _run_reproduce_paper),
}


_SWEEPS = ("spectrum", "crossings", "entropy")


def _format_list(text: str) -> tuple[str, ...]:
    return tuple(f.strip() for f in text.split(",") if f.strip())


def _option(default, help=None, commands=tuple(_COMMANDS), *, parse=None, key=None, choices=None):
    """A field of ``ExperimentSpec`` with its ``default`` and, as metadata,
    the parser of its flag and config value (the default's type unless
    given), its help text, the commands that offer its flag, its flag and
    config key where that is not the field name, and ``choices``, a map from
    each value the parser may give to the field's value."""
    return dataclasses.field(default=default, metadata={
        "type": parse or type(default), "help": help, "commands": commands,
        "key": key, "choices": choices,
    })


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully resolved parameters of one CLI run, in the order of the ``spec``
    that every JSON artifact echoes.  reproduce-paper fixes its own
    truncations and model variants, and entropy always solves both variants,
    so neither offers the flags it would ignore."""

    command: str
    omega_c: float = _option(1.0, "cavity frequency (default 1.0; all units relative to it)")
    omega_0: float = _option(1.0, "qubit transition frequency (default 1.0, i.e. resonance)",
                             key="omega0")
    g: float = _option(1.0, "coupling strength (default 1.0)", ("wigner",))
    g_min: float = _option(0.0, "sweep start (default 0)", _SWEEPS)
    g_max: float = _option(3.0, "sweep end (default 3)", _SWEEPS)
    g_steps: int = _option(201, "number of grid points (default 201)", _SWEEPS)
    nmax: int = _option(15, "Fock states kept (default 15)", _SWEEPS + ("wigner",))
    diamagnetic: bool = _option(False, "include the diamagnetic A^2 term (default off)",
                                ("spectrum", "crossings", "wigner"), parse=str.lower,
                                choices={"on": True, "off": False})
    d_override: float | None = _option(
        None, "explicit diamagnetic constant D (default g^2/omega_c)", parse=float)
    levels: int = _option(8, "levels per grid point (default min(8, 2*nmax))",
                          ("spectrum", "crossings"))
    q_min: float = _option(-6.0, commands=("wigner",))
    q_max: float = _option(6.0, commands=("wigner",))
    p_min: float = _option(-6.0, commands=("wigner",))
    p_max: float = _option(6.0, commands=("wigner",))
    n_q: int = _option(201, commands=("wigner",))
    n_p: int = _option(201, commands=("wigner",))
    out: str = _option("qrabi_out", "output directory (default ./qrabi_out)")
    formats: tuple[str, ...] = _option(
        ("csv",), "comma list of csv,json,svg,gnuplot (default csv)", parse=_format_list,
        key="format")


# flag and config key -> its field of ExperimentSpec, in field order
_KEYS = {f.metadata["key"] or f.name: f for f in dataclasses.fields(ExperimentSpec) if f.metadata}


def run(spec: ExperimentSpec) -> int:
    """Execute a resolved experiment; returns a process exit code.

    The manifest is written last.  A failed run removes the directories it
    made for ``out`` while they are still empty; it never deletes a file,
    so a run that fails midway leaves its partial bundle."""
    out = Path(spec.out)
    made: list[Path] = []  # directories this run makes, deepest first
    try:
        made = [d for d in (out, *out.parents) if not d.exists()]
        out.mkdir(parents=True, exist_ok=True)
        spec_doc = _spec_dict(spec)
        _COMMANDS[spec.command][2](spec, out, spec_doc)
        write_manifest(out / "manifest.json", spec_doc)
        return EXIT_OK
    except OSError as exc:
        print(f"qrabi: I/O failure: {exc}", file=sys.stderr)
        code = EXIT_IO
    except (SweepError, ValueError, ArithmeticError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"qrabi: numerical failure: {exc}", file=sys.stderr)
        code = EXIT_NUMERICAL
    for d in made:
        try:
            d.rmdir()  # fails on a directory that holds anything
        except OSError:
            break
    return code


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
