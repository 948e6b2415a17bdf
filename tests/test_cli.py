import base64
import dataclasses
import json
import os
import re
import stat
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qrabi import cli
from qrabi.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL, EXIT_OK, main
from qrabi.output import gnuplot_script
from qrabi.wigner import QuadratureGrid, WignerGrid


def run_cli(*args):
    return main(list(args))


def test_spectrum_single_point_csv(tmp_path):
    out = tmp_path / "run"
    code = run_cli(
        "spectrum", "--g-min", "0", "--g-max", "0", "--g-steps", "1",
        "--nmax", "2", "--levels", "4", "--out", str(out), "--format", "csv",
    )
    assert code == EXIT_OK
    text = (out / "spectrum.csv").read_text()
    assert text == "g_over_wc,E0,E1,E2,E3\n0,-0.5,0.5,0.5,1.5\n"


def test_entropy_single_point_csv(tmp_path):
    out = tmp_path / "run"
    code = run_cli(
        "entropy", "--g-min", "0", "--g-max", "0", "--g-steps", "1",
        "--nmax", "2", "--out", str(out),
    )
    assert code == EXIT_OK
    text = (out / "entropy.csv").read_text()
    assert text == "g_over_wc,S_qrm_bits,S_qrma_bits\n0,0,0\n"


@pytest.mark.parametrize("command, csv", [
    ("spectrum", "g_over_wc,E0,E1\n0,-0.5,0.5\n0.25,-0.581138830084,0.292893218813\n"
                 "0.5,-0.802775637732,-0.11803398875\n"),
    ("entropy", "g_over_wc,S_qrm_bits,S_qrma_bits\n0,0,0\n"
                "0.25,0.172127862784,0.172127862784\n0.5,0.416032265889,0.416032265889\n"),
], ids=["spectrum", "entropy"])
def test_g_column_is_divided_by_omega_c(tmp_path, command, csv):
    # g runs 0, 0.5, 1 in the same unit as omega_c = 2, so the column reads 0,
    # 0.25, 0.5; the energies and entropies are those of g = 0, 0.5, 1
    argv = [command, "--omega-c", "2", "--g-min", "0", "--g-max", "1", "--g-steps", "3",
            "--nmax", "2", "--out", str(tmp_path)]
    assert run_cli(*argv, *(["--levels", "2"] if command == "spectrum" else [])) == EXIT_OK
    assert (tmp_path / f"{command}.csv").read_text() == csv


def test_manifest_echoes_resolved_spec(tmp_path):
    out = tmp_path / "run"
    assert run_cli(
        "spectrum", "--g-steps", "3", "--g-max", "1", "--nmax", "4",
        "--levels", "2", "--out", str(out),
    ) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "spectrum"
    assert manifest["nmax"] == 4
    assert manifest["omega_0"] == 1.0  # default included
    assert manifest["formats"] == ["csv"]


def test_json_artifact_shape(tmp_path):
    out = tmp_path / "run"
    assert run_cli(
        "spectrum", "--g-min", "0", "--g-max", "1", "--g-steps", "2",
        "--nmax", "2", "--levels", "3", "--out", str(out), "--format", "json",
    ) == EXIT_OK
    doc = json.loads((out / "spectrum.json").read_text())
    assert set(doc) == {"spec", "columns", "rows"}
    assert doc["columns"] == ["g_over_wc", "E0", "E1", "E2"]
    assert len(doc["rows"]) == 2 and len(doc["rows"][0]) == 4


def test_deterministic_reruns(tmp_path):
    args = [
        "entropy", "--g-min", "0", "--g-max", "2", "--g-steps", "9",
        "--nmax", "6", "--format", "csv,json",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(*args, "--out", str(out1)) == EXIT_OK
    assert run_cli(*args, "--out", str(out2)) == EXIT_OK
    assert (out1 / "entropy.csv").read_bytes() == (out2 / "entropy.csv").read_bytes()
    json1 = json.loads((out1 / "entropy.json").read_text())
    json2 = json.loads((out2 / "entropy.json").read_text())
    assert json1["rows"] == json2["rows"]  # spec differs (out), data identical


def test_crossings_csv(tmp_path):
    out = tmp_path / "run"
    assert run_cli(
        "crossings", "--g-min", "0", "--g-max", "2", "--g-steps", "41",
        "--nmax", "8", "--levels", "4", "--out", str(out),
    ) == EXIT_OK
    lines = (out / "crossings.csv").read_text().splitlines()
    assert lines[0] == "level_lower,level_upper,g_at_min,min_gap,at_boundary"
    assert len(lines) == 4  # three adjacent pairs


def test_wigner_formats(tmp_path):
    out = tmp_path / "run"
    assert run_cli(
        "wigner", "--g", "0", "--nmax", "4", "--q-min", "-3", "--q-max", "3",
        "--p-min", "-3", "--p-max", "3", "--n-q", "21", "--n-p", "21",
        "--out", str(out), "--format", "csv,svg,gnuplot",
    ) == EXIT_OK
    lines = (out / "wigner.csv").read_text().splitlines()
    assert lines[0] == "q,p,w"
    assert len(lines) == 1 + 21 * 21
    svg = (out / "wigner.svg").read_text()
    assert svg.startswith("<svg") and svg.count("<image") == 1
    png = base64.b64decode(re.search(r'href="data:image/png;base64,([^"]+)"', svg).group(1))
    assert png[:8] == b"\x89PNG\r\n\x1a\n" and png[12:16] == b"IHDR"
    assert struct.unpack(">II", png[16:24]) == (21, 21)
    assert "splot" in (out / "wigner.gp").read_text()
    assert (out / "wigner.dat").read_text().count("\n\n") == 20  # 21 p-blocks


def test_spectrum_svg_structure(tmp_path):
    out = tmp_path / "run"
    assert run_cli(
        "spectrum", "--g-min", "0", "--g-max", "1", "--g-steps", "5",
        "--nmax", "3", "--levels", "4", "--out", str(out), "--format", "svg",
    ) == EXIT_OK
    svg = (out / "spectrum.svg").read_text()
    assert svg.count("<polyline") == 4  # one per level


def test_entropy_svg_structure(tmp_path):
    out = tmp_path / "run"
    assert run_cli(
        "entropy", "--g-min", "0", "--g-max", "1", "--g-steps", "5",
        "--nmax", "3", "--out", str(out), "--format", "svg",
    ) == EXIT_OK
    svg = (out / "entropy.svg").read_text()
    assert svg.count("<polyline") == 2
    assert "QRM" in svg and "QRMA" in svg


@pytest.mark.parametrize("command", ["spectrum", "entropy"])
def test_single_point_sweep_svg(tmp_path, command):
    # a zero-width g range is widened like a zero-height y range
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(
            command, "--g-min", "1", "--g-max", "1", "--g-steps", "1",
            "--nmax", "3", "--out", str(out), "--format", "svg",
        ) == EXIT_OK
    svg = (out / f"{command}.svg").read_text()
    assert "nan" not in svg
    polylines = re.findall(r'<polyline points="([^"]*)"', svg)
    assert polylines and all(len(points.split()) == 1 for points in polylines)


def test_config_file_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# sweep settings\n"
        "g_min = 0\n"
        "g-max = 1\n"
        "g_steps = 2\n"
        "nmax = 2\n"
        "levels = 4\n"
    )
    out = tmp_path / "run"
    assert run_cli(
        "spectrum", "--config", str(cfg), "--levels", "2", "--out", str(out),
    ) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["g_steps"] == 2  # from the file
    assert manifest["levels"] == 2  # flag overrides the file


def test_config_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("not a key value line\n")
    assert run_cli("spectrum", "--config", str(bad), "--out", str(tmp_path)) == EXIT_CONFIG
    unknown = tmp_path / "unk.cfg"
    unknown.write_text("frobnicate = 3\n")
    assert run_cli("spectrum", "--config", str(unknown), "--out", str(tmp_path)) == EXIT_CONFIG
    assert run_cli("spectrum", "--nmax", "1", "--out", str(tmp_path)) == EXIT_CONFIG
    assert run_cli("spectrum", "--levels", "99", "--nmax", "4", "--out", str(tmp_path)) == EXIT_CONFIG
    assert run_cli("spectrum", "--format", "gnuplot", "--out", str(tmp_path)) == EXIT_CONFIG
    assert run_cli("spectrum", "--format", "tsv", "--out", str(tmp_path)) == EXIT_CONFIG
    assert run_cli("entropy", "--g-min", "2", "--g-max", "1", "--out", str(tmp_path)) == EXIT_CONFIG
    # non-finite values are refused before any output is written, as flags
    # and from a config file
    for command, key, value in (
        ("wigner", "g", "nan"), ("spectrum", "g_max", "inf"), ("wigner", "q_max", "inf"),
        ("wigner", "p_min", "-inf"), ("entropy", "omega_c", "nan"),
        ("spectrum", "d_override", "nan"), ("reproduce-paper", "omega0", "inf"),
    ):
        out = tmp_path / f"{command}-{key}"
        flag = "--" + key.replace("_", "-")
        assert run_cli(command, f"{flag}={value}", "--out", str(out)) == EXIT_CONFIG
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(f"{key} = {value}\n")
        assert run_cli(command, "--config", str(cfg), "--out", str(out)) == EXIT_CONFIG
        assert not out.exists()
    # threads changed no result and is gone, as a flag and as a config key
    out = tmp_path / "threads"
    with pytest.raises(SystemExit) as exc:
        run_cli("entropy", "--threads", "2", "--out", str(out))
    assert exc.value.code == EXIT_CONFIG
    cfg = tmp_path / "threads.cfg"
    cfg.write_text("threads = 2\n")
    assert run_cli("entropy", "--config", str(cfg), "--out", str(out)) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("command, options", [
    ("spectrum", {"omega_c": "0"}),
    ("entropy", {"omega_c": "-1"}),
    ("reproduce-paper", {"omega0": "-1"}),
    ("wigner", {"g": "-1"}),
    ("spectrum", {"g_min": "-1"}),
    ("crossings", {"d_override": "-1"}),
    ("wigner", {"q_min": "3", "q_max": "1"}),
    ("wigner", {"p_min": "3", "p_max": "1"}),
    ("wigner", {"n_q": "1"}),
    ("wigner", {"n_p": "1"}),
])
def test_finite_out_of_range_values_are_config_errors(tmp_path, capsys, command, options):
    # refused before any output is written, as flags and from a config file
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in options.items()))
    out = tmp_path / "out"
    for argv in (flags(options), ["--config", str(cfg)]):
        assert run_cli(command, *argv, "--out", str(out)) == EXIT_CONFIG, argv
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()


# a value for every option, each different from its default and from the
# small-run flags below, and valid for every command
VALUES = {
    "omega_c": "1.25", "omega0": "0.75", "nmax": "4", "diamagnetic": "on",
    "d_override": "0.5", "format": "json", "g_min": "0.5", "g_max": "1", "g_steps": "4",
    "levels": "3", "g": "0.5", "q_min": "-2", "q_max": "2.5", "p_min": "-1.5",
    "p_max": "2", "n_q": "6", "n_p": "5",
}
# flags that keep each command's run small
SMALL = {
    "spectrum": {"nmax": "3", "g_steps": "3", "levels": "2"},
    "crossings": {"nmax": "3", "g_steps": "3", "levels": "2"},
    "entropy": {"nmax": "3", "g_steps": "3"},
    "wigner": {"nmax": "3", "n_q": "5", "n_p": "4"},
    "reproduce-paper": {},
}
COMMANDS = list(SMALL)


@pytest.fixture
def small_preset(monkeypatch):
    # a small grid in place of the preset's 201 x 201 keeps the run short
    monkeypatch.setattr(cli, "QuadratureGrid", lambda *a: QuadratureGrid(-3, 3, -3, 3, 9, 7))


def declared_keys(command=None):
    """The config key of each option that ``ExperimentSpec`` declares (of
    those ``command`` offers as flags, if given), in field order."""
    return [f.metadata["key"] or f.name for f in dataclasses.fields(cli.ExperimentSpec)
            if f.metadata and (command is None or command in f.metadata["commands"])]


def flags(options):
    return [f"--{key.replace('_', '-')}={value}" for key, value in options.items()]


@pytest.mark.parametrize("command", COMMANDS)
def test_flag_and_config_key_give_the_same_manifest_value(tmp_path, small_preset, command):
    offered = declared_keys(command)
    assert set(SMALL[command]) <= set(offered)
    for key in offered:
        small = flags({k: v for k, v in SMALL[command].items() if k != key})
        by_flag, by_file = tmp_path / f"{key}-flag", tmp_path / f"{key}-file"
        if key == "out":
            flag_args, line, file_args = [f"--out={by_flag}"], f"out = {by_file}", []
        else:
            value = VALUES[key]
            flag_args = [*flags({key: value}), "--out", str(by_flag)]
            line, file_args = f"{key} = {value}", ["--out", str(by_file)]
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(line + "\n")
        assert run_cli(command, *small, *flag_args) == EXIT_OK, key
        assert run_cli(command, *small, "--config", str(cfg), *file_args) == EXIT_OK, key
        flag_doc = json.loads((by_flag / "manifest.json").read_text())
        file_doc = json.loads((by_file / "manifest.json").read_text())
        assert (flag_doc.pop("out"), file_doc.pop("out")) == (str(by_flag), str(by_file))
        assert flag_doc == file_doc, key
        if key != "out":
            field = {"omega0": "omega_0", "format": "formats"}.get(key, key)
            typed = {"diamagnetic": True, "format": ["json"]}
            assert flag_doc[field] == (typed[key] if key in typed else json.loads(value)), key


@pytest.mark.parametrize("command", COMMANDS)
def test_help_lists_the_declared_options_in_field_order(capsys, command):
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--help")
    assert exc.value.code == EXIT_OK
    offered = re.findall(r"^  (--[a-z0-9-]+)", capsys.readouterr().out, re.MULTILINE)
    assert offered == ["--config", *(f"--{key.replace('_', '-')}" for key in
                                     declared_keys(command))]


def test_spec_echo_is_the_fields_in_order(tmp_path):
    out = tmp_path / "run"
    assert run_cli("entropy", "--nmax", "2", "--g-steps", "2", "--format", "json",
                   "--out", str(out)) == EXIT_OK
    fields = [f.name for f in dataclasses.fields(cli.ExperimentSpec)]
    assert fields[:3] == ["command", "omega_c", "omega_0"] and fields[-1] == "formats"
    spec = json.loads((out / "entropy.json").read_text())["spec"]
    assert list(spec) == [*fields, "version"]
    # the manifest holds the same keys, sorted
    assert list(json.loads((out / "manifest.json").read_text())) == sorted(spec)


def test_config_file_may_set_every_key(tmp_path, small_preset):
    cfg = tmp_path / "all.cfg"
    keys = {**VALUES, "nmax": "3", "format": "csv,json", "out": str(tmp_path / "unused")}
    assert set(keys) == set(declared_keys())
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in keys.items()))
    for command in COMMANDS:
        out = tmp_path / command
        assert run_cli(command, "--config", str(cfg), "--out", str(out)) == EXIT_OK, command
        manifest = json.loads((out / "manifest.json").read_text())
        # every key is echoed, whether or not the command uses it
        assert (manifest["q_min"], manifest["levels"], manifest["diamagnetic"]) == (-2, 3, True)
    # entropy always writes both model variants, so diamagnetic changes no value
    cfg.write_text(cfg.read_text().replace("diamagnetic = on", "diamagnetic = off"))
    assert run_cli("entropy", "--config", str(cfg), "--out", str(tmp_path / "off")) == EXIT_OK
    assert (tmp_path / "entropy" / "entropy.csv").read_bytes() == \
        (tmp_path / "off" / "entropy.csv").read_bytes()


PRESET_SWEEPS = ["fig1a", "fig1b", "fig2a", "fig2b", "fig8a", "fig8b"]
PRESET_PANELS = [f"{fig}_g{g}" for fig in ("fig4a", "fig4b", "fig5a", "fig5b")
                 for g in ("0", "0p5", "1", "3", "7", "10")] + ["fig6a", "fig6b", "fig7a", "fig7b"]
SUFFIXES = {"csv": [".csv"], "json": [".json"], "svg": [".svg"], "gnuplot": [".gp", ".dat"]}


@pytest.mark.parametrize("formats, count", [("csv,json", 69), ("svg,gnuplot", 91),
                                            ("csv,json,svg,gnuplot", 159)])
def test_reproduce_paper_file_set(tmp_path, small_preset, formats, count):
    # the sweeps are written in the formats of their own commands, so never gnuplot
    def files(names, fmts):
        return {name + s for name in names for f in fmts for s in SUFFIXES[f]}

    fmts = formats.split(",")
    expected = (files(PRESET_SWEEPS, [f for f in fmts if f != "gnuplot"])
                | files(PRESET_PANELS, fmts) | {"manifest.json"})
    out = tmp_path / "bundle"
    assert run_cli("reproduce-paper", "--format", formats, "--out", str(out)) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == sorted(expected)
    assert len(expected) == count


@pytest.mark.parametrize("argv", [
    ("reproduce-paper", "--nmax", "40"),
    ("reproduce-paper", "--diamagnetic", "on"),
    ("entropy", "--diamagnetic", "on"),
])
def test_flags_a_command_ignores_are_rejected(tmp_path, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--out", str(out))
    assert exc.value.code == EXIT_CONFIG
    assert not out.exists()


def test_flags_may_not_be_abbreviated(tmp_path):
    # a config key must be spelled in full (form = json is an unknown key), and
    # so must a flag, or the two routes would accept different options
    out = tmp_path / "abbreviated"
    with pytest.raises(SystemExit) as exc:
        run_cli("spectrum", "--nmax", "2", "--form", "json", "--out", str(out))
    assert exc.value.code == EXIT_CONFIG
    cfg = tmp_path / "form.cfg"
    cfg.write_text("form = json\n")
    assert run_cli("spectrum", "--nmax", "2", "--config", str(cfg), "--out", str(out)) == EXIT_CONFIG
    assert not out.exists()
    out = tmp_path / "full"
    assert run_cli("spectrum", "--nmax", "2", "--g-steps", "3", "--format", "json",
                   "--out", str(out)) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "spectrum.json"]


def test_each_preset_figure_is_its_command(tmp_path):
    # at full size, a preset figure is its command at the defaults with the
    # figure's n_max, variant and coupling; only the JSON files differ, as
    # they echo the spec of the run, and a gnuplot script, as it names its
    # own data file.  Copied panels are pinned too: fig4b_g3 is a copy of
    # fig4a_g3, fig5a_g0 of the vacuum fig4a_g0 and the surface fig7b of
    # fig5b_g10
    bundle = tmp_path / "bundle"
    assert run_cli("reproduce-paper", "--format", "csv,svg,gnuplot",
                   "--out", str(bundle)) == EXIT_OK
    panel = [".csv", ".svg", ".dat"]
    for figure, argv, formats, suffixes in [
        ("fig1b", ["spectrum", "--nmax", "2", "--diamagnetic", "on"], "csv,svg", [".csv", ".svg"]),
        ("fig2a", ["spectrum"], "csv", [".csv"]),
        ("fig8a", ["entropy", "--nmax", "2"], "csv,svg", [".csv", ".svg"]),
        ("fig5b_g3", ["wigner", "--g", "3", "--diamagnetic", "on"], "csv,svg,gnuplot", panel),
        ("fig4b_g3", ["wigner", "--g", "3", "--nmax", "2", "--diamagnetic", "on"],
         "csv,svg,gnuplot", panel),
        ("fig5a_g0", ["wigner", "--g", "0"], "csv,svg,gnuplot", panel),
        ("fig7b", ["wigner", "--g", "10", "--diamagnetic", "on"], "csv,svg,gnuplot",
         panel + [".gp"]),
    ]:
        out = tmp_path / figure
        assert run_cli(*argv, "--format", formats, "--out", str(out)) == EXIT_OK, figure
        for suffix in suffixes:
            expected = (out / f"{argv[0]}{suffix}").read_bytes()
            if suffix == ".gp":
                expected = expected.replace(b"wigner.dat", f"{figure}.dat".encode())
            assert (bundle / f"{figure}{suffix}").read_bytes() == expected, figure + suffix


def test_diamagnetic_config_value_is_on_or_off(tmp_path):
    for value, expected in (("yes", None), ("true", None), ("on", True), ("ON", True),
                            ("off", False)):
        cfg = tmp_path / f"{value}.cfg"
        cfg.write_text(f"diamagnetic = {value}\n")
        out = tmp_path / value
        code = run_cli("spectrum", "--nmax", "2", "--levels", "2", "--g-steps", "3",
                       "--config", str(cfg), "--out", str(out))
        if expected is None:
            assert code == EXIT_CONFIG and not out.exists(), value
        else:
            assert code == EXIT_OK, value
            assert json.loads((out / "manifest.json").read_text())["diamagnetic"] is expected


@pytest.mark.parametrize("command", ["spectrum", "crossings", "entropy"])
def test_sweep_over_one_coupling_needs_one_step(tmp_path, command):
    out = tmp_path / "out"
    code = run_cli(command, "--g-min", "1", "--g-max", "1", "--g-steps", "3",
                   "--nmax", "4", "--out", str(out))
    assert code == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("argv", [("spectrum", "--format", "csv,csv"),
                                  ("wigner", "--n-q", "5", "--format", "svg,json,svg"),
                                  ("crossings", "--format", "json, json")])
def test_repeated_format_is_rejected(tmp_path, capsys, argv):
    # each format may be given once; a repeat would write its files twice
    out = tmp_path / "out"
    assert run_cli(*argv, "--nmax", "2", "--out", str(out)) == EXIT_CONFIG
    assert "each format may be given once" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, config, message", [
    (("spectrum", "--config", "{tmp}/missing.cfg"), None, "cannot read config file"),
    (("spectrum", "--config", "{tmp}/bad.cfg"), "nmax = x\n", "bad value for nmax: 'x'"),
    (("spectrum", "--format", ","), None, "at least one output format is required"),
    (("crossings", "--g-steps", "2"), None, "crossings needs at least 3 grid points"),
], ids=["missing_config", "bad_config_value", "no_format", "crossings_two_points"])
def test_configuration_error_messages(tmp_path, capsys, argv, config, message):
    # each is refused with exit 2 and its message before any output is written
    if config is not None:
        (tmp_path / "bad.cfg").write_text(config)
    out = tmp_path / "out"
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert run_cli(*argv, "--out", str(out)) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"qrabi: configuration error: {message}")
    assert not out.exists()


def test_cli_import_leaves_scipy_out():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = "import sys, qrabi.cli; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "False"


def test_package_import_loads_no_writer():
    # the writers and their json are loaded by qrabi.cli, not by the library
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys, qrabi; "
            "print(*(m in sys.modules for m in ('qrabi.plotting', 'qrabi.output', 'json')))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.split() == ["False", "False", "False"]


def test_cli_leaves_openssl_out(tmp_path):
    # hashlib maps OpenSSL's libcrypto through _hashlib; neither the import
    # nor a reproduce-paper run should load it
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = """if True:
        import sys
        from qrabi import cli
        from qrabi.wigner import QuadratureGrid
        print("_hashlib" in sys.modules)
        cli.QuadratureGrid = lambda *a: QuadratureGrid(-3, 3, -3, 3, 9, 7)
        code = cli.main(["reproduce-paper", "--format", "csv", "--out", sys.argv[1]])
        print(code, "_hashlib" in sys.modules)
    """
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["False", str(EXIT_OK), "False"]


@pytest.mark.parametrize("command, nmax, columns", [
    ("spectrum", "2", "g_over_wc,E0,E1,E2,E3"),
    ("crossings", "3", "level_lower,level_upper,g_at_min,min_gap,at_boundary"),
], ids=["spectrum", "crossings"])
def test_default_levels_fit_a_small_basis(tmp_path, command, nmax, columns):
    # without --levels or a config value, levels is min(8, 2 nmax), as in the preset
    out = tmp_path / "default"
    assert run_cli(command, "--nmax", nmax, "--g-steps", "5", "--out", str(out)) == EXIT_OK
    assert json.loads((out / "manifest.json").read_text())["levels"] == 2 * int(nmax)
    lines = (out / f"{command}.csv").read_text().splitlines()
    assert lines[0] == columns
    assert len(lines) == 1 + (5 if command == "spectrum" else 2 * int(nmax) - 1)
    # an explicit value out of range is still refused, as a flag and from a file
    too_many = str(2 * int(nmax) + 1)
    out = tmp_path / "flag"
    assert run_cli(command, "--nmax", nmax, "--levels", too_many, "--out", str(out)) == EXIT_CONFIG
    cfg = tmp_path / "levels.cfg"
    cfg.write_text(f"levels = {too_many}\n")
    out = tmp_path / "file"
    assert run_cli(command, "--nmax", nmax, "--config", str(cfg), "--out", str(out)) == EXIT_CONFIG
    assert not (tmp_path / "flag").exists() and not out.exists()
    # the commands without --levels keep echoing the default
    out = tmp_path / "entropy"
    assert run_cli("entropy", "--nmax", nmax, "--g-steps", "3", "--out", str(out)) == EXIT_OK
    assert json.loads((out / "manifest.json").read_text())["levels"] == 8


def test_numerical_failure_exit_code(tmp_path):
    # grid extent far beyond the Laguerre overflow guard
    code = run_cli(
        "wigner", "--g", "0", "--nmax", "400",
        "--q-min=-1e9", "--q-max=1e9", "--p-min=-1e9", "--p-max=1e9",
        "--n-q", "5", "--n-p", "5", "--out", str(tmp_path / "w"),
    )
    assert code == EXIT_NUMERICAL


def test_sweep_failure_names_the_coupling_as_a_float(tmp_path, capsys):
    # D = 1e308 makes D X^2 overflow, so the Hamiltonian is not finite
    code = run_cli("wigner", "--d-override", "1e308", "--diamagnetic", "on", "--g", "1",
                   "--nmax", "3", "--n-q", "3", "--n-p", "3", "--out", str(tmp_path / "w"))
    assert code == EXIT_NUMERICAL
    assert capsys.readouterr().err.splitlines() == [
        "qrabi: numerical failure: sweep failed at g = 1.0: "
        "need g >= 0 and a finite Hamiltonian"]


def test_allocation_failure_exit_code(tmp_path, monkeypatch, capsys):
    # a grid too large to allocate is a numerical failure, not a traceback
    def no_memory(*args):
        raise MemoryError("Unable to allocate 745. TiB for an array")

    monkeypatch.setattr(cli, "sweep_spectrum", no_memory)
    code = run_cli("spectrum", "--nmax", "2", "--levels", "2", "--out", str(tmp_path / "s"))
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err.splitlines()
    assert err == ["qrabi: numerical failure: Unable to allocate 745. TiB for an array"]


@pytest.mark.parametrize("error, exit_code", [
    (MemoryError("Unable to allocate 745. TiB for an array"), EXIT_NUMERICAL),
    (OSError("disk full"), EXIT_IO),
], ids=["numerical", "io"])
def test_failed_run_removes_the_directories_it_made(tmp_path, monkeypatch, error, exit_code):
    def fail(*args):
        raise error

    monkeypatch.setattr(cli, "sweep_spectrum", fail)
    out = tmp_path / "new" / "s"
    code = run_cli("spectrum", "--nmax", "2", "--levels", "2", "--out", str(out))
    assert code == exit_code
    assert list(tmp_path.iterdir()) == []


def test_failed_run_keeps_a_directory_that_existed(tmp_path, monkeypatch):
    def no_memory(*args):
        raise MemoryError("Unable to allocate 745. TiB for an array")

    monkeypatch.setattr(cli, "sweep_spectrum", no_memory)
    out = tmp_path / "existing"
    out.mkdir()
    code = run_cli("spectrum", "--nmax", "2", "--levels", "2", "--out", str(out))
    assert code == EXIT_NUMERICAL
    assert out.is_dir() and list(out.iterdir()) == []


def test_run_that_fails_midway_leaves_its_partial_bundle(tmp_path, monkeypatch, small_preset):
    # fig8's entropy sweeps run last; the files before them stay, the
    # manifest (written last) is missing
    def no_memory(*args):
        raise MemoryError("Unable to allocate 745. TiB for an array")

    monkeypatch.setattr(cli, "entropy_sweep", no_memory)
    out = tmp_path / "bundle"
    assert run_cli("reproduce-paper", "--format", "csv", "--out", str(out)) == EXIT_NUMERICAL
    names = {p.name for p in out.iterdir()}
    assert {"fig1a.csv", "fig2b.csv", "fig4a_g0.csv", "fig7b.csv"} <= names
    assert "manifest.json" not in names and "fig8a.csv" not in names


@pytest.mark.skipif(os.geteuid() == 0, reason="permission checks are void for root")
def test_io_failure_exit_code(tmp_path):
    blocked = tmp_path / "blocked"
    blocked.mkdir()
    blocked.chmod(stat.S_IRUSR | stat.S_IXUSR)
    try:
        code = run_cli(
            "entropy", "--g-min", "0", "--g-max", "0", "--g-steps", "1",
            "--nmax", "2", "--out", str(blocked / "sub"),
        )
        assert code == EXIT_IO
    finally:
        blocked.chmod(stat.S_IRWXU)


def test_io_failure_out_path_is_file(tmp_path):
    target = tmp_path / "occupied"
    target.write_text("a file, not a directory")
    code = run_cli(
        "entropy", "--g-min", "0", "--g-max", "0", "--g-steps", "1",
        "--nmax", "2", "--out", str(target),
    )
    assert code == EXIT_IO


def test_io_failure_out_path_under_a_file(tmp_path):
    # mkdir fails on a path through a regular file, for root as well, and
    # the cleanup's rmdir of the directory it could not make fails too
    target = tmp_path / "occupied"
    target.write_text("a file, not a directory")
    code = run_cli(
        "entropy", "--g-min", "0", "--g-max", "0", "--g-steps", "1",
        "--nmax", "2", "--out", str(target / "sub"),
    )
    assert code == EXIT_IO
    assert target.read_text() == "a file, not a directory"
    assert list(tmp_path.iterdir()) == [target]


def test_reproduce_paper_copies_only_repeated_panels(tmp_path, monkeypatch):
    # a small grid in place of the preset's 201 x 201 keeps the run short
    monkeypatch.setattr(cli, "QuadratureGrid", lambda *a: QuadratureGrid(-3, 3, -3, 3, 9, 7))
    panels, copies = [], {}
    real_gsw, real_copy = cli.ground_state_wigner, cli._copy_wigner

    def recording_gsw(cfg, grid):
        panels.append(real_gsw(cfg, grid))
        return panels[-1]

    def recording_copy(out, source, name, formats):
        copies[name] = source
        real_copy(out, source, name, formats)

    monkeypatch.setattr(cli, "ground_state_wigner", recording_gsw)
    monkeypatch.setattr(cli, "_copy_wigner", recording_copy)
    out = tmp_path / "bundle"
    formats = ("csv", "json", "svg", "gnuplot")
    assert run_cli("reproduce-paper", "--format", ",".join(formats), "--out", str(out)) == EXIT_OK

    names = [f"{fig}_g{cli._g_label(g)}" for fig in ("fig4a", "fig4b", "fig5a", "fig5b")
             for g in (0.0, 0.5, 1.0, 3.0, 7.0, 10.0)]
    assert len(panels) == len(names)
    # a panel is a copy exactly when its values equal an earlier panel's
    emitted = {}
    for name, w in zip(names, panels):
        source = next((s for s, v in emitted.items() if np.array_equal(v, w.values)), None)
        assert copies.get(name) == source, name
        if source is None:
            emitted[name] = w.values
    vacuum = ["fig4a_g0", "fig4b_g0", "fig5a_g0", "fig5b_g0"]
    assert all(copies[name] == "fig4a_g0" for name in vacuum[1:])
    surfaces = {"fig6a": "fig4a_g10", "fig6b": "fig4b_g10", "fig7a": "fig5a_g10",
                "fig7b": "fig5b_g10"}
    assert {name: copies[name] for name in surfaces} == surfaces

    # the vacuum panels equal a direct emission; every script names its own data
    spec_doc = json.loads((out / "fig4a_g0.json").read_text())["spec"]
    cli._emit(tmp_path, "direct", panels[0], cli.wigner_table, cli.wigner_svg, spec_doc,
              formats)
    for name in vacuum:
        for suffix in (".csv", ".json", ".svg", ".dat"):
            assert (out / f"{name}{suffix}").read_bytes() == \
                (tmp_path / f"direct{suffix}").read_bytes(), name + suffix
    for name in names + list(surfaces):
        assert (out / f"{name}.gp").read_text() == gnuplot_script(f"{name}.dat")


def test_reproduce_paper_dedupes_panels_by_their_exact_bits(tmp_path, monkeypatch,
                                                            small_preset):
    # crafted panels in preset order: fig4a_g0p5 is bit-equal to fig4a_g0,
    # fig4a_g1 differs from it by one ulp in its centre cell and fig4a_g3 in
    # the sign of its zero corners (the writers print both zeros as 0, but
    # the key compares bits); every other panel is distinct
    grid = QuadratureGrid(-3, 3, -3, 3, 9, 7)
    q, p = np.meshgrid(grid.q_axis(), grid.p_axis())
    base = np.exp(-q**2 - p**2) / np.pi
    base[[0, 0, -1, -1], [0, -1, 0, -1]] = 0.0
    one_ulp = base.copy()
    one_ulp[grid.n_p // 2, grid.n_q // 2] = np.nextafter(base[grid.n_p // 2, grid.n_q // 2], 1)
    signed_zero = base.copy()
    signed_zero[[0, 0, -1, -1], [0, -1, 0, -1]] = -0.0
    crafted = [base, base.copy(), one_ulp, signed_zero]
    calls = []

    def crafted_gsw(cfg, quad):
        k = len(calls)
        calls.append(k)
        values = crafted[k] if k < len(crafted) else base * (1 - 0.01 * k)
        return WignerGrid(quad, values.copy())

    emitted, copies = [], {}
    real_emit, real_copy = cli._emit, cli._copy_wigner

    def recording_emit(out, name, *args):
        emitted.append(name)
        real_emit(out, name, *args)

    def recording_copy(out, source, name, formats):
        copies[name] = source
        real_copy(out, source, name, formats)

    monkeypatch.setattr(cli, "ground_state_wigner", crafted_gsw)
    monkeypatch.setattr(cli, "_emit", recording_emit)
    monkeypatch.setattr(cli, "_copy_wigner", recording_copy)
    out = tmp_path / "bundle"
    assert run_cli("reproduce-paper", "--format", "csv", "--out", str(out)) == EXIT_OK
    assert len(calls) == 24
    assert copies == {"fig4a_g0p5": "fig4a_g0", "fig6a": "fig4a_g10", "fig6b": "fig4b_g10",
                      "fig7a": "fig5a_g10", "fig7b": "fig5b_g10"}
    assert {"fig4a_g0", "fig4a_g1", "fig4a_g3"} <= set(emitted)
