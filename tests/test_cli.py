import base64
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
from qrabi.plotting import gnuplot_script
from qrabi.wigner import QuadratureGrid


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


def flags(options):
    return [f"--{key.replace('_', '-')}={value}" for key, value in options.items()]


@pytest.mark.parametrize("command", COMMANDS)
def test_flag_and_config_key_give_the_same_manifest_value(tmp_path, small_preset, command):
    offered = [key for key, option in cli._OPTIONS.items() if command in option.commands]
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


def test_config_file_may_set_every_key(tmp_path, small_preset):
    cfg = tmp_path / "all.cfg"
    keys = {**VALUES, "nmax": "3", "format": "csv,json", "out": str(tmp_path / "unused")}
    assert set(keys) == set(cli._OPTIONS)
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


def test_cli_import_leaves_scipy_out():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = "import sys, qrabi.cli; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "False"


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


def test_emit_plot_rejects_unsupported_kind(tmp_path):
    from qrabi import SpectrumSweep, emit_plot

    sweep = SpectrumSweep(np.linspace(0, 1, 3), np.zeros((3, 2)), "QRM")
    with pytest.raises(ValueError):
        emit_plot(sweep, "gnuplot", tmp_path / "s.gp")
    with pytest.raises(ValueError):
        emit_plot(sweep, "png", tmp_path / "s.png")
    emit_plot(sweep, "svg", tmp_path / "s.svg")
    assert (tmp_path / "s.svg").read_text().startswith("<svg")


def test_io_failure_out_path_is_file(tmp_path):
    target = tmp_path / "occupied"
    target.write_text("a file, not a directory")
    code = run_cli(
        "entropy", "--g-min", "0", "--g-max", "0", "--g-steps", "1",
        "--nmax", "2", "--out", str(target),
    )
    assert code == EXIT_IO


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
    cli._emit_wigner(tmp_path, "direct", panels[0], spec_doc, formats)
    for name in vacuum:
        for suffix in (".csv", ".json", ".svg", ".dat"):
            assert (out / f"{name}{suffix}").read_bytes() == \
                (tmp_path / f"direct{suffix}").read_bytes(), name + suffix
    for name in names + list(surfaces):
        assert (out / f"{name}.gp").read_text() == gnuplot_script(f"{name}.dat")
