"""Every ```python block of README.md runs as written, under the id that an
HTML comment before its fence names, and so does every ``qrabi`` command of
its ```sh blocks, so a public name or a CLI flag the README uses cannot be
renamed or deleted without this test failing.  Every public name of
``import qrabi`` appears in README, and those names are the ``__all__``
lists of the four library modules, which hold none of the tests' reference
oracles."""

import ast
import importlib
import pathlib
import re
import shlex
import types

import pytest

import qrabi
from qrabi.cli import EXIT_OK, main

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
TEXT = README.read_text(encoding="utf-8")
# (id, source) of each ```python block; its id is named in a comment on the
# line before its fence, "" where there is none, so no test id depends on
# where a block sits in README
BLOCKS = re.findall(r"^(?:<!-- test id: (\S+) -->\n)?```python\n(.*?)^```$", TEXT,
                    re.MULTILINE | re.DOTALL)
# each line of an sh block that runs qrabi, with its backslash continuations joined
COMMANDS = [line for block in re.findall(r"^```sh\n(.*?)^```$", TEXT, re.MULTILINE | re.DOTALL)
            for line in block.replace("\\\n", " ").splitlines() if line.startswith("qrabi ")]


def test_readme_has_python_blocks():
    assert BLOCKS


def test_readme_python_blocks_have_distinct_ids():
    ids = [name for name, _ in BLOCKS]
    assert "" not in ids, f"a ```python block has no <!-- test id: ... --> line: {ids}"
    assert len(set(ids)) == len(ids), f"two ```python blocks share an id: {ids}"


def test_readme_has_cli_commands():
    assert COMMANDS


@pytest.mark.parametrize("source", [source for _, source in BLOCKS],
                         ids=[name for name, _ in BLOCKS])
def test_readme_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})


@pytest.mark.parametrize("command", COMMANDS, ids=[f"command{i}" for i in range(len(COMMANDS))])
def test_readme_cli_command_runs(command, tmp_path, monkeypatch):
    # the commands write to relative --out directories
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(command)[1:]) == EXIT_OK


def exported_names():
    # the package's submodules are attributes of it too, but not exports
    return [name for name in dir(qrabi) if not name.startswith("_")
            and not isinstance(getattr(qrabi, name), types.ModuleType)]


def test_readme_names_every_exported_name():
    assert [name for name in exported_names() if not re.search(rf"\b{name}\b", TEXT)] == []


def test_exported_names_are_the_library_modules_all():
    # the function qrabi.wigner shadows its module, so the modules are imported
    # by name; a name in two lists would be shadowed by the later star import
    lists = [importlib.import_module(f"qrabi.{module}").__all__
             for module in ("entanglement", "model", "spectra", "wigner")]
    names = [name for names in lists for name in names]
    assert len(names) == len(set(names))
    assert sorted(exported_names()) == sorted(names)


def test_the_oracles_are_not_in_the_library():
    # each moved to tests/oracles.py from its former module
    moved = [("model", "build_full"), ("model", "parity_operator"),
             ("entanglement", "expectation"), ("entanglement", "PureState"),
             ("entanglement", "ground_state"), ("entanglement", "partial_trace"),
             ("entanglement", "von_neumann_entropy"), ("wigner", "wigner_characteristic")]
    for module, name in moved:
        assert not hasattr(qrabi, name)
        assert not hasattr(importlib.import_module(f"qrabi.{module}"), name)
    imported = {}
    for path in (ROOT / "src" / "qrabi").glob("*.py"):
        names = imported[path.stem] = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                # a relative import's module is named without its package
                names.add(("qrabi." if node.level else "") + (node.module or ""))
    assert not any("oracles" in name.split(".") for names in imported.values() for name in names)
    # the Wigner layer depends on model and spectra, not on the entropy layer
    assert not any(name.startswith("qrabi.entanglement") for name in imported["wigner"])
