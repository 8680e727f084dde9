"""The runtime imports nothing outside the standard library, and starting
the CLI loads neither `dataclasses`, `inspect` nor `hashlib`."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "lieext").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_only_stdlib_and_lieext(path):
    allowed = set(sys.stdlib_module_names) | {"lieext"}
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    assert found <= allowed, f"{path.name} imports {sorted(found - allowed)}"


def _modules_added_by_cli_import():
    """The modules that ``import lieext.cli`` adds to ``sys.modules`` in a
    fresh interpreter.  Run without `site`, which may import modules of its
    own."""
    src = pathlib.Path(__file__).parent.parent / "src"
    code = ("import sys; before = set(sys.modules); import lieext.cli; "
            "print(sorted(set(sys.modules) - before))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    return set(ast.literal_eval(out.stdout))


def test_cli_import_loads_no_dataclasses():
    """The result records are NamedTuples, so starting the CLI loads neither
    `dataclasses` nor the `inspect` chain it pulls in; and inputs are hashed
    with the interpreter's builtin SHA-256, so it loads neither `hashlib`
    nor `_hashlib`, its binding to OpenSSL."""
    added = _modules_added_by_cli_import()
    assert not {"dataclasses", "inspect", "hashlib", "_hashlib"} & added


def test_cli_import_loads_only_stdlib_and_lieext():
    """Every module that starting the CLI loads is in the standard library or
    in lieext, including the SHA-256 module picked by name for the running
    version, which the source scan above cannot see."""
    allowed = set(sys.stdlib_module_names) | {"lieext"}
    top_level = {name.split(".")[0] for name in _modules_added_by_cli_import()}
    assert "lieext" in top_level
    assert top_level <= allowed, sorted(top_level - allowed)
