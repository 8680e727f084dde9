"""The runtime imports nothing outside the standard library, and starting
the CLI loads neither `dataclasses` nor `inspect`."""

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


def test_cli_import_loads_no_dataclasses():
    """The result records are NamedTuples, so starting the CLI loads neither
    `dataclasses` nor the `inspect` chain it pulls in.  Run without `site`,
    which may import modules of its own."""
    src = pathlib.Path(__file__).parent.parent / "src"
    code = ("import lieext.cli, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert out.stdout.strip() == "[]"
