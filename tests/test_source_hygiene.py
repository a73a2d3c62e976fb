"""Source hygiene of src/btquot, read with ast and as plain text.

No linter ships with the package, so these two checks stand in for one:
every imported name is used in its module (a deletion that leaves an
import behind fails here), and no line is longer than 79 columns.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent
                  / "src" / "btquot").glob("*.py"))
MAX_COLUMNS = 79


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads; __future__ imports
    and names listed in __all__ count as used."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_line_over_79_columns(path):
    long = [k for k, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > MAX_COLUMNS]
    assert long == [], f"{path.name}: lines {long}"


def test_unused_import_check_finds_a_leftover():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "from .homspace import _assert_solution, hom\n"
              "def f(v):\n    return hom(v, v)\n")
    assert unused_imports(source) == ["np (line 2)",
                                      "_assert_solution (line 3)"]
