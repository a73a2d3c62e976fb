"""Source hygiene of src/btquot, read with ast and as plain text.

No linter ships with the package, so these checks stand in for one:
every imported name is used in its module (a deletion that leaves an
import behind fails here), no line is longer than 79 columns, every
attribute stored on self is read somewhere in the repository, every
module-level private function is named somewhere in src or tests, and
no check is an assert statement, which python -O strips.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "btquot").glob("*.py"))
MAX_COLUMNS = 79


def _trees(*dirs):
    return [ast.parse(path.read_text()) for d in dirs
            for path in sorted((ROOT / d).rglob("*.py"))]


def stored_on_self(tree) -> set[str]:
    """The attribute names assigned as self.<name> anywhere in tree."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"}


def loaded_attributes(trees) -> set[str]:
    return {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def private_functions(tree) -> set[str]:
    """The module-level functions of tree whose names start with one
    underscore."""
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("_") and not node.name.startswith("__")}


def named(trees) -> set[str]:
    """Every name read, attribute read or name imported in trees."""
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name)
    return out


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


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_statement(path):
    lines = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert on lines {lines}"


def test_unused_import_check_finds_a_leftover():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "from .homspace import _assert_solution, hom\n"
              "def f(v):\n    return hom(v, v)\n")
    assert unused_imports(source) == ["np (line 2)",
                                      "_assert_solution (line 3)"]


def test_no_write_only_attribute():
    loaded = loaded_attributes(_trees("src", "tests", "perfbench",
                                      "scripts"))
    stored = {(path.name, name) for path in SOURCES
              for name in stored_on_self(ast.parse(path.read_text()))}
    assert sorted(x for x in stored if x[1] not in loaded) == []


def test_every_private_function_is_named():
    used = named(_trees("src", "tests"))
    private = {(path.name, name) for path in SOURCES
               for name in private_functions(ast.parse(path.read_text()))}
    assert sorted(x for x in private if x[1] not in used) == []


def test_attribute_and_function_checks_find_leftovers():
    source = ("class S:\n"
              "    def __init__(self, one):\n"
              "        self._one, self.gen = one, one\n"
              "        self._powers = [self.gen]\n"
              "def _pow(a, k):\n    return a\n"
              "def _used():\n    return S(_used)._powers\n")
    tree = ast.parse(source)
    stored = stored_on_self(tree)
    assert stored == {"_one", "gen", "_powers"}
    assert stored - loaded_attributes([tree]) == {"_one"}
    assert private_functions(tree) - named([tree]) == {"_pow"}
