"""Every name a beatsched module imports is used in that module.

No linter ships with the project, so this test parses each module with
`ast`: a name bound by an import must be read somewhere in the module,
inside a quoted annotation, or be listed in the module's `__all__`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "beatsched"
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import statement -> the statement's line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def read_names(tree: ast.Module) -> set[str]:
    """Names the module reads, in code, in quoted annotations and in __all__."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    quoted = [
        ast.parse(const.value, mode="eval")
        for annotation in annotations if annotation is not None
        for const in ast.walk(annotation)
        if isinstance(const, ast.Constant) and isinstance(const.value, str)
    ]
    used = {
        node.id
        for root in (tree, *quoted)
        for node in ast.walk(root)
        if isinstance(node, ast.Name)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


def test_every_module_is_checked():
    assert {path.name for path in MODULES} >= {"__init__.py", "cli.py", "optimizer.py", "model.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_uses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = read_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree).items() if name not in used]
    assert unused == [], f"{path.name} imports names it never uses"


def test_the_check_sees_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path, sys as system\n"
        "from typing import Mapping, Sequence\n"
        "from .model import PathPair\n"
        "__all__ = ['Sequence']\n"
        "def f(x: 'Mapping[str, int]') -> int:\n"
        "    return os.sep\n"
    )
    used = read_names(tree)
    assert [name for name in imported_names(tree) if name not in used] == ["system", "PathPair"]
