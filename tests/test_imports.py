"""Every name a beatsched module imports is used in that module, and every
private module-level name is read somewhere in the package.

No linter ships with the project, so this test parses each module with
`ast`: a name bound by an import must be read somewhere in the module,
inside a quoted annotation, or be listed in the module's `__all__`. A
module-level function, class or assignment whose name starts with a single
underscore must be read outside its own definition, in any module, and so
must a method or property of a class whose name does, read as an attribute.
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


def private_definitions(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """(name, statement) for each module-level function, class or assignment
    whose name starts with a single underscore."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]
        else:
            continue
        found += [(name, node) for name in names if name.startswith("_") and not name.startswith("__")]
    return found


def names_read(node: ast.AST) -> set[str]:
    """Names a statement reads: name loads, attribute loads and the names
    its from-imports take."""
    read = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            read.add(child.id)
        elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            read.add(child.attr)
        elif isinstance(child, ast.ImportFrom):
            read |= {alias.name for alias in child.names}
    return read


def unread_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """Private module-level names that no other statement of the package reads."""
    statements = [(node, names_read(node)) for tree in trees.values() for node in tree.body]
    return [
        f"{module}: {name} (line {definition.lineno})"
        for module, tree in trees.items()
        for name, definition in private_definitions(tree)
        if not any(name in read for node, read in statements if node is not definition)
    ]


def test_every_private_name_is_read_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in MODULES}
    assert unread_private_names(trees) == [], "private names nothing in src/beatsched reads"


def test_the_check_sees_an_unread_private_name():
    trees = {
        "a.py": ast.parse(
            "_LIMIT = 3\n"
            "_Alias = list[int]\n"
            "_unused, _pair = 1, 2\n"
            "__dunder__ = 0\n"
            "def _recursive(n: _Alias):\n"
            "    return _recursive(n - 1)\n"
            "class _Kept:\n"
            "    def _method(self):\n"
            "        return _LIMIT\n"
            "def public():\n"
            "    return _pair\n"
        ),
        "b.py": ast.parse("from .a import _Kept\n"),
        "c.py": ast.parse("import a\nx = a._helper\ndef _helper(): pass\n"),
    }
    assert unread_private_names(trees) == ["a.py: _unused (line 3)", "a.py: _recursive (line 5)"]


def private_methods(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """(class name, definition) for each method or property of a class
    whose name starts with a single underscore."""
    return [
        (cls.name, member)
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for member in cls.body
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
        and member.name.startswith("_") and not member.name.startswith("__")
    ]


def unread_private_methods(trees: dict[str, ast.Module]) -> list[str]:
    """Private methods and properties that nothing in the package reads as an
    attribute outside their own definition."""
    reads = [
        node for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    ]
    unread = []
    for module, tree in trees.items():
        for cls, method in private_methods(tree):
            inside = set(map(id, ast.walk(method)))
            if not any(node.attr == method.name and id(node) not in inside for node in reads):
                unread.append(f"{module}: {cls}.{method.name} (line {method.lineno})")
    return unread


def test_every_private_method_is_read_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in MODULES}
    assert unread_private_methods(trees) == [], "private methods nothing in src/beatsched reads"


def test_the_check_sees_an_unread_private_method():
    trees = {
        "a.py": ast.parse(
            "class Record:\n"
            "    _limit = 3\n"
            "    def __init__(self):\n"
            "        self._cache = self._build()\n"
            "    def _build(self):\n"
            "        return self._limit\n"
            "    def _again(self, n):\n"
            "        return self._again(n - 1)\n"
            "    @property\n"
            "    def _size(self):\n"
            "        return 0\n"
            "    @classmethod\n"
            "    def _make(cls):\n"
            "        return cls()\n"
            "    def _dropped(self):\n"
            "        pass\n"
            "def _dropped():\n"
            "    pass\n"
        ),
        "b.py": ast.parse("from .a import Record\nsize = Record()._size\nmade = Record._make\n"),
    }
    assert unread_private_methods(trees) == ["a.py: Record._again (line 7)", "a.py: Record._dropped (line 15)"]
