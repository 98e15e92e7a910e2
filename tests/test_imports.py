"""Every name a qci module imports is used in that module, and every
function, class and method qci defines is named somewhere else.

No linter ships with the project, so these stdlib ``ast`` passes keep
imports and definitions from outliving the code that needed them.
"""

import ast
import pathlib
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qci"
# where a definition may be named: the program, its tests, the benchmark
# (whose layers.py names the functions it wraps in strings) and the tools
USERS = ("src", "tests", "perfbench", "tools")


def unused_imports(source):
    """(line, name) of every imported name the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                imported[(alias.asname or alias.name).split(".")[0]] = \
                    node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def _names(tree):
    """Names read in a tree: plain names and attribute names."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unnamed_definitions(defining, using, strings=()):
    """(source index, line, name) of every function, class and method in
    the sources ``defining`` whose name is read nowhere in the sources
    ``using`` (which include ``defining``) or among the dotted ``strings``,
    except inside its own definition.  Dunder methods are called
    implicitly and are skipped."""
    total = Counter()
    for source in using:
        total += _names(ast.parse(source))
    for text in strings:
        total.update(text.split("."))
    defs, inside = [], Counter()
    for i, source in enumerate(defining):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, DEFINITIONS):
                defs.append((i, node.lineno, node.name))
                inside[node.name] += _names(node)[node.name]
    return sorted((i, line, name) for i, line, name in defs
                  if not (name.startswith("__") and name.endswith("__"))
                  and total[name] - inside[name] == 0)


def _layer_strings():
    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text())
    return [node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)]


def test_unnamed_definitions_are_found():
    lib = ("def used():\n    pass\n\n\ndef again():\n    again()\n\n\n"
           "class Box:\n    def __init__(self):\n        pass\n\n"
           "    def read(self):\n        pass\n\n"
           "    def wrapped(self):\n        pass\n")
    user = "used()\n"
    assert unnamed_definitions([lib], [lib, user], ["qci.Box.wrapped"]) == \
        [(0, 5, "again"), (0, 13, "read")]


def test_every_definition_is_named():
    defining = sorted(SRC.rglob("*.py"))
    using = sorted(p for d in USERS for p in (ROOT / d).rglob("*.py"))
    found = unnamed_definitions([p.read_text() for p in defining],
                                [p.read_text() for p in using],
                                _layer_strings())
    assert [(defining[i].relative_to(ROOT).as_posix(), line, name)
            for i, line, name in found] == []


def test_unused_imports_are_found():
    source = ("import os\nimport os.path as osp\nfrom json import dumps, "
              "loads\nfrom . import mod\n\nloads(mod.x)\n")
    assert unused_imports(source) == [(1, "os"), (2, "osp"), (3, "dumps")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
