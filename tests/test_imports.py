"""Every name a qci module imports is used in that module, every
function, class and method qci defines is named somewhere else, value
equality has one owner, importing the command loads no module that only
some commands need, and the oracles and the golden generator stay clear
of the qci code they check.

No linter ships with the project, so these stdlib ``ast`` passes keep
imports and definitions from outliving the code that needed them.
"""

import ast
import os
import pathlib
import subprocess
import sys
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


def _reads(tree):
    """Plain names read (loaded) in a tree."""
    return Counter(node.id for node in ast.walk(tree)
                   if isinstance(node, ast.Name)
                   and isinstance(node.ctx, ast.Load))


def unnamed_definitions(defining, using, strings=()):
    """(source index, line, name) of every function, class and method in
    the sources ``defining`` that nothing names.  A module-level
    definition is named when its own module reads it outside its body, a
    source in ``using`` imports it by name or reads it as an attribute, or
    it is a part of one of the dotted ``strings``.  A method is named when
    its name is read anywhere in ``using`` (which include ``defining``),
    or among the ``strings``, outside its own definition.  Dunder methods
    are called implicitly and are skipped."""
    total, outside = Counter(), Counter()
    for source in using:
        tree = ast.parse(source)
        total += _names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                outside.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                outside[node.attr] += 1
    for text in strings:
        total.update(text.split("."))
        outside.update(text.split("."))
    defs, inside = [], Counter()
    for i, source in enumerate(defining):
        tree = ast.parse(source)
        reads = _reads(tree)
        for node in ast.walk(tree):
            if isinstance(node, DEFINITIONS):
                # reads in its own module, outside its body; None: a method
                own = (reads[node.name] - _reads(node)[node.name]
                       if node in tree.body else None)
                defs.append((i, node.lineno, node.name, own))
                inside[node.name] += _names(node)[node.name]

    def named(name, own):
        if own is None:
            return total[name] > inside[name]
        return own > 0 or outside[name] > 0
    return sorted((i, line, name) for i, line, name, own in defs
                  if not (name.startswith("__") and name.endswith("__"))
                  and not named(name, own))


def _layer_strings():
    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text())
    return [node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)]


def test_unnamed_definitions_are_found():
    lib = ("def used():\n    pass\n\n\ndef again():\n    again()\n\n\n"
           "class Box:\n    def __init__(self):\n        pass\n\n"
           "    def read(self):\n        pass\n\n"
           "    def wrapped(self):\n        pass\n")
    user = "from lib import used\n\nused()\n"
    assert unnamed_definitions([lib], [lib, user], ["qci.Box.wrapped"]) == \
        [(0, 5, "again"), (0, 13, "read")]
    # a module-level name that other modules read only as a local of their
    # own is unnamed; an import, an attribute read, a read in its own
    # module outside its body or a dotted string names it
    lib = ("def shadowed():\n    pass\n\n\ndef imported():\n    pass\n\n\n"
           "def attr():\n    pass\n\n\ndef local():\n    pass\n\n\n"
           "def layered():\n    pass\n\n\nlocal()\n")
    user = ("from lib import imported\n\n\n"
            "def f(shadowed):\n    shadowed = lib.attr\n    return shadowed\n")
    assert unnamed_definitions([lib], [lib, user], ["qci.lib.layered"]) == \
        [(0, 1, "shadowed")]


def test_every_definition_is_named():
    defining = sorted(SRC.rglob("*.py"))
    using = sorted(p for d in USERS for p in (ROOT / d).rglob("*.py"))
    found = unnamed_definitions([p.read_text() for p in defining],
                                [p.read_text() for p in using],
                                _layer_strings())
    assert [(defining[i].relative_to(ROOT).as_posix(), line, name)
            for i, line, name in found] == []


def qci_imports(source):
    """The sorted qci modules a source imports: ``import qci.x``, ``from
    qci.x import y`` and ``from qci import x``, read as qci.x."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names
                         if alias.name.split(".")[0] == "qci")
        elif isinstance(node, ast.ImportFrom) and not node.level and \
                (node.module or "").split(".")[0] == "qci":
            found.update([node.module] if node.module != "qci" else
                         (f"qci.{alias.name}" for alias in node.names))
    return sorted(found)


def test_qci_imports_are_found():
    source = ("import json\nimport qci.cli\nfrom qci import corpus, algebra\n"
              "from qci.diagram import parse_diagram\nfrom . import qci\n"
              "from tests.oracle_utils import braid_closure\n")
    assert qci_imports(source) == ["qci.algebra", "qci.cli", "qci.corpus",
                                   "qci.diagram"]


def test_the_oracles_import_no_qci_code_they_check():
    # the oracles import no qci module at all; the golden generator takes
    # the corpus, the quandles and the cocycle tables from qci, and every
    # coloring and weight from the oracles
    assert qci_imports((ROOT / "tests" / "oracle_utils.py").read_text()) == []
    assert set(qci_imports((ROOT / "tools" / "gen_goldens.py").read_text())) \
        <= {"qci.corpus", "qci.algebra", "qci.cohomology"}


# the value classes compare through Frozen._key; CohomologyBasis is the one
# mutable record, so it compares by field and has no hash
OWN_EQUALITY = {"Frozen", "CohomologyBasis"}


def own_equality(source):
    """(line, class, name) of every __eq__ or __hash__ that a class body
    defines or assigns itself."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                names = ([item.name] if isinstance(item, ast.FunctionDef)
                         else [t.id for t in getattr(item, "targets", ())
                               if isinstance(t, ast.Name)])
                found += [(node.lineno, node.name, name) for name in names
                          if name in ("__eq__", "__hash__")]
    return sorted(found)


def test_own_equality_is_found():
    source = ("class A:\n    def __eq__(self, other):\n        pass\n\n"
              "class B(A):\n    __hash__ = None\n\n"
              "class C:\n    def key(self):\n        pass\n")
    assert own_equality(source) == [(1, "A", "__eq__"), (5, "B", "__hash__")]


def test_only_frozen_and_the_cohomology_basis_define_equality():
    found = [(path.name, *hit) for path in sorted(SRC.rglob("*.py"))
             for hit in own_equality(path.read_text())
             if hit[1] not in OWN_EQUALITY]
    assert found == []


def test_unused_imports_are_found():
    source = ("import os\nimport os.path as osp\nfrom json import dumps, "
              "loads\nfrom . import mod\n\nloads(mod.x)\n")
    assert unused_imports(source) == [(1, "os"), (2, "osp"), (3, "dumps")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


# dataclasses pulls in inspect, ast and dis; hashlib serves --manifest,
# importlib.resources corpus: paths, random corpus-verify and traceback an
# internal error.  Each costs a one-shot command start-up time.
NOT_AT_STARTUP = ("dataclasses", "inspect", "hashlib", "importlib.resources",
                  "random", "traceback")


def test_importing_the_command_loads_no_optional_module():
    # against the interpreter's own start-up set: a site hook may load
    # some of these before any user code, and that is not qci's doing
    probe = ("import sys\nbefore = set(sys.modules)\nimport qci.cli\n"
             "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", probe], check=True,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    loaded = set(proc.stdout.split())
    assert "qci.cli" in loaded
    assert sorted(loaded.intersection(NOT_AT_STARTUP)) == []
