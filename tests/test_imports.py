"""Module-level imports and private names that nothing in the module reads.

No linter ships with the test dependencies, so this parses each module of
the library, the tests and the demos with ast: a name that a top-level import
binds must appear somewhere in the module as a name. `__init__.py` is skipped,
since it imports to re-export. In the library, every private top-level name
and every private method must also be read somewhere in its module, so a
helper whose last caller goes does not outlive it. No library module
imports numpy.random where importing the module runs it: the generator code
loads at a process's first draw (photon_source.substream), so that a process
that draws nothing, such as a pooled run's main process, never loads it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bunchsim"
MODULES = sorted(
    path
    for folder in (SRC, ROOT / "tests", ROOT / "demos")
    for path in folder.glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


def test_unused_import_check_sees_every_binding():
    source = "from __future__ import annotations\nimport os.path\nimport numpy as np\nfrom .a import b, c as d\nb(np)\n"
    assert unused_imports(source) == ["d", "os"]


def unread_private_names(source: str) -> list[str]:
    tree = ast.parse(source)
    defined = {}  # what the module reads a private name as -> how it is reported
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update((n.id, n.id) for target in targets for n in ast.walk(target) if isinstance(n, ast.Name))
        if isinstance(node, ast.ClassDef):
            methods = (item.name for item in node.body if isinstance(item, ast.FunctionDef))
            defined.update((f".{name}", f"{node.name}.{name}") for name in methods)
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(f".{node.attr}")
    private = {key: name for key, name in defined.items() if key.lstrip(".")[:1] == "_" and key[-2:] != "__"}
    return sorted(name for key, name in private.items() if key not in read)


def test_private_name_check_sees_every_definition():
    source = (
        "_A = 1\n_B: int = _A\n__all__ = []\n"
        "def _f():\n    return _g\ndef _g():\n    pass\n"
        "class _C:\n    def __init__(self):\n        self._x = 0\n"
        "    def _used(self):\n        return self._x\n    def _left(self):\n        return self._used()\n"
    )
    assert unread_private_names(source) == ["_B", "_C", "_C._left", "_f"]


def import_time_imports(source: str) -> list[str]:
    """The dotted names imported by the statements that importing the module
    runs, outside any function body; a relative import is skipped."""
    names = []
    nodes = list(ast.parse(source).body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names += [f"{node.module}.{alias.name}" for alias in node.names]
        nodes.extend(ast.iter_child_nodes(node))
    return sorted(names)


def imports_numpy_random(name: str) -> bool:
    return name == "numpy.random" or name.startswith("numpy.random.")


def test_import_time_check_sees_every_form():
    source = (
        "import numpy.random as npr\nfrom numpy import random, ndarray\nfrom .photon_source import random\n"
        "if npr:\n    from numpy.random import Philox\n"
        "class C:\n    from numpy.random import SeedSequence\n    def f(self):\n        import numpy.random\n"
        "def g():\n    from numpy.random import Generator\n"
    )
    assert [name for name in import_time_imports(source) if imports_numpy_random(name)] == [
        "numpy.random", "numpy.random", "numpy.random.Philox", "numpy.random.SeedSequence"
    ]


def module_id(path: Path) -> str:
    return path.name if path.parent == SRC else f"{path.parent.name}/{path.name}"


@pytest.mark.parametrize("path", MODULES, ids=module_id)
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=module_id)
def test_every_private_name_is_read(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=module_id)
def test_no_library_module_imports_numpy_random_at_import_time(path):
    assert [name for name in import_time_imports(path.read_text(encoding="utf-8")) if imports_numpy_random(name)] == []
