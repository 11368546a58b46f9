"""Module-level imports that nothing in the module reads.

No linter ships with the test dependencies, so this parses each module of
the library, the tests and the demos with ast: a name that a top-level import
binds must appear somewhere in the module as a name. `__init__.py` is skipped,
since it imports to re-export.
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


def module_id(path: Path) -> str:
    return path.name if path.parent == SRC else f"{path.parent.name}/{path.name}"


@pytest.mark.parametrize("path", MODULES, ids=module_id)
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
