"""Every name a library module imports is referenced in that module.

No linter ships with the test dependencies, so this is a small `ast` scan:
an import binds a name (`import a.b` binds `a`), and some `Name` node of the
same module must read it.  `from __future__` imports bind no name.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "entrogeo"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = {
        (alias.asname or alias.name).partition(".")[0]: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items() if name not in used}
    assert unused == {}, f"{path.name}: imported but never used (name: line): {unused}"
