import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "clonekit"


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that no Name node references;
    ``__future__`` imports bind nothing."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    bound = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in stmt.names]
    return [name for name in bound if name not in used]


def test_unused_import_check_catches_one():
    source = "import itertools\nfrom typing import Mapping, Sequence\nx: Mapping = {}\n"
    assert unused_imports(source) == ["itertools", "Sequence"]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"))
def test_no_unused_module_imports(path):
    assert unused_imports((SRC / path).read_text()) == []
