"""Every module under ``src/repro`` uses every name it imports.

An AST scan, since no linter runs here: each non-``__init__`` module is
parsed, and every name an ``import`` or ``from ... import`` statement
binds (the ``as`` name, or the first component of a dotted module) must
appear somewhere else in the module as a name or as the base of an
attribute. Annotations count, quoted ones too, since
``from __future__ import annotations`` keeps them in the tree.
Package ``__init__`` modules re-export what they import, so they are
not scanned.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of each imported name the module never uses."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a quoted annotation
                used |= {
                    n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                    if isinstance(n, ast.Name)
                }
            except SyntaxError:
                pass
    return sorted(
        (line, name) for name, line in imported.items() if name not in used
    )


def test_the_scan_finds_an_unused_name():
    source = "import os\nfrom typing import Sequence, Any\nx: 'Any' = os\n"
    assert unused_imports(source) == [(2, "Sequence")]


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES]
)
def test_every_imported_name_is_used(path):
    unused = unused_imports(path.read_text())
    assert not unused, "\n".join(
        f"{path.relative_to(SRC.parent)}:{line}: {name} is imported but "
        "never used"
        for line, name in unused
    )
