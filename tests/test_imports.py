"""Every name a module imports is used in that module.

No linter ships with the project, so this AST scan stands in for one.
Package ``__init__`` files re-export what they import and are skipped, as
are ``from __future__`` imports.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for folder in ("src/hieract", "tests")
                 for path in (ROOT / folder).glob("*.py")
                 if path.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_scan_finds_an_unused_import():
    source = "import os\nfrom json import dumps, loads\nprint(loads)\n"
    assert _unused_imports(source) == ["line 2: dumps", "line 1: os"]
