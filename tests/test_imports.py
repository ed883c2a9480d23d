"""pgk is standard-library only: every import in the package is pgk itself,
__future__, or a standard-library module."""

import ast
import sys
from pathlib import Path

import pgk

ALLOWED = {"pgk", "__future__"} | set(sys.stdlib_module_names)


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_only_stdlib_and_pgk_imports():
    sources = sorted(Path(pgk.__file__).parent.rglob("*.py"))
    assert sources
    foreign = [
        f"{path.name}: {name}"
        for path in sources
        for name in _imported_modules(path)
        if name.split(".")[0] not in ALLOWED
    ]
    assert not foreign
