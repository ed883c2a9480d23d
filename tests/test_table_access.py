"""Only group_core reads a Cayley table: every other module in pgk sees a
group through its order, cyclic_masks and element_orders, so the table's
storage format is known to one module."""

import ast
from pathlib import Path

import pgk


def _table_reads(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "table"
    ]


def test_only_group_core_reads_table():
    sources = sorted(Path(pgk.__file__).parent.rglob("*.py"))
    assert any(path.name == "group_core.py" for path in sources)
    readers = [
        f"{path.name}:{line}"
        for path in sources
        if path.name != "group_core.py"
        for line in _table_reads(path)
    ]
    assert readers == []
