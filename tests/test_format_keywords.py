"""The graph-file format is spelled in one place: a string constant in
pgk that is a header or colors-line keyword (`graph`, `digraph`,
`colors`, `nocolors`), or begins with one and a space, appears only in
graph_core, so every writer and reader of the format goes through it."""

import ast
from pathlib import Path

import pgk

KEYWORDS = ("graph", "digraph", "colors", "nocolors")


def _keyword_constants(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and any(node.value == k or node.value.startswith(k + " ") for k in KEYWORDS)
    ]


def test_format_keywords_only_in_graph_core():
    sources = sorted(Path(pgk.__file__).parent.rglob("*.py"))
    found = {path.name: _keyword_constants(path) for path in sources}
    assert found["graph_core.py"]
    spellers = [
        f"{name}:{line} {value!r}"
        for name, constants in found.items()
        if name != "graph_core.py"
        for line, value in constants
    ]
    assert spellers == []
