"""Only graph_core reads a graph's pair and set views (`.edges`, `.arcs`,
`.neighbors`): every other module in pgk works on the adjacency
bitmasks, so the hot paths share one representation of neighborhoods.
CCG detection reads adjacency alone, never vertex colors: it marks the
uncolored graph the paper starts from."""

import ast
from pathlib import Path

import pgk

VIEWS = {"edges", "arcs", "neighbors"}


def _view_reads(path, views=VIEWS):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in views
    ]


def test_only_graph_core_reads_adjacency_views():
    sources = sorted(Path(pgk.__file__).parent.rglob("*.py"))
    assert any(path.name == "graph_core.py" for path in sources)
    readers = [
        f"{path.name}:{line} .{attr}"
        for path in sources
        if path.name != "graph_core.py"
        for line, attr in _view_reads(path)
    ]
    assert readers == []


def test_ccg_detection_reads_no_colors():
    path = Path(pgk.__file__).parent / "ccg_detection.py"
    assert _view_reads(path, {"masks"})
    assert _view_reads(path, {"colors"}) == []
