"""No dead definitions: every module-level function and class in pgk and
in tests/helpers.py is referenced somewhere in src/, tests/ or bench/
outside its own body.  A reference is a name, an attribute, an imported
name, or a string spelling the name exactly (how the bench's PATCHES and
monkeypatch reach an attribute); the strings of an `__all__` list do not
count."""

import ast
from pathlib import Path

from helpers import SCANNED_MODULES

ROOT = Path(__file__).resolve().parent.parent


def _names(node):
    """Every name node references, less the strings of `__all__` lists."""
    if isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    ):
        return
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield node.name.rpartition(".")[2]
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield node.value
    for child in ast.iter_child_nodes(node):
        yield from _names(child)


def test_every_definition_is_referenced():
    sources = [p for d in ("src", "tests", "bench") for p in sorted((ROOT / d).rglob("*.py"))]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    defined = sorted((ROOT / "src" / "pgk").glob("*.py")) + [ROOT / "tests" / "helpers.py"]
    assert SCANNED_MODULES <= {path.name for path in defined}
    assert (ROOT / "bench" / "tracing.py") in trees
    # each name's referencing places: (file, module-level definition the
    # reference sits in, or None)
    places: dict[str, set] = {}
    for path, tree in trees.items():
        for node in tree.body:
            for name in _names(node):
                places.setdefault(name, set()).add((path, getattr(node, "name", None)))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    dead = [
        f"{path.relative_to(ROOT)}::{node.name}"
        for path in defined
        for node in trees[path].body
        if isinstance(node, kinds) and not places.get(node.name, set()) - {(path, node.name)}
    ]
    assert dead == []
