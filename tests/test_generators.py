"""pgk's stages return their results: a function in the package whose own
body yields is a context manager, never a generator that hands out
mutable state between steps for a caller to snapshot."""

import ast
from pathlib import Path

import pgk

from helpers import SCANNED_MODULES

SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(function):
    """The nodes of function's body, not descending into nested scopes."""
    stack = [function]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(c for c in ast.iter_child_nodes(node) if not isinstance(c, SCOPES))


def _is_contextmanager(decorator):
    if isinstance(decorator, ast.Attribute):
        return decorator.attr == "contextmanager"
    return isinstance(decorator, ast.Name) and decorator.id == "contextmanager"


def _bare_generators(tree):
    """Names of the functions in tree that yield in their own body and are
    not decorated with contextmanager."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in _own_nodes(node)):
            if not any(_is_contextmanager(d) for d in node.decorator_list):
                yield node.name


def test_only_context_managers_yield():
    sources = sorted(Path(pgk.__file__).parent.glob("*.py"))
    assert SCANNED_MODULES <= {path.name for path in sources}
    found = [
        f"{path.name}: {name}"
        for path in sources
        for name in _bare_generators(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_the_check_sees_a_generator():
    tree = ast.parse(
        "from contextlib import contextmanager\n"
        "def steps():\n    yield 1\n"
        "@contextmanager\ndef opened():\n    yield 2\n"
        "def outer():\n    def inner():\n        yield 3\n    return inner\n"
    )
    assert list(_bare_generators(tree)) == ["steps", "inner"]
