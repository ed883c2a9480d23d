"""pgk recurses nowhere, so no input size can meet Python's recursion
limit: no function in the package calls itself by name, and the two
searches that once did (the brute-force isomorphism oracle and the
canonical tree code) run on deep inputs under a tiny limit."""

import ast
import subprocess
import sys
from pathlib import Path

import pgk

from helpers import SCANNED_MODULES

DEEP_INPUTS = """
import sys
from pgk.graph_core import ColoredGraph, brute_force_color_iso
from pgk.nilpotent_iso import canonical_tree_code

n = 300
K = ColoredGraph(n, (1,) * n, frozenset((u, v) for v in range(n) for u in range(v)))
path = ColoredGraph(n, (1,) + (2,) * (n - 1), frozenset((v - 1, v) for v in range(1, n)))
sys.setrecursionlimit(120)
assert brute_force_color_iso(K, K, cap=n) == list(range(n))
assert canonical_tree_code(path) == "(1:" + "(2:" * (n - 1) + ")" * n
"""


def _self_calls(tree):
    """Qualified names of the functions in tree that call themselves by
    name (directly, or as self.<name> / cls.<name>)."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                for call in ast.walk(child):
                    if not isinstance(call, ast.Call):
                        continue
                    f = call.func
                    if (isinstance(f, ast.Name) and f.id == child.name) or (
                        isinstance(f, ast.Attribute)
                        and f.attr == child.name
                        and isinstance(f.value, ast.Name)
                        and f.value.id in ("self", "cls")
                    ):
                        found.append(name)
                        break
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def test_no_function_calls_itself():
    sources = sorted(Path(pgk.__file__).parent.glob("*.py"))
    assert SCANNED_MODULES <= {path.name for path in sources}
    recursive = [
        f"{path.name}: {name}"
        for path in sources
        for name in _self_calls(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert recursive == []


def test_deep_inputs_under_a_small_recursion_limit():
    done = subprocess.run(
        [sys.executable, "-c", DEEP_INPUTS],
        capture_output=True,
        text=True,
        cwd=Path(pgk.__file__).parent.parent,
    )
    assert done.returncode == 0, done.stderr
