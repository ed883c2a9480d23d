"""Mask digits are read and written in one place: calls to `bin`, to
`format` and to two-argument `int` appear in pgk only inside
graph_core's `bits` (bit listing) and `transpose` (transposition), so
every other bit-matrix job goes through those kernels."""

import ast
from pathlib import Path

import pgk

from helpers import SCANNED_MODULES

KERNELS = {("graph_core.py", "bits"), ("graph_core.py", "transpose")}


def _digit_calls(tree):
    """(top-level definition, line) of each bin, format or int(x, base)
    call in tree; None for a call outside any definition."""
    for node in tree.body:
        for call in ast.walk(node):
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)):
                continue
            name, nargs = call.func.id, len(call.args) + len(call.keywords)
            if name in ("bin", "format") or (name == "int" and nargs == 2):
                yield getattr(node, "name", None), call.lineno


def test_digit_strings_only_in_the_bit_kernels():
    sources = sorted(Path(pgk.__file__).parent.glob("*.py"))
    assert SCANNED_MODULES <= {path.name for path in sources}
    found = {
        (path.name, owner, line)
        for path in sources
        for owner, line in _digit_calls(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert {(name, owner) for name, owner, _ in found} == KERNELS, sorted(found)
