"""The traced benchmark wraps pgk functions by module attribute; a
refactor that renames or moves one of them would silently drop a
per-layer metric, so every patched attribute must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_attribute_exists():
    patches = load_tracing().PATCHES
    assert patches
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in patches
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
