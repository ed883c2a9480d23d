"""The traced benchmark wraps pgk functions by module attribute; a
refactor that renames or moves one of them, or stops calling it, would
silently drop a per-layer metric, so every patched attribute must exist
and every span must fire."""

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


def test_every_patched_span_fires(tmp_path):
    # the calls one generate of each kind, a table file, a reconstruct of
    # each undirected kind and a dpow iso make reach every patched
    # attribute, so no refactor can leave a per-layer metric reading zero
    from pgk.cli import main

    tracing = load_tracing()
    tracer = tracing.Tracer(memory=False)
    restore, missing = tracer.install()
    fired = set()
    try:
        for module, attr, _, _ in tracing.PATCHES:  # count calls through each patch
            owner = importlib.import_module(module)
            traced = getattr(owner, attr)

            def counting(*args, _traced=traced, _name=f"{module}.{attr}", **kwargs):
                fired.add(_name)
                return _traced(*args, **kwargs)

            setattr(owner, attr, counting)
        table = tmp_path / "z6.cayley"
        table.write_text("6\n" + "".join(
            " ".join(str((i + j) % 6) for j in range(6)) + "\n" for i in range(6)
        ))
        path = {kind: str(tmp_path / f"z12.{kind}") for kind in ("pow", "epow", "dpow")}
        for kind, out in path.items():
            assert main(["generate", "Z12", "--kind", kind, "--out", out]) == 0
        out = str(tmp_path / "z6.pow")
        assert main(["generate", f"file:{table}", "--kind", "pow", "--out", out]) == 0
        for kind in ("pow", "epow"):
            out = str(tmp_path / f"z12.{kind}.dpow")
            assert main(["reconstruct", path[kind], "--kind", kind, "--out", out]) == 0
        assert main(["iso", path["dpow"], out, "--kind", "dpow"]) == 0
    finally:
        restore()
    assert missing == []
    assert fired == {f"{module}.{attr}" for module, attr, _, _ in tracing.PATCHES}
    assert {s.name for s in tracer.spans} == {name for _, _, name, _ in tracing.PATCHES}
