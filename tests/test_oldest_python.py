"""Smoke test under the oldest Python that pyproject.toml supports: pgk
imports there, and the CLI writes there what it writes under the running
interpreter.  It catches syntax or regular-expression features newer
than the supported minimum, which no other test sees."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
VERSION = re.search(
    r'requires-python\s*=\s*">=\s*(\d+\.\d+)', (ROOT / "pyproject.toml").read_text()
).group(1)


def interpreter(version: str):
    """A working python of this minor version: pythonX.Y on PATH or a
    pyenv install, each probed, since a pyenv shim may exist and fail."""
    candidates = [shutil.which(f"python{version}")]
    candidates += sorted(Path.home().glob(f".pyenv/versions/{version}.*/bin/python3"))
    probe = "import sys; print('%d.%d' % sys.version_info[:2])"
    for exe in filter(None, candidates):
        try:
            done = subprocess.run([exe, "-c", probe], capture_output=True, text=True)
        except OSError:
            continue
        if done.returncode == 0 and done.stdout.strip() == version:
            return str(exe)
    return None


PYTHON = interpreter(VERSION)
COMMANDS = [
    ["generate", "Q8xZ3", "--kind", "pow", "--out", "q8z3.pow"],
    ["generate", "Z12", "--kind", "dpow", "--out", "z12.dpow"],
    ["reconstruct", "q8z3.pow", "--kind", "pow", "--out", "q8z3.dpow"],
    ["iso", "z12.dpow", "z12.dpow", "--kind", "dpow"],
]


def run_all(python: str, cwd: Path):
    """Exit code and stdout of each command, then the files written."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cwd.mkdir()
    results = []
    for argv in COMMANDS:
        done = subprocess.run(
            [python, "-m", "pgk.cli", *argv], cwd=cwd, env=env, capture_output=True
        )
        assert done.returncode == 0, (python, argv, done.stderr)
        results.append(done.stdout)
    return results, {p.name: p.read_bytes() for p in sorted(cwd.iterdir())}


@pytest.mark.skipif(PYTHON is None, reason=f"no working python{VERSION} found")
def test_cli_on_oldest_supported_python(tmp_path):
    old = run_all(PYTHON, tmp_path / "oldest")
    assert old == run_all(sys.executable, tmp_path / "running")
    assert sorted(old[1]) == ["q8z3.dpow", "q8z3.pow", "z12.dpow"]
