"""Every narrative script in demos/ runs to completion against the package
in src/, so a removed or renamed public name cannot silently break one, and
prints exactly its committed output, demos/expected/<name>.txt."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@functools.cache
def _run(demo: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo):
    proc = _run(demo)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_prints_expected_output(demo):
    expected = ROOT / "demos" / "expected" / f"{demo.stem}.txt"
    assert _run(demo).stdout == expected.read_text(encoding="utf-8")
