"""The demos run as scripts, and the package namespace exports what they use.

A demo imports public names only, so an export that goes missing breaks it
without failing any unit test; each one runs here in its own interpreter
with the checkout's ``src/`` first on the path (all six take seconds).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tensorpoly

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS, "no demos/*.py next to tests/"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_every_exported_name_resolves():
    assert len(set(tensorpoly.__all__)) == len(tensorpoly.__all__)
    for name in tensorpoly.__all__:
        assert getattr(tensorpoly, name) is not None, name
