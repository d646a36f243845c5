"""Every demo script, and the README quick start, runs to completion against
the package in ``src``."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_DEMOS = sorted((_ROOT / "demos").glob("*.py"))


def _run(script):
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"), MPLBACKEND="Agg")
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]


def test_demos_are_found():
    assert len(_DEMOS) >= 5


@pytest.mark.parametrize("demo", _DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    _run(demo)


def test_readme_quick_start_runs(tmp_path):
    readme = (_ROOT / "README.md").read_text()
    block = re.search(r"^```python\n(.*?)^```", readme, re.M | re.S).group(1)
    script = tmp_path / "quick_start.py"
    script.write_text(block)
    _run(script)
