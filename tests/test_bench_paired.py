"""The paired A/B script runs a workload in two trees and writes its JSON."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "bench" / "paired.py"


def _git(*args):
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def test_paired_runs_alternate_two_workers_and_remove_the_worktree(tmp_path):
    commit = _git("rev-parse", "--short", "HEAD")
    if commit is None:
        pytest.skip("needs a git checkout with a commit")
    worktrees = _git("worktree", "list", "--porcelain")
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--workload", "clean_sweep", "--against", "HEAD",
         "--pairs", "4", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    path = Path(done.stdout.strip().splitlines()[-1])
    assert path.parent == tmp_path and path.name.endswith(f"-vs-{commit}-clean_sweep.json")
    doc = json.loads(path.read_text())
    assert set(doc) == {"workload", "seed", "environment", "against", "tree", "ref", "ratio"}
    assert doc["workload"] == "clean_sweep" and doc["seed"] == 1
    assert doc["against"] == {"ref": "HEAD", "commit": commit}
    assert doc["environment"]["openblas_num_threads"] == "1"
    for side in ("tree", "ref"):
        assert set(doc[side]) == {"trials_per_s", "median", "lower_quintile"}
        assert len(doc[side]["trials_per_s"]) == 4 and min(doc[side]["trials_per_s"]) > 0
        assert 0 < doc[side]["lower_quintile"] <= doc[side]["median"]
    ratio = doc["ratio"]
    assert set(ratio) == {"median", "q25", "q75", "wins", "pairs"}
    assert ratio["pairs"] == 4 and 0 <= ratio["wins"] <= 4
    assert 0 < ratio["q25"] <= ratio["median"] <= ratio["q75"]
    # the temporary checkout is gone again
    assert _git("worktree", "list", "--porcelain") == worktrees

