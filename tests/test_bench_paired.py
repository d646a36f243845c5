"""The paired A/B script runs a workload in two trees and writes its JSON."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "bench" / "paired.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("bench_paired", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    assert set(doc) == {
        "workload", "seed", "environment", "against", "tree", "ref", "ratio", "verdict"
    }
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
    rule = doc["verdict"]
    assert set(rule) == {"wins", "wins_needed", "pairs", "median_gap", "ref_iqr", "gain"}
    assert rule["wins"] == ratio["wins"] and rule["pairs"] == 4 and rule["wins_needed"] == 4
    assert rule["median_gap"] == doc["tree"]["median"] - doc["ref"]["median"]
    assert "gain rule: " in done.stderr
    # the temporary checkout is gone again
    assert _git("worktree", "list", "--porcelain") == worktrees



def test_gain_rule_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_ref_spread():
    verdict = _load_script().verdict
    ref = [100.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0, 101.0, 99.0]
    # 10 of 10 wins, median gap 10 against the ref's interquartile range 2
    rule = verdict({"tree": [r + 10.0 for r in ref], "ref": ref})
    assert rule == {"wins": 10, "wins_needed": 9, "pairs": 10, "median_gap": 10.0,
                    "ref_iqr": 2.0, "gain": True}
    # 8 of 10 wins is short of nine tenths, whatever the gap
    tree = [r + 10.0 for r in ref[:8]] + [r - 1.0 for r in ref[8:]]
    assert verdict({"tree": tree, "ref": ref})["wins"] == 8
    assert not verdict({"tree": tree, "ref": ref})["gain"]
    # a tie counts for neither side
    assert verdict({"tree": ref[:1] + [r + 10.0 for r in ref[1:]], "ref": ref})["wins"] == 9
    # every pair won, but by less than the ref's own spread
    rule = verdict({"tree": [r + 1.5 for r in ref], "ref": ref})
    assert rule["wins"] == 10 and rule["median_gap"] < rule["ref_iqr"] and not rule["gain"]
