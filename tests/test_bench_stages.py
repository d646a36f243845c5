"""The committed stage-timing script runs end to end and writes its JSON."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "bench" / "stages.py"
STAGES = ["draw", "estimate", "clean", "precode", "transmit", "demodulate", "other"]


def _load_script():
    spec = importlib.util.spec_from_file_location("bench_stages", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stage_script_writes_every_stage_and_the_environment(tmp_path):
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--sizes", "4x16,2x8", "--repeats", "2", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    path = Path(done.stdout.strip().splitlines()[-1])
    assert path.parent == tmp_path and path.name.startswith("BENCH_") and path.suffix == ".json"
    doc = json.loads(path.read_text())
    assert set(doc) == {"setup", "environment", "sizes"}
    assert {"commit", "dirty", "python", "numpy", "cpu_count"} <= set(doc["environment"])
    assert set(doc["sizes"]) == {"4x16", "2x8"}
    keys = {"median_ms", "iqr_ms", "samples", "calls_per_trial", "minor_faults_per_call"}
    per_trial = {"draw": 1, "estimate": 1, "clean": 1, "transmit": 1, "other": 1}
    for res in doc["sizes"].values():
        assert res["repeats"] == 2
        assert list(res["stages"]) == STAGES
        for name, stage in res["stages"].items():
            assert set(stage) == keys, name
            assert stage["median_ms"] > 0 and stage["iqr_ms"] >= 0
            assert stage["samples"] == 2 * stage["calls_per_trial"]
            assert stage["calls_per_trial"] == per_trial.get(name, 3)
            assert stage["minor_faults_per_call"] >= 0, name
        assert set(res["trial"]) == keys - {"minor_faults_per_call"} | {"minor_faults_per_trial"}
        assert res["trial"]["calls_per_trial"] == 1 and res["trial"]["minor_faults_per_trial"] >= 0


def test_each_size_is_measured_in_a_fresh_subprocess(tmp_path, monkeypatch):
    # a size's fault counts must not depend on the sizes measured before it
    # in the same process, so the plain run hands every size to a child
    stages = _load_script()
    calls = []

    def child(tree, size, repeats, out):
        calls.append((tree, size, repeats))
        return {"stages": {"draw": {"median_ms": 1.0}}, "trial": {"median_ms": float(size[0])}}

    monkeypatch.setattr(stages, "_run_tree", child)
    monkeypatch.setattr(stages, "measure_size", lambda *a: pytest.fail("measured in process"))
    assert stages.main(["--sizes", "4x16,2x8", "--repeats", "2", "--out", str(tmp_path)]) == 0
    assert calls == [(stages.ROOT, (4, 16), 2), (stages.ROOT, (2, 8), 2)]
    (path,) = tmp_path.glob("BENCH_*.json")
    sizes = json.loads(path.read_text())["sizes"]
    assert {name: res["trial"]["median_ms"] for name, res in sizes.items()} == {"4x16": 4.0, "2x8": 2.0}


def test_stage_times_are_spans_inside_each_downlink_trial():
    # every stage is timed inside a real downlink_trial call, not in a copy of it
    stages = _load_script()
    cfg = stages.linksim.SimConfig(users=4, antennas=16, threads=1, **stages.SETUP)
    original = stages.linksim.downlink_trial
    looked_up = {stage: getattr(owner, attr) for stage, (owner, attr) in stages.LOOKUPS.items()}
    spans, faults = stages.trace_trials(cfg, 3)
    assert stages.linksim.downlink_trial is original
    for stage, (owner, attr) in stages.LOOKUPS.items():
        assert getattr(owner, attr) is looked_up[stage], stage
    trials = {s.sid: s for s in spans if s.name == stages.TRIAL}
    assert len(trials) == 3 and len(faults["trial"]) == 3
    by_name = {}
    for s in spans:
        if s.name != stages.TRIAL:
            assert s.parent in trials, s.name
            by_name.setdefault(s.name, []).append(s)
    assert set(by_name) == set(stages.STAGES.values())
    assert len(by_name["precoding.precode"]) == 3 * len(cfg.snr_db)
    # one fault count per stage call, never more than its trial's
    for stage, name in stages.STAGES.items():
        assert len(faults[stage]) == len(by_name[name]), stage
        assert all(f >= 0 for f in faults[stage]), stage
    assert sum(sum(faults[stage]) for stage in stages.STAGES) <= sum(faults["trial"])


def _git(*args):
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def test_against_pairs_this_checkout_with_a_commit_and_removes_its_worktree(tmp_path):
    commit = _git("rev-parse", "--short", "HEAD")
    if commit is None:
        pytest.skip("needs a git checkout with a commit")
    worktrees = _git("worktree", "list", "--porcelain")
    rounds = _load_script().ROUNDS
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--against", "HEAD", "--sizes", "2x8", "--repeats", "2",
         "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    path = Path(done.stdout.strip().splitlines()[-1])
    assert path.parent == tmp_path and path.name.endswith(f"-vs-{commit}.json")
    doc = json.loads(path.read_text())
    assert doc["against"] == {"ref": "HEAD", "commit": commit, "rounds": rounds}
    row = doc["sizes"]["2x8"]
    assert set(row) == {"repeats", "rounds", "tree", "ref", "wins"}
    for side in ("tree", "ref"):
        assert list(row[side]) == [*STAGES, "trial"]
        for part in row[side].values():
            assert set(part) == {"median_ms", "faults"} and part["median_ms"] > 0
    assert list(row["wins"]) == [*STAGES, "trial"]
    assert all(0 <= wins <= rounds for wins in row["wins"].values())
    # the temporary checkout is gone again
    assert _git("worktree", "list", "--porcelain") == worktrees
