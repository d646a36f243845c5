"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import bench  # noqa: E402
from tracing import Span, Tracer, percentile, self_times, summarize, tail_percentile  # noqa: E402

TINY = bench.Workload(
    "tiny",
    "ber",
    {
        **bench._LINK,
        "users": 4,
        "antennas": 16,
        "eta": [0.3],
        "precoder": "WFQ",
        "csi": "ei_cleaned",
        "bits": 3,
        "modulation": "16QAM",
        "snr_db": [5.0, 10.0],
        "trials": 16,
        "threads": 2,
    },
    ("snr_db",),
)


def _span(sid, parent, start, end, name="rie.x"):
    return Span(sid, parent, name, None, start, end)


def test_self_time_subtracts_only_direct_children():
    spans = [_span(0, None, 0, 10), _span(1, 0, 1, 5), _span(2, 1, 2, 3)]
    assert self_times(spans) == {0: 6, 1: 3, 2: 1}


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        _span(0, None, 0, 10),
        _span(1, 0, 1, 4),
        _span(2, 0, 3, 6),  # overlaps child 1, as pool threads do
        _span(3, 0, 8, 12),  # runs past its parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10 - 5 - 2)


def test_tail_percentile_leaves_ten_samples_above():
    assert [tail_percentile(n) for n in (0, 15, 48, 200, 1000, 5000)] == [50, 50, 79, 95, 99, 99]
    for n in range(20, 1500, 7):
        p = tail_percentile(n)
        xs = list(range(n))
        assert sum(x > percentile(xs, p) for x in xs) >= 10


def _originals():
    return [(t.owner, t.attr, getattr(t.owner, t.attr)) for t in bench.trace_targets()]


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    originals = _originals()
    doc = bench.measure(tmp_path, TINY, seed=3, seconds=0.01, trace=True)
    assert all(getattr(owner, attr) is fn for owner, attr, fn in originals)
    assert doc["correct"]
    m = doc["metrics"]
    assert m["trace.trials"] > 0 and m["linksim.trial_samples"] == m["trace.trials"]
    assert m["rmt.theory_evals_per_estimate"] > 0 and m["precoding.calls_per_trial"] > 0
    # trials ran in a pool of two, yet each hangs under its monte_carlo span
    assert 1.0 < m["linksim.parallelism"] <= 2.0


def test_a_raising_call_records_no_span_and_uninstall_restores():
    class Owner:
        @staticmethod
        def boom():
            raise RuntimeError("boom")

    original = Owner.boom
    tracer = Tracer()
    tracer.install([bench.Target(Owner, "boom")])
    assert Owner.boom is not original
    with pytest.raises(RuntimeError):
        Owner.boom()
    tracer.uninstall()
    assert Owner.boom is original and tracer.spans == []


def test_untraced_run_installs_no_wrapper(tmp_path, monkeypatch):
    originals = _originals()
    seen = []
    real_main = bench.cli.main

    def checked_main(argv):
        seen.append(all(getattr(owner, attr) is fn for owner, attr, fn in originals))
        return real_main(argv)

    def no_install(self, targets):
        raise AssertionError("untraced run installed a wrapper")

    monkeypatch.setattr(bench.cli, "main", checked_main)
    monkeypatch.setattr(bench.Tracer, "install", no_install)
    monkeypatch.setattr(bench, "setup_seconds", lambda *a: [1.0])
    doc = bench.measure(tmp_path, TINY, seed=3, seconds=0.01, trace=False)
    assert seen and all(seen)
    assert doc["correct"] and doc["checks"]["thread_invariant"]
    assert set(doc["metrics"]) == {"trials_per_s", "setup_s", "peak_rss_mb", "quality_err"}


def test_output_check_fails_a_misordered_ber_row():
    header = "snr_db,precoder,csi_mode,bits,ber,ber_lo,ber_hi,trials,seed"
    good = "5,WFQ,ei_cleaned,3,0.2,0.1,0.3,16,3"
    bad = "10,WFQ,ei_cleaned,3,0.2,0.25,0.3,16,3"
    _, failed = bench.check_rows(TINY, 3, "\n".join(["# c", header, good, bad]))
    assert failed == 1


def test_summarize_reports_zero_for_a_layer_that_did_no_work():
    spans = [Span(0, None, "linksim.downlink_trial", 0, 0.0, 1.0)]
    m = summarize(spans)
    assert m["rie.ms_per_trial"] == m["eta.calls_per_trial"] == 0.0
    assert m["linksim.trial_samples"] == 1.0


def test_benchmark_json_matches_the_printed_metrics():
    import json

    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(bench.WORKLOADS)
    per_layer = set(summarize([])) | {"trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert bench.unit_of(m["name"]) == m["unit"], m["name"]
    assert {m["name"] for m in spec["end_to_end"]} == set(bench.UNITS)
