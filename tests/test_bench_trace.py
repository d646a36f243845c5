"""The benchmark's traced run writes plain JSON numbers.

``perfbench/run.py --trace 1`` serializes every per-layer metric; a tracer
observer that returns an array instead of a scalar would only fail there.
"""

import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import bench  # noqa: E402

from eiprecode.config import parse_config  # noqa: E402
from eiprecode.linksim import SimConfig  # noqa: E402

SMALL = bench.Workload(
    "small",
    "ber",
    {
        **bench._LINK,
        "users": 4,
        "antennas": 16,
        "eta": [0.3],
        "precoder": "WFQ",
        "csi": "ei_cleaned",
        "bits": 3,
        "modulation": "QPSK",
        "snr_db": [5.0],
        "trials": 4,
        "threads": 1,
    },
    ("snr_db",),
)


SMALL_CLEAN = bench.Workload(
    "small_clean",
    "clean-csi",
    {
        "users": 4,
        "antennas": 128,
        "antennas_grid": [64, 128],
        "eta": [0.1, 0.5],
        "corruption_mode": "additive",
        "csi": "ei_cleaned",
        "trials": 2,
        "threads": 1,
    },
    ("eta", "antennas_grid"),
)


def test_traced_clean_csi_run_pairs_every_estimate_with_a_traced_draw(tmp_path):
    # the tracer opens a trial id at each gen_channel it sees and pairs each
    # estimate_eta with that trial's corrupt calls; a draw made past the
    # module globals it wraps would leave the estimates without a trial
    doc = bench.measure(tmp_path, SMALL_CLEAN, seed=3, seconds=0.01, trace=True)
    assert doc["correct"]
    metrics = doc["metrics"]
    bad = {k: v for k, v in metrics.items() if type(v) is not float or not math.isfinite(v)}
    assert not bad, bad
    # one draw per (grid size, trial), one estimate per level
    assert metrics["eta.calls_per_trial"] == 2.0


def test_traced_metrics_serialize_as_finite_floats(tmp_path):
    doc = bench.measure(tmp_path, SMALL, seed=3, seconds=0.01, trace=True)
    assert doc["correct"]
    metrics = doc["metrics"]
    json.dumps(metrics, allow_nan=False)
    bad = {k: v for k, v in metrics.items() if type(v) is not float or not math.isfinite(v)}
    assert not bad, bad
    # the cleaner evaluates every leave-one-out resolvent in one call
    assert metrics["rie.local_stieltjes.calls_per_clean"] == 1.0
    # WFQ reads F_B once and transmit P_B once per trial, whatever the antenna count
    assert metrics["precoding.bussgang_gain.calls_per_trial"] == 1.0
    assert metrics["precoding.quantized_power.calls_per_trial"] == 1.0


def test_the_benchmark_configs_parse_to_their_python_values(tmp_path):
    for w in bench.WORKLOADS.values():
        argv = w.argv(seed=7, out=tmp_path)
        sets = [argv[i + 1] for i, a in enumerate(argv) if a == "--set"]
        cfg, extras = parse_config(overrides=sets, env={})
        assert cfg == SimConfig(**w.sets) and extras == {}
        # the JSON config echo keeps 1.0 for a YAML c: 1
        assert all(type(v) is float for v in cfg.eta + cfg.snr_db + (cfg.c,)), w.name
        for key in ("users", "antennas", "trials", "symbols_per_trial", "seed",
                    "threads", "min_errors", "max_bits"):
            assert type(getattr(cfg, key)) is int, (w.name, key)
        assert all(type(a) is int for a in cfg.antennas_grid or ()), w.name
        if "min_errors" in w.sets:
            assert cfg.min_errors == 10**15
