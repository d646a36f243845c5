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
