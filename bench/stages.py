"""Per-stage and end-to-end timing of one link trial at the paper's sizes.

    python3 bench/stages.py                           # 20x128, 30x256, 128x256
    python3 bench/stages.py --sizes 4x16 --repeats 3 --out /tmp/bench

Run it from a source checkout; it imports ``eiprecode`` from ``src/`` and
the span tracer from ``perfbench/tracing.py``.  The setup is WFQ precoding
on blind ``ei_cleaned`` CSI, QPSK, 4 bits, eta 0.3, SNR 0/4/8 dB and seed 7,
with one BLAS thread.  Trials 0 .. repeats-1 each run as one
``downlink_trial`` call over all SNR points, with the tracer wrapped round
the stage functions the trial looks up: ``draw_observation``,
``estimate_eta`` and ``clean_channel`` once per trial, ``precode``,
``transmit`` and ``demodulate`` once per SNR point.  So the stage times come
from the trial's own code path, and ``other`` is the rest of the trial
(the one Gram decomposition in ``estimate_csi``, symbols, the MSEs,
noise plus ``H @ x``).  Trial 0 runs once more first,
untraced, to fill caches.

It writes ``BENCH_<short-commit>.json`` (``-dirty`` appended when the
checkout has uncommitted changes) with, per size, the median and
interquartile range of every stage in ms per call, its calls per trial and
its mean minor page faults per call, the same for the whole trial with its
minor page faults per trial, and the environment.  Faults are
``resource.getrusage`` deltas round each call; ``other`` has a trial's
faults less those of its stage calls.
"""

import argparse
import functools
import importlib.metadata
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    # one BLAS thread, set before numpy loads, as the repository benchmark does
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
from tracing import Target, Tracer, self_times  # noqa: E402

from eiprecode import linksim, precoding  # noqa: E402

# stage -> the span name the tracer gives the function the trial looks up
STAGES = {
    "draw": "linksim.draw_observation",
    "estimate": "eta.estimate_eta",
    "clean": "rie.clean_channel",
    "precode": "precoding.precode",
    "transmit": "precoding.transmit",
    "demodulate": "linksim.demodulate",
}
# stage -> the module the trial looks its function up on, and the name there
LOOKUPS = {
    "draw": (linksim, "draw_observation"),
    "estimate": (linksim, "estimate_eta"),
    "clean": (linksim, "clean_channel"),
    "precode": (precoding, "precode"),
    "transmit": (precoding, "transmit"),
    "demodulate": (linksim, "demodulate"),
}
TRIAL = "linksim.downlink_trial"
SETUP = {
    "precoder": "WFQ",
    "csi": "ei_cleaned",
    "modulation": "QPSK",
    "bits": 4,
    "eta": (0.3,),
    "snr_db": (0.0, 4.0, 8.0),
    "seed": 7,
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--sizes", default="20x128,30x256,128x256", help="UxA,UxA,...")
    p.add_argument("--repeats", type=int, default=30, help="timed trials per size")
    p.add_argument("--out", type=Path, default=ROOT, help="directory for the JSON")
    args = p.parse_args(argv)
    try:
        args.sizes = [tuple(int(n) for n in s.split("x")) for s in args.sizes.split(",")]
    except ValueError:
        p.error(f"--sizes must look like 20x128,30x256, got {args.sizes!r}")
    if args.repeats < 1 or any(len(s) != 2 for s in args.sizes):
        p.error("--repeats must be >= 1 and every size must be UxA")
    return args


def _minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _counting(fn, faults):
    """``fn``, appending each call's minor page faults to ``faults``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        f0 = _minflt()
        try:
            return fn(*args, **kwargs)
        finally:
            faults.append(_minflt() - f0)

    return wrapper


def trace_trials(cfg, repeats):
    """The spans of trials 0 .. repeats-1, one ``downlink_trial`` call each,
    and the minor page faults of every stage call and of each trial
    (``"trial"``)."""
    faults = {stage: [] for stage in [*STAGES, "trial"]}
    originals = {stage: getattr(owner, attr) for stage, (owner, attr) in LOOKUPS.items()}
    tracer = Tracer()
    try:
        # each counter sits inside its tracer wrapper, so a span holds its count
        for stage, (owner, attr) in LOOKUPS.items():
            setattr(owner, attr, _counting(originals[stage], faults[stage]))
        tracer.install(
            [Target(linksim, "downlink_trial", trial="scope")]
            + [Target(owner, attr) for owner, attr in LOOKUPS.values()]
        )
        for r in range(repeats):
            f0 = _minflt()
            linksim.downlink_trial(cfg, r)
            faults["trial"].append(_minflt() - f0)
    finally:
        tracer.uninstall()
        for stage, (owner, attr) in LOOKUPS.items():
            setattr(owner, attr, originals[stage])
    return tracer.spans, faults


def _summary(ms, repeats, faults):
    """``faults`` is the summed minor page faults of the ``ms`` calls."""
    q25, q50, q75 = np.percentile(ms, [25, 50, 75])
    return {
        "median_ms": round(float(q50), 4),
        "iqr_ms": round(float(q75 - q25), 4),
        "samples": len(ms),
        "calls_per_trial": round(len(ms) / repeats, 3),
        "minor_faults_per_call": round(faults / len(ms), 2),
    }


def measure_size(users, antennas, repeats):
    cfg = linksim.SimConfig(users=users, antennas=antennas, threads=1, **SETUP)
    linksim.downlink_trial(cfg, 0)
    spans, faults = trace_trials(cfg, repeats)
    ms = {}
    for s in spans:
        ms.setdefault(s.name, []).append(1e3 * (s.end - s.start))
    missing = [stage for stage, name in STAGES.items() if name not in ms]
    if missing:
        raise RuntimeError(f"downlink_trial never called the stages {missing}")
    selfs = self_times(spans)
    other = [1e3 * selfs[s.sid] for s in spans if s.name == TRIAL]
    total = {stage: sum(f) for stage, f in faults.items()}
    stages = {stage: _summary(ms[name], repeats, total[stage]) for stage, name in STAGES.items()}
    stages["other"] = _summary(other, repeats, total["trial"] - sum(total[s] for s in STAGES))
    trial = _summary(ms[TRIAL], repeats, total["trial"])
    trial["minor_faults_per_trial"] = trial.pop("minor_faults_per_call")
    return {"repeats": repeats, "stages": stages, "trial": trial}


def _git(*args):
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def _version(package):
    """The installed version of ``package``, or None when it is not installed."""
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment():
    commit = _git("rev-parse", "--short", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "commit": commit,
        "dirty": bool(status),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    env = environment()
    doc = {
        "setup": {**SETUP, "units": "ms per call; calls_per_trial calls make one trial"},
        "environment": env,
        "sizes": {f"{u}x{a}": measure_size(u, a, args.repeats) for u, a in args.sizes},
    }
    name = f"BENCH_{env['commit'] or 'nogit'}{'-dirty' if env['dirty'] else ''}.json"
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / name
    path.write_text(json.dumps(doc, indent=2) + "\n")
    for size, res in doc["sizes"].items():
        row = ", ".join(f"{k} {v['median_ms']:.3f}" for k, v in res["stages"].items())
        print(f"{size}: trial {res['trial']['median_ms']:.3f} ms; {row}", file=sys.stderr)
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
