"""Workloads, output checks and metrics of the repository benchmark.

Each workload is one ``eiprecode`` CLI command at a fixed size and a fixed
trial budget, run in-process through :func:`eiprecode.cli.main`.  A run
repeats the command on the same seed until its time is up; every repetition
writes its CSV, which is parsed and checked, and must be byte-identical to
the first.  See ``README.md`` next to this file for the reasons behind each
workload and the meaning of each metric.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import glob
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import eiprecode
from eiprecode import cli, eta, experiments, linksim, precoding, rie
from tracing import Target, Tracer, summarize

SETUP_PROBES = 7
# The error-budget stop must never bind, so that every commit does the same work.
NEVER = 10**15


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # eiprecode CLI subcommand
    sets: dict  # config fields passed as --set key=value
    axes: tuple  # config fields whose values are the experiment's points

    @property
    def trials(self) -> int:
        return self.sets["trials"]

    @property
    def threads(self) -> int:
        return self.sets["threads"]

    @property
    def points(self) -> int:
        return math.prod(len(self.sets[a]) for a in self.axes)

    def argv(self, seed: int, out: Path, **overrides) -> list:
        sets = {**self.sets, **overrides}
        args = [self.command, "--seed", str(seed), "--out", str(out)]
        for key, value in sets.items():
            args += ["--set", f"{key}={json.dumps(value)}"]
        return args

    @property
    def kind(self) -> str:
        """The experiment family the command runs; it names the CSV."""
        return {"ber": "ber_vs_snr", "clean-csi": "mse_vs_antennas"}[self.command]

    def warmup_overrides(self) -> dict:
        """One trial at the first point: imports, caches and lazy set-up."""
        return {"trials": 1, **{a: self.sets[a][:1] for a in self.axes}}


_LINK = {"min_errors": NEVER, "max_bits": NEVER, "corruption_mode": "additive"}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "link_wfq_cleaned",
            "ber",
            {
                **_LINK,
                "users": 20,
                "antennas": 128,
                "eta": [0.3],
                "precoder": "WFQ",
                "csi": "ei_cleaned",
                "bits": 4,
                "modulation": "QPSK",
                "snr_db": [0.0, 4.0, 8.0],
                "trials": 16,
                "threads": 1,
            },
            ("snr_db",),
        ),
        Workload(
            "clean_sweep",
            "clean-csi",
            {
                "users": 20,
                "antennas": 256,
                "antennas_grid": [32, 64, 128, 256],
                "eta": [0.1, 0.5, 0.9],
                "corruption_mode": "additive",
                "csi": "ei_cleaned",
                "trials": 4,
                "threads": 1,
            },
            ("eta", "antennas_grid"),
        ),
        Workload(
            "link_16qam_raw_mt",
            "ber",
            {
                **_LINK,
                "users": 30,
                "antennas": 256,
                "eta": [0.1],
                "precoder": "WFQ",
                "csi": "noisy_raw",
                "bits": 3,
                "modulation": "16QAM",
                "snr_db": [5.0, 10.0, 15.0],
                "trials": 16,
                "threads": 2,
            },
            ("snr_db",),
        ),
    )
}


# ---------------------------------------------------------------------------
# Output checks


class CheckError(ValueError):
    pass


def _rows(csv_text: str) -> list:
    lines = [ln for ln in csv_text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def check_rows(w: Workload, seed: int, csv_text: str) -> tuple:
    """Check each output row; return (rows, number of rows that fail).

    A wrong row count fails every point.
    """
    rows = _rows(csv_text)
    if len(rows) != w.points:
        return rows, w.points
    failed = 0
    for row in rows:
        try:
            _check_row(w, seed, row)
        except (ValueError, KeyError) as exc:  # CheckError, or a malformed field
            print(f"check failed on {w.name}: {exc}: {row}", file=sys.stderr)
            failed += 1
    return rows, failed


def _check_row(w: Workload, seed: int, row: dict) -> None:
    if int(row["trials"]) != w.trials or int(row["seed"]) != seed:
        raise CheckError("trials or seed differ from the budget")
    if w.command == "ber":
        lo, ber, hi = float(row["ber_lo"]), float(row["ber"]), float(row["ber_hi"])
        if not 0.0 <= lo <= ber <= hi <= 1.0:
            raise CheckError("BER interval out of order")
        return
    mses = [float(row[k]) for k in ("mse_cleaned", "mse_noisy", "mse_scalar_mmse")]
    if not all(math.isfinite(x) and x > 0 for x in mses):
        raise CheckError("non-finite or non-positive MSE")
    # The scalar conditional mean reaches eta/A exactly in expectation; this
    # checks channel generation, corruption and mse independently of rie.
    ratio = mses[2] / float(row["mmse_floor"])
    if not 0.9 <= ratio <= 1.1:
        raise CheckError(f"scalar MMSE is {ratio:.3f}x the eta/A floor")


def quality_err(w: Workload, rows: list) -> float:
    """Mean BER over the SNR points, or mean cleaned MSE over the eta/A floor."""
    if w.command == "ber":
        return statistics.fmean(float(r["ber"]) for r in rows)
    return statistics.fmean(float(r["mse_cleaned"]) / float(r["mmse_floor"]) for r in rows)


def _strip_config_echo(csv_text: str) -> str:
    # the echoed config names the thread count, the only field allowed to differ
    return "\n".join(ln for ln in csv_text.splitlines() if not ln.startswith("# config:"))


# ---------------------------------------------------------------------------
# Running


class Runner:
    """Runs one workload's command and tallies points attempted and failed."""

    def __init__(self, w: Workload, seed: int, workdir: Path):
        self.w = w
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0

    def run(self, checked: bool = True, **overrides) -> tuple:
        """Run the command once; return (csv text or None, rows, seconds).

        An unchecked run (the warm-up) counts toward nothing.
        """
        w = self.w
        out = self.workdir / "out"
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                rc = cli.main(w.argv(self.seed, out, **overrides))
        except Exception:  # a crash of the program under test is a failed run
            traceback.print_exc()
            rc = None
        elapsed = time.perf_counter() - t0
        if not checked:
            return None, [], elapsed
        self.attempted += w.points
        if rc != 0:
            print(f"{w.name}: eiprecode exited with {rc}", file=sys.stderr)
            self.failed += w.points
            return None, [], elapsed
        csv_text = (out / f"{w.kind}.csv").read_text()
        rows, failed = check_rows(w, self.seed, csv_text)
        self.failed += failed
        return csv_text, rows, elapsed


def trace_targets() -> list:
    """Every attribute a caller looks up on the path under test."""
    pipeline = ("estimate_eta", "clean_channel", "gen_channel", "corrupt")
    observe = {
        "corrupt": lambda a, k, r: a[1].eta,
        "estimate_eta": lambda a, k, r: (r.eta_hat, r.identifiable),
    }
    trial = {"gen_channel": "new", "downlink_trial": "scope"}
    targets = [
        Target(cli, "run_experiment", observe=lambda a, k, r: len(r.rows)),
        Target(experiments.ExperimentResult, "write"),
        Target(experiments, "monte_carlo"),
    ]
    for name in pipeline:
        targets.append(Target(experiments, name, trial.get(name), observe.get(name)))
    for name in pipeline + ("downlink_trial", "modulate", "demodulate"):
        targets.append(Target(linksim, name, trial.get(name), observe.get(name)))
    targets += [
        Target(rie, name)
        for name in ("eig_bsca", "build_bsca", "reconstruct", "local_stieltjes")
    ]
    targets.append(Target(rie, "shrink_eigenvalue", observe=lambda a, k, r: r == 0.0))
    targets.append(Target(eta, "noisy_gram_cumulants_theory"))
    targets.append(
        Target(
            precoding,
            "wfq_precode",
            observe=lambda a, k, r: (len(r[0].residuals), r[0].converged),
        )
    )
    targets += [
        Target(precoding, name)
        for name in ("wf_precode", "bussgang_gain", "quantized_power", "quantize", "transmit")
    ]
    return targets


def _blas() -> dict:
    info = {"version": None, "threads": None}
    try:
        info["version"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "libscipy_openblas*"))
    if libs:
        lib = ctypes.CDLL(libs[0])
        fn = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            info["threads"] = fn()
    return info


def environment(root: Path, w: Workload, seed: int) -> dict:
    commit = None
    if (root / ".git").exists():
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
        commit = res.stdout.strip() or None
    blas = _blas()
    return {
        "commit": commit,
        "workload": w.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "eiprecode": eiprecode.__version__,
        "openblas": blas["version"],
        "blas_threads": blas["threads"],
        "pool_threads": w.threads,
    }


def setup_seconds(root: Path, w: Workload, seed: int) -> list:
    """Wall times of fresh processes that each import and run one trial."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--setup-probe",
           "--workload", w.name, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=root, check=True, timeout=150, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def setup_probe(root: Path, w: Workload, seed: int) -> None:
    out = root / ".bench_out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as work:
        Runner(w, seed, Path(work)).run(checked=False, **w.warmup_overrides())


def measure(root: Path, w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result document.

    Untraced, it reports the end-to-end metrics.  Traced, it alternates
    untraced and traced repetitions and reports the per-layer metrics, plus
    the tracing overhead as the ratio of the two throughputs.
    """
    out = root / ".bench_out"
    out.mkdir(exist_ok=True)
    env = environment(root, w, seed)
    setup_times = [] if trace else setup_seconds(root, w, seed)
    tracer = Tracer() if trace else None
    rates, traced_rates = [], []  # of the repetitions that passed their checks
    with tempfile.TemporaryDirectory(dir=out) as work:
        runner = Runner(w, seed, Path(work))
        runner.run(checked=False, **w.warmup_overrides())
        reference, reference_rows = None, []
        repeatable = True
        runs = traced_runs = 0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or (trace and not traced_runs):
            traced = trace and runs % 2 == 1
            if traced:
                tracer.install(trace_targets())
            try:
                csv_text, rows, elapsed = runner.run()
            finally:
                if traced:
                    tracer.uninstall()
            runs += 1
            traced_runs += traced
            if csv_text is not None:
                (traced_rates if traced else rates).append(w.points * w.trials / elapsed)
            if reference is None:
                reference, reference_rows = csv_text, rows
            repeatable = repeatable and csv_text is not None and csv_text == reference
        thread_invariant = True
        if w.threads > 1:
            serial_csv, _, _ = runner.run(threads=1)
            thread_invariant = (
                reference is not None
                and serial_csv is not None
                and _strip_config_echo(serial_csv) == _strip_config_echo(reference)
            )

    checks = {"repeatable": repeatable, "thread_invariant": thread_invariant}
    doc = {
        "workload": w.name,
        "trace": trace,
        "environment": env,
        "checks": checks,
        "setup_times": setup_times,
        "rates": rates,
        "traced_rates": traced_rates,
        "correct": runner.failed == 0 and all(checks.values()),
        "attempted": runner.attempted,
        "failed": runner.failed,
    }
    if trace:
        metrics = summarize(tracer.spans)
        metrics["trace.overhead_ratio"] = (
            lower_quintile(rates) / lower_quintile(traced_rates) if traced_rates else 0.0
        )
        tracer.write_jsonl(out / f"spans-{w.name}-seed{seed}.jsonl")
        doc["metrics"] = metrics
    else:
        quality = quality_err(w, reference_rows) if reference_rows else 0.0
        doc["metrics"] = {
            "trials_per_s": lower_quintile(rates),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "quality_err": quality,
        }
        doc["failed_frac"] = runner.failed / runner.attempted
        doc["quality"] = {("ber_mean" if w.command == "ber" else "mse_over_floor"): quality}
    return doc


def lower_quintile(rates) -> float:
    """First quintile of the per-repetition throughputs (0.0 when empty).

    On a shared host a run has bursts of faster repetitions that do not
    recur from run to run, while its slower repetitions hold steady; the
    first quintile follows the steady part.
    """
    if len(rates) < 2:
        return rates[0] if rates else 0.0
    return statistics.quantiles(rates, n=5)[0]


UNITS = {"trials_per_s": "trials/s", "setup_s": "s", "peak_rss_mb": "MB", "quality_err": "ratio"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    tokens = name.replace(".", "_").split("_")
    if "pct" in tokens:
        return "pct"
    if "ms" in tokens:
        return "ms"
    if tokens[-1] in ("frac", "ratio", "parallelism", "mean"):
        return "ratio"
    return "count"


def main(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> int:
    w = WORKLOADS[workload]
    doc = measure(root, w, seed, seconds, trace)
    metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in doc["metrics"].items()}
    doc["metrics"] = metrics
    name = f"result-{w.name}-seed{seed}-trace{int(trace)}.json"
    (root / ".bench_out" / name).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print("environment: " + json.dumps(doc["environment"], sort_keys=True))
    print("checks: " + json.dumps(doc["checks"], sort_keys=True))
    for key in ("failed_frac", "quality"):
        if key in doc:
            print(f"{key}: {json.dumps(doc[key])}")
    for k, m in metrics.items():
        print(f"{w.name} {k} = {m['value']:.6g} {m['unit']}")
    result = {k: doc[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0
