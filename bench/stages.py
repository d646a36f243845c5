"""Per-stage and end-to-end timing of one link trial at the paper's sizes.

    python3 bench/stages.py                           # 20x128, 30x256, 128x256
    python3 bench/stages.py --sizes 4x16 --repeats 3 --out /tmp/bench
    python3 bench/stages.py --against HEAD~1          # before/after pairs

Run it from a source checkout; it imports ``eiprecode`` from ``src/`` and
the span tracer from ``perfbench/tracing.py``.  The setup is WFQ precoding
on blind ``ei_cleaned`` CSI, QPSK, 4 bits, eta 0.3, SNR 0/4/8 dB and seed 7,
with one BLAS thread.  Trials 0 .. repeats-1 each run as one
``downlink_trial`` call over all SNR points, with the tracer wrapped round
the stage functions the trial looks up: ``draw_observation`` (the channel
and the trial's one observation, at the setup's one eta), ``estimate_eta``
and ``clean_channel`` once per trial, ``precode`` and ``demodulate`` once
per SNR point, and ``transmit`` once per trial, sending every point in
one stacked pass.  So the stage times come from the trial's own code path,
and ``other`` is the rest of the trial (the one Gram decomposition in
``estimate_csi``, symbols, the MSEs, the one batched ``H @ x`` and the
noise).  Trial 0 runs once more first, untraced, to fill caches.  Each
size runs in a fresh subprocess, so that its minor page faults do not
depend on what the process measured before (the C allocator's heap state
carries over from one size to the next).

It writes ``BENCH_<short-commit>.json`` (``-dirty`` appended when the
checkout has uncommitted changes) with, per size, the median and
interquartile range of every stage in ms per call, its calls per trial and
its mean minor page faults per call, the same for the whole trial with its
minor page faults per trial, and the environment.  Faults are
``resource.getrusage`` deltas round each call; ``other`` has a trial's
faults less those of its stage calls.

``--against REF`` compares this checkout with the commit REF, checked out
with ``git worktree`` under a temporary directory that is removed
afterwards.  Each of ``ROUNDS`` rounds runs every size once in each tree, in a fresh
subprocess per run and in alternating order, so that both sides of a pair
see the same host state.  The JSON (``BENCH_<commit>-vs-<ref>.json``)
holds, per size and side (``tree`` and ``ref``), the median over rounds of
each stage's median ms and of its minor faults per call (per trial for
``trial``), and under ``wins`` the rounds in which this checkout was faster
than REF, stage by stage.
"""

import argparse
import contextlib
import functools
import importlib.metadata
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the checkout whose package is measured: this one, or the ``--tree`` that
# a run hands each of its per-size subprocesses
TREE = ROOT
if __name__ == "__main__":
    # one BLAS thread, set before numpy loads, as the repository benchmark does
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if "--tree" in sys.argv[:-1]:
        TREE = Path(sys.argv[sys.argv.index("--tree") + 1]).resolve()
sys.path[:0] = [str(TREE / "src"), str(ROOT / "perfbench")]

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
# alternated pairs of subprocess runs per size in an ``--against`` comparison
ROUNDS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--sizes", default="20x128,30x256,128x256", help="UxA,UxA,...")
    p.add_argument("--repeats", type=int, default=30, help="timed trials per size")
    p.add_argument("--out", type=Path, default=ROOT, help="directory for the JSON")
    p.add_argument("--against", metavar="REF", help="git commit to compare this checkout with")
    p.add_argument("--tree", type=Path, help=argparse.SUPPRESS)
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


def _git(*args, cwd=None):
    try:
        done = subprocess.run(
            ["git", *args], cwd=cwd or TREE, capture_output=True, text=True, check=True
        )
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


def _size_name(size):
    return "x".join(map(str, size))


def _run_tree(tree, size, repeats, out):
    """One subprocess measuring ``size`` on the package of ``tree``; its
    result for that size."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--tree", str(tree),
         "--sizes", _size_name(size), "--repeats", str(repeats), "--out", str(out)],
        capture_output=True, text=True,
    )
    if done.returncode:
        raise SystemExit(f"the {_size_name(size)} run on {tree} failed:\n{done.stderr}")
    path = Path(done.stdout.strip().splitlines()[-1])
    doc = json.loads(path.read_text())
    path.unlink()
    return doc["sizes"][_size_name(size)]


def _parts(run):
    """A run's stages and its whole trial, each with its ``faults`` count."""
    parts = {k: {**v, "faults": v["minor_faults_per_call"]} for k, v in run["stages"].items()}
    parts["trial"] = {**run["trial"], "faults": run["trial"]["minor_faults_per_trial"]}
    return parts


def _medians(runs):
    """Per stage (and ``trial``), the median over runs of the run medians
    and of the minor faults per call (per trial for ``trial``)."""
    parts = [_parts(r) for r in runs]
    return {
        name: {
            key: round(float(np.median([p[name][key] for p in parts])), 4)
            for key in ("median_ms", "faults")
        }
        for name in parts[0]
    }


@contextlib.contextmanager
def ref_worktree(ref):
    """The commit ``ref`` of this checkout, checked out with ``git worktree``
    under a temporary directory; yields its short hash, the checkout and the
    directory, and removes both on exit."""
    commit = _git("rev-parse", "--short", ref, cwd=ROOT)
    if commit is None:
        raise SystemExit(f"--against: {ref!r} is not a commit of this checkout")
    with tempfile.TemporaryDirectory(prefix="eiprecode-bench-") as tmp:
        worktree = Path(tmp) / "ref"
        if _git("worktree", "add", "--detach", str(worktree), commit, cwd=ROOT) is None:
            raise SystemExit(f"--against: git worktree add failed for {ref!r}")
        try:
            yield commit, worktree, tmp
        finally:
            _git("worktree", "remove", "--force", str(worktree), cwd=ROOT)


def json_name(env, suffix=""):
    """``BENCH_<short-commit>[-dirty]<suffix>.json`` for the environment ``env``."""
    return f"BENCH_{env['commit'] or 'nogit'}{'-dirty' if env['dirty'] else ''}{suffix}.json"


def compare(ref, sizes, repeats):
    """This checkout against commit ``ref``: per size, both sides' medians
    over ``ROUNDS`` alternated subprocess pairs and this side's wins."""
    runs = {size: {"tree": [], "ref": []} for size in sizes}
    with ref_worktree(ref) as (commit, worktree, tmp):
        for r in range(ROUNDS):
            for size in sizes:
                sides = [("tree", ROOT), ("ref", worktree)]
                for side, tree in sides if r % 2 == 0 else sides[::-1]:
                    runs[size][side].append(_run_tree(tree, size, repeats, tmp))
    result = {}
    for size, sides in runs.items():
        row = {"repeats": repeats, "rounds": ROUNDS}
        row.update({side: _medians(r) for side, r in sides.items()})
        pairs = [(_parts(a), _parts(b)) for a, b in zip(sides["tree"], sides["ref"])]
        row["wins"] = {
            name: sum(a[name]["median_ms"] < b[name]["median_ms"] for a, b in pairs)
            for name in row["tree"]
        }
        result[_size_name(size)] = row
    return {"ref": ref, "commit": commit, "rounds": ROUNDS}, result


def main(argv=None) -> int:
    args = parse_args(argv)
    env = environment()
    setup = {**SETUP, "units": "ms per call; calls_per_trial calls make one trial"}
    if args.against is not None:
        against, sizes = compare(args.against, args.sizes, args.repeats)
        doc = {"setup": setup, "environment": env, "against": against, "sizes": sizes}
        suffix = f"-vs-{against['commit']}"
    else:
        if args.tree is None:
            with tempfile.TemporaryDirectory(prefix="eiprecode-bench-") as tmp:
                sizes = {_size_name(s): _run_tree(ROOT, s, args.repeats, tmp) for s in args.sizes}
        else:  # the subprocess of one size
            sizes = {_size_name(s): measure_size(*s, args.repeats) for s in args.sizes}
        doc = {"setup": setup, "environment": env, "sizes": sizes}
        suffix = ""
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / json_name(env, suffix)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    for size, res in doc["sizes"].items():
        if args.against is None:
            row = ", ".join(f"{k} {v['median_ms']:.3f}" for k, v in res["stages"].items())
            print(f"{size}: trial {res['trial']['median_ms']:.3f} ms; {row}", file=sys.stderr)
        else:
            tree, ref = res["tree"]["trial"], res["ref"]["trial"]
            print(
                f"{size}: trial {tree['median_ms']:.3f} ms against {ref['median_ms']:.3f} ms, "
                f"faster in {res['wins']['trial']} of {res['rounds']} rounds; minor faults "
                f"per trial {tree['faults']} against {ref['faults']}",
                file=sys.stderr,
            )
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
