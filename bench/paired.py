"""Paired, interleaved A/B timing of one benchmark workload against a commit.

    python3 bench/paired.py --workload clean_sweep --against HEAD~1
    python3 bench/paired.py --workload link_wfq_cleaned --against HEAD~1 --pairs 150 --out /tmp/bench

Run it from a source checkout.  It checks out the commit REF with
``git worktree`` under a temporary directory that is removed afterwards,
and starts one long-lived worker process per tree, each with one BLAS
thread.  A worker imports ``eiprecode`` from its own tree and the
workloads of ``perfbench/bench.py`` from this checkout, runs the
workload's one-trial warm-up, and then runs the workload's whole command
in process (``WORKLOADS[W].argv``, checked as the benchmark checks it) once
per request.  Single commands alternate between the two workers, and the
side that goes first flips every pair, so both commands of a pair see the
same host state.  On a shared host the throughput of separate runs drifts
by more than a small change is worth; an A/A run (``--against HEAD`` on a
clean checkout) shows how far the paired ratio still spreads.

It writes ``BENCH_<commit>-vs-<ref>-<W>.json`` (``<commit>`` gets
``-dirty`` when this checkout has uncommitted changes) with each side's
(``tree``, ``ref``) trials/s per command, their median and first quintile
(the benchmark's ``trials_per_s`` statistic), the median, quartiles and
wins of the per-pair ratio tree/ref, and the verdict of the gain rule
(:func:`verdict`), which it also prints.
"""

import argparse
import contextlib
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, help="a workload of perfbench/bench.py")
    p.add_argument("--against", metavar="REF", help="git commit to compare this checkout with")
    p.add_argument("--pairs", type=int, default=200, help="alternated pairs of commands")
    p.add_argument("--seed", type=int, default=1, help="the workload seed")
    p.add_argument("--out", type=Path, default=ROOT, help="directory for the JSON")
    p.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker is None and args.against is None:
        p.error("--against is required")
    if args.pairs < 2 or args.seed < 0:
        p.error("--pairs must be >= 2 and --seed >= 0")
    return args


def serve(tree, workload, seed):
    """Worker: warm up, then answer each line on stdin with one run of the
    workload's command, as its trials/s (null when the run failed)."""
    sys.path[:0] = [str(tree / "src"), str(ROOT / "perfbench")]
    import bench

    w = bench.WORKLOADS[workload]
    with tempfile.TemporaryDirectory(prefix="eiprecode-paired-") as work:
        runner = bench.Runner(w, seed, Path(work))
        runner.run(checked=False, **w.warmup_overrides())
        print("ready", flush=True)
        for _ in sys.stdin:
            csv_text, _, elapsed = runner.run()
            rate = w.points * w.trials / elapsed if csv_text is not None else None
            print(json.dumps(rate), flush=True)
    return 0


def _start(tree, args):
    """A worker on the package of ``tree``, once it has warmed up."""
    # the command line passes seed and threads, as in the benchmark
    env = {k: v for k, v in os.environ.items() if k not in ("EIPRECODE_SEED", "EIPRECODE_THREADS")}
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--worker", str(tree),
         "--workload", args.workload, "--seed", str(args.seed)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=tree,
    )
    if proc.stdout.readline().strip() != "ready":
        proc.kill()
        proc.wait()
        raise SystemExit(f"the worker on {tree} did not start")
    return proc


def _request(proc, side):
    """One run of the command on the worker ``proc``; its trials/s."""
    proc.stdin.write("run\n")
    proc.stdin.flush()
    line = proc.stdout.readline()
    rate = json.loads(line) if line else None
    if rate is None:
        raise SystemExit(f"the {side} command failed or its worker exited")
    return rate


def pair_runs(trees, args):
    """Trials/s per side of ``trees`` ({side: checkout}) over ``args.pairs``
    alternated pairs of single commands, one long-lived worker per side."""
    workers = {}
    try:
        for side, tree in trees.items():
            workers[side] = _start(tree, args)
        rates = {side: [] for side in trees}
        order = list(trees)
        for i in range(args.pairs):
            for side in order if i % 2 == 0 else order[::-1]:
                rates[side].append(_request(workers[side], side))
    finally:
        for proc in workers.values():
            with contextlib.suppress(BrokenPipeError):
                proc.stdin.close()  # end of input stops the worker
        for proc in workers.values():
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    return rates


def verdict(rates):
    """The gain rule on ``rates`` ({"tree": [...], "ref": [...]}, paired by
    index): this checkout wins at least nine tenths of the pairs, a tie
    counting for neither side, and its median beats the ref's by more than
    the distance between the quartiles of the ref's own runs."""
    tree, ref = rates["tree"], rates["ref"]
    pairs = len(tree)
    q25, _, q75 = statistics.quantiles(ref, n=4, method="inclusive")
    doc = {
        "wins": sum(t > r for t, r in zip(tree, ref)),
        "wins_needed": math.ceil(0.9 * pairs),
        "pairs": pairs,
        "median_gap": statistics.median(tree) - statistics.median(ref),
        "ref_iqr": q75 - q25,
    }
    doc["gain"] = doc["wins"] >= doc["wins_needed"] and doc["median_gap"] > doc["ref_iqr"]
    return doc


def summarize(rates, lower_quintile):
    """Each side's rates, median and first quintile, and the paired ratio."""
    doc = {
        side: {
            "trials_per_s": [round(r, 3) for r in rs],
            "median": statistics.median(rs),
            "lower_quintile": lower_quintile(rs),
        }
        for side, rs in rates.items()
    }
    ratios = [t / r for t, r in zip(rates["tree"], rates["ref"])]
    q25, median, q75 = statistics.quantiles(ratios, n=4, method="inclusive")
    doc["ratio"] = {
        "median": median,
        "q25": q25,
        "q75": q75,
        "wins": sum(x > 1.0 for x in ratios),
        "pairs": len(ratios),
    }
    doc["verdict"] = verdict(rates)
    return doc


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.worker is not None:
        return serve(args.worker.resolve(), args.workload, args.seed)
    # this checkout's helpers; the measured packages load in the workers
    sys.path.insert(0, str(ROOT / "bench"))
    import stages  # puts perfbench/ on the path

    import bench

    if args.workload not in bench.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {', '.join(bench.WORKLOADS)}")
    env = stages.environment()
    with stages.ref_worktree(args.against) as (commit, worktree, _):
        rates = pair_runs({"tree": ROOT, "ref": worktree}, args)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": env,
        "against": {"ref": args.against, "commit": commit},
        **summarize(rates, bench.lower_quintile),
    }
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / stages.json_name(env, f"-vs-{commit}-{args.workload}")
    path.write_text(json.dumps(doc, indent=2) + "\n")
    ratio, rule = doc["ratio"], doc["verdict"]
    print(
        f"{args.workload}: tree/ref trials/s x{ratio['median']:.3f} "
        f"[{ratio['q25']:.3f}, {ratio['q75']:.3f}], won {ratio['wins']} of {ratio['pairs']} pairs; "
        f"medians {doc['tree']['median']:.1f} against {doc['ref']['median']:.1f}\n"
        f"gain rule: {'gain' if rule['gain'] else 'no gain'} (won {rule['wins']} of "
        f"{rule['pairs']}, needs {rule['wins_needed']}; median gap {rule['median_gap']:.1f} "
        f"against the ref's interquartile range {rule['ref_iqr']:.1f})",
        file=sys.stderr,
    )
    print(path)
    return 0


if __name__ == "__main__":
    # one BLAS thread, set before numpy loads, as the repository benchmark
    # does; the workers inherit it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
