"""Benchmark entry point; run from the root of a source checkout.

    python3 perfbench/run.py --workload link_wfq_cleaned --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Outputs,
results and spans go to ``.bench_out/`` in the checkout.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("link_wfq_cleaned", "clean_sweep", "link_16qam_raw_mt")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "eiprecode" / "__init__.py").is_file():
        print(f"no eiprecode sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One BLAS thread, so pool threads x BLAS threads stays within nproc on
    # every workload; set before numpy loads.  The benchmark passes seed and
    # threads explicitly, so the CLI's environment fallbacks must not leak in.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    for var in ("EIPRECODE_SEED", "EIPRECODE_THREADS"):
        os.environ.pop(var, None)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import bench

    w = bench.WORKLOADS[args.workload]
    if args.setup_probe:
        bench.setup_probe(ROOT, w, args.seed)
        return 0
    return bench.main(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
