"""Command-line front end.

Each subcommand runs one experiment family; ``_SUBCOMMANDS`` maps the one
to the other.  A named flag such as ``--seed 5`` is the ``--set seed=5``
item, placed after every ``--set`` item so that it wins.

Exit codes: 0 success, 1 numerical failure, 2 configuration error.
Environment: EIPRECODE_SEED and EIPRECODE_THREADS mirror --seed/--threads
at a precedence below explicit flags and --set pairs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict

import numpy as np

from .config import ConfigError, parse_config
from .experiments import ExperimentError, experiment_options, run_experiment
from .linksim import MonteCarloError
from .rmt import RootSelectionError

__all__ = ["main", "build_parser"]

# subcommand -> (experiment kind, help)
_SUBCOMMANDS = {
    "spectra": (
        "spectrum_check",
        "empirical vs analytic spectral density of the augmented channel",
    ),
    "estimate-eta": ("eta_cdf", "CDF of the blind CSI-noise-level estimation error"),
    "clean-csi": (
        "mse_vs_antennas",
        "reconstruction MSE of the cleaned channel across antenna counts",
    ),
    "ber": ("ber_vs_snr", "bit error rate versus SNR for one precoder/CSI configuration"),
    "sweep": ("ber_vs_eta", "bit error rate versus CSI noise level at fixed SNR"),
}

# named flags; each one the user sets becomes a --set item after the others
_FLAGS = ("seed", "threads", "trials", "precoder", "csi", "bits", "bins")

_NUMERICAL_ERRORS = (
    MonteCarloError,
    RootSelectionError,
    np.linalg.LinAlgError,
    FloatingPointError,
    ZeroDivisionError,
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser: parsing never changes it, so every
    :func:`main` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="eiprecode",
        description="Eigen-inference CSI cleaning and quantized precoding experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _SUBCOMMANDS.items():
        s = sub.add_parser(name, help=help_text)
        s.add_argument("--config", metavar="FILE", help="YAML config file")
        s.add_argument(
            "--set",
            dest="sets",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config field (repeatable)",
        )
        s.add_argument("--out", default="eiprecode-out", metavar="DIR")
        s.add_argument("--seed", type=int)
        s.add_argument("--threads", type=int)
        s.add_argument("--dry-run", action="store_true")
        s.add_argument("--trials", type=int)
        if name in ("ber", "sweep"):
            s.add_argument("--precoder")
            s.add_argument("--csi")
            s.add_argument("--bits", help="DAC resolution in bits, or 'bypass'")
        if name == "spectra":
            s.add_argument("--bins", type=int)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    kind = _SUBCOMMANDS[args.command][0]
    flags = [f"{k}={getattr(args, k)}" for k in _FLAGS if getattr(args, k, None) is not None]
    try:
        cfg, extras = parse_config(path=args.config, overrides=args.sets + flags)
        experiment_options(kind, cfg, **extras)
    except (ConfigError, ExperimentError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.dry_run:
        plan = {
            "experiment": kind,
            "out": str(args.out),
            "config": asdict(cfg),
            **extras,
        }
        print(json.dumps(plan, sort_keys=True, indent=2))
        return 0

    try:
        result = run_experiment(kind, cfg, **extras)
        csv_path, json_path = result.write(args.out)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    print("headline: " + json.dumps(result.summary["headline"], sort_keys=True, default=str))
    _warn_unidentifiable(result.summary.get("diagnostics", ()))
    return 0


def _warn_unidentifiable(diagnostics) -> None:
    """One stderr line per BER or cleaning point whose blind eta-hat was
    unidentifiable in some trials (damped corruption with c = 1)."""
    for point in diagnostics:
        frac = point["identifiable_fraction"]
        if frac is not None and frac < 1.0:
            keys = list(point)  # the keys ahead of eta_hat_mean name the point
            where = ", ".join(f"{k}={point[k]:g}" for k in keys[: keys.index("eta_hat_mean")])
            print(
                f"warning: eta not identifiable in {100.0 * (1.0 - frac):.3g}% "
                f"of trials at {where}",
                file=sys.stderr,
            )


if __name__ == "__main__":
    sys.exit(main())
