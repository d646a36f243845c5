"""Experiment families over the Monte-Carlo engine.

Each family emits one CSV table (plot-ready, byte-deterministic for a fixed
config and seed) and one JSON summary (config echo, version, headline
numbers, wall time; the BER and cleaning families add per-point CSI
diagnostics).  The wall-time key is the only nondeterministic output field
and lives nowhere else.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

# corrupt, gen_channel and clean_channel are unused here; perfbench's traced
# run looks them up on this module
from .channel import build_bsca, corrupt, gen_channel  # noqa: F401
from .eta import estimate_eta
from .linksim import (
    SNR_DEFINITION,
    SimConfig,
    draw_observation,
    estimate_csi,
    monte_carlo,
    trial_map,
)
from .rie import clean_channel, linear_mmse_baseline, mse  # noqa: F401
from .rmt import bsca_density, bsca_support

__all__ = [
    "ExperimentError",
    "ExperimentResult",
    "run_experiment",
    "experiment_options",
    "threshold_crossing",
    "EXPERIMENT_KINDS",
]

class ExperimentError(ValueError):
    """A config is incomplete or inconsistent for the requested experiment."""


def _version_string() -> str:
    from . import __version__

    return f"eiprecode-{__version__}"


def _fmt(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v)).lower()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".10g")
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_fmt(x) for x in v) + "]"
    return str(v)


def _round(v: float) -> float:
    # keeps JSON floats in the same precision regime as the CSV
    return float(format(float(v), ".10g"))


def _rounded(v):
    """``v`` with every float in it through :func:`_round`; lists, tuples
    and dicts are walked, and anything else is returned as it is."""
    if isinstance(v, (float, np.floating)):
        return _round(v)
    if isinstance(v, (list, tuple)):
        return type(v)(_rounded(x) for x in v)
    if isinstance(v, dict):
        return {k: _rounded(x) for k, x in v.items()}
    return v


@dataclass(frozen=True)
class ExperimentResult:
    kind: str
    header: tuple
    rows: tuple
    summary: dict
    config: SimConfig

    def csv_text(self) -> str:
        echo = "; ".join(
            f"{k}={_fmt(v)}" for k, v in sorted(asdict(self.config).items())
        )
        lines = [
            f"# {_version_string()} {self.kind}",
            f"# {SNR_DEFINITION}",
            f"# config: {echo}",
            ",".join(self.header),
        ]
        lines.extend(",".join(_fmt(v) for v in row) for row in self.rows)
        return "\n".join(lines) + "\n"

    def json_text(self) -> str:
        doc = {
            "experiment": self.kind,
            "version": _version_string(),
            "seed": self.config.seed,
            "snr_definition": SNR_DEFINITION,
            "config": asdict(self.config),
            **self.summary,
        }
        return json.dumps(doc, sort_keys=True, indent=2, default=_fmt) + "\n"

    def write(self, outdir) -> tuple:
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / f"{self.kind}.csv"
        json_path = out / f"{self.kind}.json"
        csv_path.write_text(self.csv_text())
        json_path.write_text(self.json_text())
        return csv_path, json_path


def threshold_crossing(xs, ys, target: float):
    """First x at which the piecewise-log-linear curve (xs, ys) crosses target.

    Scans adjacent pairs in the given order; pairs containing nonpositive or
    nonfinite y are skipped.  Returns None when no pair brackets the target.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be 1-d arrays of equal length")
    lt = np.log(target)
    for i in range(len(xs) - 1):
        y0, y1 = ys[i], ys[i + 1]
        if not (np.isfinite(y0) and np.isfinite(y1)) or y0 <= 0 or y1 <= 0:
            continue
        l0, l1 = np.log(y0), np.log(y1)
        if l0 == l1:
            if l0 == lt:
                return float(xs[i])
            continue
        t = (lt - l0) / (l1 - l0)
        if 0.0 <= t <= 1.0:
            return float(xs[i] + t * (xs[i + 1] - xs[i]))
    return None


def _spectrum_check(cfg: SimConfig, bins: int = 50):
    dims = cfg.dims
    a_edge, b_edge, atom = bsca_support(cfg.dims.q)
    edges = np.linspace(-b_edge, b_edge, bins + 1)
    width = edges[1] - edges[0]
    centers = 0.5 * (edges[:-1] + edges[1:])

    def one(t: int):
        H, _ = draw_observation(cfg, dims, (0.0,), t)
        w = np.linalg.eigvalsh(build_bsca(H))
        zero = np.abs(w) <= 1e-10 * np.abs(w).max()
        counts, _ = np.histogram(w[~zero], bins=edges)
        return counts, int(zero.sum())

    with trial_map(cfg.threads) as map_trials:
        results = map_trials(one, range(cfg.trials))
    counts = np.sum([r[0] for r in results], axis=0)
    zero_counts = [r[1] for r in results]
    n_eigs = dims.users + dims.antennas
    density = counts / (cfg.trials * n_eigs * width)
    analytic = bsca_density(centers, cfg.dims.q)
    l1 = float(np.sum(np.abs(density - analytic)) * width)

    rows = tuple(zip(centers, density, analytic))
    expected_zeros = dims.antennas - dims.users
    summary = {
        "headline": {
            "l1_distance": l1,
            "zero_eigenvalues_per_draw": zero_counts[0] if len(set(zero_counts)) == 1 else zero_counts,
            "expected_zero_eigenvalues": expected_zeros,
            "zeros_ok": all(z == expected_zeros for z in zero_counts),
            "support": [a_edge, b_edge],
            "zero_mass": atom,
            "draws": cfg.trials,
            "bins": bins,
        },
    }
    return ("bin_center", "empirical_density", "analytic_density"), rows, summary


def _eta_cdf(cfg: SimConfig):
    dims = cfg.dims
    rows = []
    headline = {}

    def one(t: int):
        # one draw of the trial serves every level
        _, observations = draw_observation(cfg, dims, cfg.eta, t)
        return [estimate_eta(H_obs, cfg.estimator) for H_obs in observations]

    with trial_map(cfg.threads) as map_trials:
        per_trial = map_trials(one, range(cfg.trials))
    for eta, estimates in zip(cfg.eta, zip(*per_trial)):
        deltas = np.sort(np.array([abs(est.eta_hat - eta) for est in estimates]))
        cdf = np.arange(1, len(deltas) + 1) / len(deltas)
        rows.extend((eta, d, p) for d, p in zip(deltas, cdf))
        headline[f"eta={_fmt(eta)}"] = {
            "p95_delta_eta": np.quantile(deltas, 0.95),
            "prob_delta_below_0.05": np.mean(deltas < 0.05),
            "median_delta_eta": np.median(deltas),
            "mean_eta_hat": np.mean([est.eta_hat for est in estimates]),
            "identifiable_fraction": np.mean([est.identifiable for est in estimates]),
        }
    headline["estimator_order"] = cfg.estimator.order
    headline["theory_mode"] = cfg.theory_mode
    return ("eta", "delta_eta", "cdf"), rows, {"headline": headline}


def _mse_vs_antennas(cfg: SimConfig):
    """Cleaned, raw and scalar-MMSE CSI error at each (eta, antennas) point.

    One draw of each trial and grid size serves every eta level; the rows
    run over eta, then antennas.  Each point's diagnostics hold the mean
    and spread of eta-hat and the identifiable fraction (null for the known
    eta)."""
    rows = []
    headline = {}
    diagnostics = []

    def one(dims, t: int):
        H, observations = draw_observation(cfg, dims, cfg.eta, t)
        per_eta = []
        for eta, H_obs in zip(cfg.eta, observations):
            csi, eta_hat, identifiable = estimate_csi(cfg, eta, H, H_obs)
            mses = (
                mse(H, csi.matrix),
                mse(H, H_obs),
                mse(H, linear_mmse_baseline(H_obs, cfg.corruption(eta))),
            )
            per_eta.append((mses, eta_hat, identifiable))
        return per_eta

    with trial_map(cfg.threads) as map_trials:
        # (grid size, level) -> the trials' results, in trial order
        by_dims = [list(zip(*map_trials(partial(one, dims), range(cfg.trials))))
                   for dims in cfg.grid_dims]
    for eta, per_dims in zip(cfg.eta, zip(*by_dims)):
        means = []
        for dims, trials in zip(cfg.grid_dims, per_dims):
            mses, eta_hats, flags = zip(*trials)
            results = np.array(mses)
            m_clean, m_noisy, m_scalar = results.mean(axis=0)
            win = np.mean(results[:, 0] <= results[:, 1])
            # the error of the conditional mean E[H | H_obs], in either corruption mode
            floor = eta * cfg.c / ((1 - eta) + eta * cfg.c) / dims.antennas
            means.append(m_clean)
            rows.append((eta, dims.antennas, m_clean, m_noisy, m_scalar, floor, win,
                         cfg.trials, cfg.seed))
            flags = [f for f in flags if f is not None]
            diagnostics.append({
                "eta": eta,
                "antennas": dims.antennas,
                "eta_hat_mean": statistics.fmean(eta_hats),
                "eta_hat_std": statistics.pstdev(eta_hats),
                "identifiable_fraction": float(np.mean(flags)) if flags else None,
            })
        headline[f"eta={_fmt(eta)}"] = {
            "nonincreasing_in_antennas": bool(
                all(means[i + 1] <= means[i] for i in range(len(means) - 1))
            ),
            "mse_cleaned_by_antennas": means,
            # floor is the last grid point's; at eta = 0 it is 0, and JSON has no Infinity
            "ratio_to_floor_last": means[-1] / floor if floor > 0 else None,
        }
    headline["csi"] = cfg.csi
    header = (
        "eta",
        "antennas",
        "mse_cleaned",
        "mse_noisy",
        "mse_scalar_mmse",
        "mmse_floor",
        "win_fraction",
        "trials",
        "seed",
    )
    return header, rows, {"diagnostics": diagnostics, "headline": headline}


_BER_HEADER = (
    "snr_db",
    "precoder",
    "csi_mode",
    "bits",
    "ber",
    "ber_lo",
    "ber_hi",
    "trials",
    "seed",
)


# axis -> (the config field held at its first value, the name in the headline)
_BER_AXES = {"snr_db": ("eta", "snr"), "eta": ("snr_db", "eta")}


# diagnostics key -> the BER point's Aggregate field (see there for where each
# is null); an entry starts with the point's own key, and the CLI names a
# point by the keys ahead of eta_hat_mean
_CSI_DIAGNOSTICS = {
    "eta_hat_mean": "eta_hat_mean",
    "eta_hat_std": "eta_hat_std",
    "mse_cleaned_mean": "mse_mean",
    "mse_raw_mean": "mse_noisy_mean",
    "identifiable_fraction": "identifiable_fraction",
}


def _ber_sweep(cfg: SimConfig, axis: str):
    """BER at each value of the ``axis`` config field, the other link
    parameter (eta or snr_db) held at its first configured value.

    The SNR axis is one Monte-Carlo call, so each trial's observation and
    cleaned CSI serve every SNR point; the observation changes with eta, so
    the eta axis makes one call per level, each at the one fixed SNR."""
    other, name = _BER_AXES[axis]
    fixed = getattr(cfg, other)[0]
    points = getattr(cfg, axis)
    if axis == "snr_db":
        aggregates = monte_carlo(cfg, eta=fixed, snr_db=points)
    else:
        aggregates = [monte_carlo(cfg, eta=x, snr_db=(fixed,))[0] for x in points]
    rows = []
    bers = []
    unresolved = []
    diagnostics = []
    degenerate = 0
    bits = cfg.bits if cfg.bits is not None else "bypass"
    for x, agg in zip(points, aggregates):
        eta, snr = (fixed, x) if axis == "snr_db" else (x, fixed)
        bers.append(agg.ber)
        diagnostics.append({axis: x, **{k: getattr(agg, f) for k, f in _CSI_DIAGNOSTICS.items()}})
        degenerate += agg.degenerate_csi_trials
        if not agg.resolved:
            unresolved.append(x)
        row = (snr, cfg.precoder, cfg.csi, bits, agg.ber, agg.ber_lo, agg.ber_hi,
               agg.trials_run, cfg.seed)
        rows.append(row if axis == "snr_db" else (eta,) + row)
    crossing = threshold_crossing(points, bers, 1e-3)
    summary = {
        "diagnostics": diagnostics,
        "headline": {
            other: fixed,
            f"{name}_at_ber_1e-3": crossing,
            f"unresolved_{axis}": unresolved,
            # trials whose CSI was all zero and transmitted nothing
            "degenerate_csi_trials": degenerate,
        },
    }
    header = _BER_HEADER if axis == "snr_db" else ("eta",) + _BER_HEADER
    return header, rows, summary


# kind -> family; a family returns (header, rows, summary) in raw numbers and
# takes the config plus its own options (only spectrum_check has one, ``bins``)
_FAMILIES = {
    "spectrum_check": _spectrum_check,
    "eta_cdf": _eta_cdf,
    "mse_vs_antennas": _mse_vs_antennas,
    "ber_vs_snr": partial(_ber_sweep, axis="snr_db"),
    "ber_vs_eta": partial(_ber_sweep, axis="eta"),
}
EXPERIMENT_KINDS = tuple(_FAMILIES)


def experiment_options(kind: str, cfg: SimConfig, bins: int | None = None) -> dict:
    """The keyword options of the family ``kind``, with ``cfg`` checked
    against the family's own rules.

    ``kind`` is one of :data:`EXPERIMENT_KINDS`.  ``bins`` is the histogram
    size of ``spectrum_check``, at least 2 (None means 50), and an error for
    any other kind.  ``mse_vs_antennas`` requires ``cfg.antennas_grid`` and
    a cleaning ``cfg.csi``.  Raises :class:`ExperimentError`.  These are
    every rule that a run checks before its first trial, and a dry run
    checks them here too, so it fails where the run would.
    """
    if kind not in _FAMILIES:
        raise ExperimentError(
            f"unknown experiment kind {kind!r}; expected one of {EXPERIMENT_KINDS}"
        )
    if bins is not None and kind != "spectrum_check":
        raise ExperimentError(f"config field 'bins' applies to spectrum_check only, not {kind}")
    if bins is not None and bins < 2:
        raise ExperimentError("spectrum_check requires config field 'bins' >= 2")
    if kind == "mse_vs_antennas":
        if cfg.antennas_grid is None:
            raise ExperimentError("mse_vs_antennas requires config field 'antennas_grid'")
        if cfg.csi not in ("ei_cleaned", "ei_cleaned_known_eta"):
            raise ExperimentError(
                "mse_vs_antennas requires csi of 'ei_cleaned' or 'ei_cleaned_known_eta'"
            )
    return {} if bins is None else {"bins": bins}


def run_experiment(kind: str, cfg: SimConfig, bins: int | None = None) -> ExperimentResult:
    """Run one experiment family and return its tables and summary.

    ``kind``, ``cfg`` and ``bins`` are checked by :func:`experiment_options`.
    Every float of the rows and the summary is rounded by :func:`_round`,
    so the JSON and the CSV carry the same numbers.  The result carries
    ``kind`` and the summary's ``wall_time_s``.
    """
    options = experiment_options(kind, cfg, bins)
    t0 = time.perf_counter()
    header, rows, summary = _rounded(_FAMILIES[kind](cfg, **options))
    summary["wall_time_s"] = round(time.perf_counter() - t0, 3)
    return ExperimentResult(kind, header, tuple(rows), summary, cfg)
