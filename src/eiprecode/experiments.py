"""Experiment families over the Monte-Carlo engine.

Each family emits one CSV table (plot-ready, byte-deterministic for a fixed
config and seed) and one JSON summary (config echo, version, headline
numbers, wall time).  The wall-time key is the only nondeterministic output
field and lives nowhere else.
"""

from __future__ import annotations

import json
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
    "threshold_crossing",
    "EXPERIMENT_KINDS",
]

EXPERIMENT_KINDS = (
    "spectrum_check",
    "eta_cdf",
    "mse_vs_antennas",
    "ber_vs_snr",
    "ber_vs_eta",
)


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


def _spectrum_check(cfg: SimConfig, bins: int) -> ExperimentResult:
    dims = cfg.dims
    a_edge, b_edge, atom = bsca_support(cfg.q)
    edges = np.linspace(-b_edge, b_edge, bins + 1)
    width = edges[1] - edges[0]
    centers = 0.5 * (edges[:-1] + edges[1:])

    def one(t: int):
        H, _ = draw_observation(cfg, dims, 0.0, t)
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
    analytic = bsca_density(centers, cfg.q)
    l1 = float(np.sum(np.abs(density - analytic)) * width)

    rows = tuple(
        (_round(c), _round(d), _round(an))
        for c, d, an in zip(centers, density, analytic)
    )
    expected_zeros = dims.antennas - dims.users
    summary = {
        "wall_time_s": None,  # patched by run_experiment
        "headline": {
            "l1_distance": _round(l1),
            "zero_eigenvalues_per_draw": zero_counts[0] if len(set(zero_counts)) == 1 else zero_counts,
            "expected_zero_eigenvalues": expected_zeros,
            "zeros_ok": all(z == expected_zeros for z in zero_counts),
            "support": [_round(a_edge), _round(b_edge)],
            "zero_mass": _round(atom),
            "draws": cfg.trials,
            "bins": bins,
        },
    }
    return ExperimentResult(
        "spectrum_check",
        ("bin_center", "empirical_density", "analytic_density"),
        rows,
        summary,
        cfg,
    )


def _eta_cdf(cfg: SimConfig) -> ExperimentResult:
    dims = cfg.dims
    rows = []
    headline = {}

    def one(eta: float, t: int):
        _, H_obs = draw_observation(cfg, dims, eta, t)
        est = estimate_eta(H_obs, cfg.estimator)
        return abs(est.eta_hat - eta), est.eta_hat, est.identifiable

    with trial_map(cfg.threads) as map_trials:
        per_eta = [map_trials(partial(one, eta), range(cfg.trials)) for eta in cfg.eta]
    for eta, results in zip(cfg.eta, per_eta):
        deltas = np.sort(np.array([r[0] for r in results]))
        cdf = np.arange(1, len(deltas) + 1) / len(deltas)
        rows.extend(
            (_round(eta), _round(d), _round(p)) for d, p in zip(deltas, cdf)
        )
        headline[f"eta={_fmt(eta)}"] = {
            "p95_delta_eta": _round(np.quantile(deltas, 0.95)),
            "prob_delta_below_0.05": _round(np.mean(deltas < 0.05)),
            "median_delta_eta": _round(np.median(deltas)),
            "mean_eta_hat": _round(np.mean([r[1] for r in results])),
            "identifiable_fraction": _round(np.mean([r[2] for r in results])),
        }
    order = cfg.estimator.order
    headline["estimator_order"] = order if order is not None else "auto"
    headline["theory_mode"] = cfg.theory_mode
    summary = {"wall_time_s": None, "headline": headline}
    return ExperimentResult(
        "eta_cdf", ("eta", "delta_eta", "cdf"), tuple(rows), summary, cfg
    )


def _mse_vs_antennas(cfg: SimConfig) -> ExperimentResult:
    if cfg.antennas_grid is None:
        raise ExperimentError("mse_vs_antennas requires config field 'antennas_grid'")
    if cfg.csi not in ("ei_cleaned", "ei_cleaned_known_eta"):
        raise ExperimentError(
            "mse_vs_antennas requires csi of 'ei_cleaned' or 'ei_cleaned_known_eta'"
        )
    rows = []
    headline = {}

    def one(dims, eta: float, t: int):
        H, H_obs = draw_observation(cfg, dims, eta, t)
        H_hat, _ = estimate_csi(cfg, eta, H, H_obs)
        return (
            mse(H, H_hat),
            mse(H, H_obs),
            mse(H, linear_mmse_baseline(H_obs, eta, cfg.corruption_mode, cfg.c)),
        )

    with trial_map(cfg.threads) as map_trials:
        for eta in cfg.eta:
            means = []
            for dims in cfg.grid_dims:
                results = np.array(map_trials(partial(one, dims, eta), range(cfg.trials)))
                m_clean, m_noisy, m_scalar = results.mean(axis=0)
                win = float(np.mean(results[:, 0] <= results[:, 1]))
                floor = eta / dims.antennas
                means.append(m_clean)
                rows.append(
                    (
                        _round(eta),
                        dims.antennas,
                        _round(m_clean),
                        _round(m_noisy),
                        _round(m_scalar),
                        _round(floor),
                        _round(win),
                        cfg.trials,
                        cfg.seed,
                    )
                )
            headline[f"eta={_fmt(eta)}"] = {
                "nonincreasing_in_antennas": bool(
                    all(means[i + 1] <= means[i] for i in range(len(means) - 1))
                ),
                "mse_cleaned_by_antennas": [_round(v) for v in means],
                # floor is the last grid point's; at eta = 0 it is 0, and JSON has no Infinity
                "ratio_to_floor_last": _round(means[-1] / floor) if floor > 0 else None,
            }
    headline["csi"] = cfg.csi
    summary = {"wall_time_s": None, "headline": headline}
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
    return ExperimentResult("mse_vs_antennas", header, tuple(rows), summary, cfg)


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


# axis -> (the config field held at its first value, the name in the kind)
_BER_AXES = {"snr_db": ("eta", "snr"), "eta": ("snr_db", "eta")}


def _ber_sweep(cfg: SimConfig, axis: str) -> ExperimentResult:
    """BER at each value of the ``axis`` config field, the other link
    parameter (eta or snr_db) held at its first configured value."""
    other, name = _BER_AXES[axis]
    fixed = getattr(cfg, other)[0]
    points = getattr(cfg, axis)
    rows = []
    bers = []
    unresolved = []
    for x in points:
        eta, snr = (fixed, x) if axis == "snr_db" else (x, fixed)
        agg = monte_carlo(cfg, eta=eta, snr_db=snr)
        bers.append(agg.ber)
        if not agg.resolved:
            unresolved.append(_round(x))
        row = (
            _round(snr),
            cfg.precoder,
            cfg.csi,
            cfg.bits if cfg.bits is not None else "bypass",
            _round(agg.ber),
            _round(agg.ber_lo),
            _round(agg.ber_hi),
            agg.trials_run,
            cfg.seed,
        )
        rows.append(row if axis == "snr_db" else (_round(eta),) + row)
    crossing = threshold_crossing(points, bers, 1e-3)
    summary = {
        "wall_time_s": None,
        "headline": {
            other: _round(fixed),
            f"{name}_at_ber_1e-3": None if crossing is None else _round(crossing),
            f"unresolved_{axis}": unresolved,
        },
    }
    header = _BER_HEADER if axis == "snr_db" else ("eta",) + _BER_HEADER
    return ExperimentResult(f"ber_vs_{name}", header, tuple(rows), summary, cfg)


def run_experiment(kind: str, cfg: SimConfig, bins: int = 50) -> ExperimentResult:
    """Run one experiment family and return its tables and summary."""
    t0 = time.perf_counter()
    if kind == "spectrum_check":
        if bins < 2:
            raise ExperimentError("spectrum_check requires config field 'bins' >= 2")
        result = _spectrum_check(cfg, bins)
    elif kind == "eta_cdf":
        result = _eta_cdf(cfg)
    elif kind == "mse_vs_antennas":
        result = _mse_vs_antennas(cfg)
    elif kind == "ber_vs_snr":
        result = _ber_sweep(cfg, "snr_db")
    elif kind == "ber_vs_eta":
        result = _ber_sweep(cfg, "eta")
    else:
        raise ExperimentError(
            f"unknown experiment kind {kind!r}; expected one of {EXPERIMENT_KINDS}"
        )
    result.summary["wall_time_s"] = round(time.perf_counter() - t0, 3)
    return result
