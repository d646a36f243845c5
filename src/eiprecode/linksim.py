"""Seeded link-level Monte-Carlo engine for the quantized downlink.

Scale convention: the spectral machinery works on 1/A-variance channel
entries; the link layer propagates through sqrt(A) * H (unit-variance
entries) and hands the precoder its CSI in the same scale, so that
SNR(dB) = 10 log10(P_total / sigma^2) with P_total = 1 holds literally.
Every emitted table states this convention.

Randomness: trial t derives four independent substreams from
SeedSequence(entropy=master_seed, spawn_key=(t, purpose)) with purpose
codes 0 = channel, 1 = corruption, 2 = receiver noise, 3 = symbols, so
flipping the CSI handling or the precoder never changes the draws, and any
trial is recomputable in isolation.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import erfc

from . import precoding
from .channel import CorruptionModel, SystemDims, corrupt, gen_channel
from .eta import EstimatorConfig, estimate_eta
from .rie import clean_channel, mse

__all__ = [
    "SNR_DEFINITION",
    "SimConfig",
    "TrialMetrics",
    "Aggregate",
    "MonteCarloError",
    "modulate",
    "demodulate",
    "qfunc",
    "awgn_qpsk_ber",
    "wilson_interval",
    "draw_observation",
    "estimate_csi",
    "downlink_trial",
    "trial_map",
    "monte_carlo",
]

SNR_DEFINITION = "snr_db = 10*log10(P_total/sigma2), P_total = 1, unit-variance channel entries at the link layer"

_CSI_MODES = ("perfect", "noisy_raw", "ei_cleaned", "ei_cleaned_known_eta")
_CHUNK = 8  # fixed accumulation granularity; parallelism never crosses it


@dataclass(frozen=True)
class SimConfig:
    """Complete description of one Monte-Carlo experiment family.

    Construction validates every field and keeps the stage objects built
    from them: ``dims`` (:class:`SystemDims`), ``grid_dims`` (one per
    ``antennas_grid`` entry, or None), ``estimator``
    (:class:`EstimatorConfig`) and ``quantizer`` (:class:`QuantizerSpec`, or
    None for bypass).  :meth:`corruption` gives the model at one eta.
    """

    users: int = 20
    antennas: int = 128
    eta: tuple = (0.3,)
    corruption_mode: str = "additive"
    c: float = 1.0
    precoder: str = "WFQ"
    csi: str = "ei_cleaned"
    bits: int | None = 4
    modulation: str = "QPSK"
    snr_db: tuple = (10.0,)
    trials: int = 1000
    symbols_per_trial: int = 100
    seed: int = 1234
    threads: int = 1
    min_errors: int = 100
    max_bits: int = 10_000_000
    estimator_order: int | None = None
    theory_mode: str = "gaussian_equivalent"
    p_total: float = 1.0
    antennas_grid: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "eta", _as_tuple(self.eta, float))
        object.__setattr__(self, "snr_db", _as_tuple(self.snr_db, float))
        if self.antennas_grid is not None:
            object.__setattr__(self, "antennas_grid", _as_tuple(self.antennas_grid, int))
        for key in ("eta", "snr_db", "antennas_grid"):
            if getattr(self, key) == ():
                raise ValueError(f"config field {key}: needs at least one value")
        # tolerate case variation from config files and flags
        object.__setattr__(self, "precoder", str(self.precoder).upper())
        object.__setattr__(self, "csi", str(self.csi).lower())
        object.__setattr__(self, "corruption_mode", str(self.corruption_mode).lower())
        object.__setattr__(self, "modulation", str(self.modulation).upper())
        object.__setattr__(self, "theory_mode", str(self.theory_mode).lower())
        if self.precoder not in precoding.PRECODERS:
            raise ValueError(
                f"precoder must be one of {precoding.PRECODERS}, got {self.precoder!r}"
            )
        if self.csi not in _CSI_MODES:
            raise ValueError(f"csi must be one of {_CSI_MODES}, got {self.csi!r}")
        if self.modulation not in ("QPSK", "16QAM"):
            raise ValueError(f"unknown modulation {self.modulation!r}")
        if self.trials < 1 or self.symbols_per_trial < 1:
            raise ValueError("trials and symbols_per_trial must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.min_errors < 1 or self.max_bits < 1:
            raise ValueError("min_errors and max_bits must be >= 1")
        if not (math.isfinite(self.p_total) and self.p_total > 0):
            raise ValueError(f"p_total must be positive and finite, got {self.p_total}")
        # The stage objects own the remaining rules: building them here
        # rejects a bad value at parse time, and the trials reuse them.
        with _config_keys("users", "antennas"):
            object.__setattr__(self, "dims", SystemDims(self.users, self.antennas))
        with _config_keys("antennas_grid"):
            grid = self.antennas_grid
            grid_dims = None if grid is None else tuple(SystemDims(self.users, a) for a in grid)
            object.__setattr__(self, "grid_dims", grid_dims)
        with _config_keys("eta", "corruption_mode", "c"):
            for e in self.eta:
                self.corruption(e)
        with _config_keys("estimator_order", "theory_mode", "c", "corruption_mode"):
            estimator = EstimatorConfig(
                order=self.estimator_order,
                mode=self.theory_mode,
                c=self.c,
                data_mode=self.corruption_mode,
            )
            object.__setattr__(self, "estimator", estimator)
        with _config_keys("bits"):
            quantizer = None if self.bits is None else precoding.QuantizerSpec(int(self.bits))
            object.__setattr__(self, "quantizer", quantizer)
        with _config_keys("precoder", "bits"):
            if self.precoder == "QCE" and quantizer is None:
                raise ValueError("QCE needs a quantizer for its phase sectors, got bits bypass")

    def corruption(self, eta: float) -> CorruptionModel:
        """The corruption model of this config at one error level."""
        return CorruptionModel(eta=eta, mode=self.corruption_mode, c=self.c)

    @property
    def q(self) -> float:
        return self.users / self.antennas

    def at(self, **kw) -> "SimConfig":
        return replace(self, **kw)


@contextmanager
def _config_keys(*keys):
    """Prefix a ValueError raised in the block with the config keys it checks."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"config field {'/'.join(keys)}: {exc}") from exc


def _as_tuple(v, cast):
    if isinstance(v, (list, tuple, np.ndarray)):
        return tuple(cast(x) for x in v)
    return (cast(v),)


@dataclass(frozen=True)
class TrialMetrics:
    trial_index: int
    bits_sent: int
    bit_errors: int
    mse_csi: float | None
    mse_noisy: float | None
    delta_eta: float | None
    eta_hat: float | None
    seed_key: tuple

    def __post_init__(self):
        if self.bit_errors > self.bits_sent:
            raise ValueError("bit_errors cannot exceed bits_sent")


@dataclass(frozen=True)
class Aggregate:
    bits: int
    errors: int
    ber: float
    ber_lo: float
    ber_hi: float
    trials_run: int
    resolved: bool
    mse_mean: float | None
    mse_noisy_mean: float | None
    delta_eta_values: tuple
    eta_hat_values: tuple


class MonteCarloError(RuntimeError):
    """A trial failed; carries the partial aggregate in ``partial``."""

    def __init__(self, message, trial_index, partial):
        super().__init__(message)
        self.trial_index = trial_index
        self.partial = partial


# ---------------------------------------------------------------------------
# Modulation


def _bits_per_symbol(scheme: str) -> int:
    return {"QPSK": 2, "16QAM": 4}[scheme]


_PAM4_LEVELS = np.array([-3.0, -1.0, 1.0, 3.0]) / np.sqrt(10.0)
# Gray map per axis: bit pair (b_hi, b_lo) -> level index, at 2 b_hi + b_lo
_PAM4_LEVEL_OF_PAIR = np.array([0, 1, 3, 2])
# and back: level index -> bit pair
_PAM4_PAIR_OF_LEVEL = np.array([[0, 0], [0, 1], [1, 1], [1, 0]])


def modulate(bits, scheme: str = "QPSK") -> np.ndarray:
    """Gray-mapped unit-energy symbols from a flat 0/1 array."""
    bits = np.asarray(bits, dtype=int).ravel()
    bps = _bits_per_symbol(scheme)
    if bits.size % bps:
        raise ValueError(f"bit count {bits.size} not divisible by {bps}")
    if scheme == "QPSK":
        pairs = bits.reshape(-1, 2)
        return ((1.0 - 2.0 * pairs[:, 0]) + 1j * (1.0 - 2.0 * pairs[:, 1])) / np.sqrt(2.0)
    pairs = bits.reshape(-1, 2, 2)  # (symbol, I/Q axis, b_hi/b_lo)
    levels = _PAM4_LEVELS[_PAM4_LEVEL_OF_PAIR[2 * pairs[..., 0] + pairs[..., 1]]]
    return levels[:, 0] + 1j * levels[:, 1]


def demodulate(symbols, scheme: str = "QPSK") -> np.ndarray:
    """Minimum-distance demodulation back to a flat 0/1 array."""
    symbols = np.asarray(symbols, dtype=complex).ravel()
    if scheme == "QPSK":
        out = np.empty((symbols.size, 2), dtype=int)
        out[:, 0] = (symbols.real < 0).astype(int)
        out[:, 1] = (symbols.imag < 0).astype(int)
        return out.ravel()
    axes = np.stack((symbols.real, symbols.imag), axis=1)
    idx = np.digitize(axes, (_PAM4_LEVELS[:-1] + _PAM4_LEVELS[1:]) / 2.0)
    return _PAM4_PAIR_OF_LEVEL[idx].ravel()


def qfunc(x) -> np.ndarray:
    """Gaussian tail probability Q(x)."""
    return 0.5 * erfc(np.asarray(x) / math.sqrt(2.0))


def awgn_qpsk_ber(esn0_db: float) -> float:
    """Closed-form QPSK bit error rate on AWGN, Es/N0 per complex symbol."""
    return float(qfunc(math.sqrt(10.0 ** (esn0_db / 10.0))))


def wilson_interval(errors: int, bits: int, z: float = 1.959964) -> tuple[float, float]:
    """95% Wilson score interval for a binomial rate."""
    if bits <= 0:
        return (0.0, 1.0)
    p = errors / bits
    denom = 1.0 + z * z / bits
    center = (p + z * z / (2.0 * bits)) / denom
    half = z * math.sqrt(p * (1.0 - p) / bits + z * z / (4.0 * bits * bits)) / denom
    # the boundary cases are exact; avoid floating residue of center -+ half
    lo = 0.0 if errors == 0 else max(center - half, 0.0)
    hi = 1.0 if errors == bits else min(center + half, 1.0)
    return (lo, hi)


# ---------------------------------------------------------------------------
# Trials


def _trial_rng(master_seed: int, trial_index: int, purpose: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(trial_index, purpose))
    return np.random.default_rng(ss)


def draw_observation(
    cfg: SimConfig, dims: SystemDims, eta: float, trial_index: int
) -> tuple[np.ndarray, np.ndarray]:
    """The true channel and its corrupted observation for one trial.

    They come from the channel and corruption streams of ``trial_index``,
    so every experiment family sees the same pair for the same seed.
    """
    H = gen_channel(dims, _trial_rng(cfg.seed, trial_index, 0))
    H_obs = corrupt(H, cfg.corruption(eta), _trial_rng(cfg.seed, trial_index, 1))
    return H, H_obs


def estimate_csi(
    cfg: SimConfig, eta: float, H: np.ndarray, H_obs: np.ndarray
) -> tuple[np.ndarray, float | None]:
    """The CSI the configured ``csi`` mode hands the precoder, and eta_hat.

    ``perfect`` and ``noisy_raw`` return H and H_obs as they are, with
    eta_hat None; the cleaned modes estimate eta blindly
    (``ei_cleaned``) or take the true ``eta`` (``ei_cleaned_known_eta``)
    and clean H_obs at it.
    """
    if cfg.csi == "perfect":
        return H, None
    if cfg.csi == "noisy_raw":
        return H_obs, None
    if cfg.csi == "ei_cleaned":
        eta_hat = estimate_eta(H_obs, cfg.estimator).eta_hat
    else:
        eta_hat = eta
    csi = clean_channel(H_obs, eta_hat, mode=cfg.corruption_mode, c=cfg.c)
    return csi, eta_hat


def downlink_trial(
    cfg: SimConfig,
    trial_index: int,
    eta: float | None = None,
    snr_db: float | None = None,
) -> TrialMetrics:
    """One seeded downlink realization.

    The true channel always carries the propagation; the configured CSI
    handling only decides what the precoder sees.
    """
    eta = cfg.eta[0] if eta is None else float(eta)
    snr_db = cfg.snr_db[0] if snr_db is None else float(snr_db)
    dims = cfg.dims
    sigma2 = cfg.p_total * 10.0 ** (-snr_db / 10.0)

    rng_noise = _trial_rng(cfg.seed, trial_index, 2)
    rng_sym = _trial_rng(cfg.seed, trial_index, 3)

    H, H_obs = draw_observation(cfg, dims, eta, trial_index)
    csi, eta_hat = estimate_csi(cfg, eta, H, H_obs)
    mse_csi = mse_noisy = d_eta = None
    if eta_hat is not None:
        d_eta = abs(eta - eta_hat)
        mse_csi = mse(H, csi)
        mse_noisy = mse(H, H_obs)

    # link-layer scale: unit-variance channel entries
    root_a = np.sqrt(dims.antennas)
    H_link = root_a * H
    csi_link = root_a * csi

    spec = cfg.quantizer
    pout = precoding.precode(cfg.precoder, csi_link, sigma2, cfg.p_total, spec)

    bps = _bits_per_symbol(cfg.modulation)
    n_bits = dims.users * cfg.symbols_per_trial * bps
    tx_bits = rng_sym.integers(0, 2, size=n_bits)
    s = modulate(tx_bits, cfg.modulation).reshape(dims.users, cfg.symbols_per_trial)

    x = precoding.transmit(pout, s, spec)
    noise = (
        rng_noise.standard_normal(s.shape) + 1j * rng_noise.standard_normal(s.shape)
    ) * np.sqrt(sigma2 / 2.0)
    y = H_link @ x + noise
    s_hat = pout.beta * y
    rx_bits = demodulate(s_hat.reshape(-1), cfg.modulation)
    errors = int(np.count_nonzero(rx_bits != demodulate(s.reshape(-1), cfg.modulation)))

    return TrialMetrics(
        trial_index=trial_index,
        bits_sent=n_bits,
        bit_errors=errors,
        mse_csi=mse_csi,
        mse_noisy=mse_noisy,
        delta_eta=d_eta,
        eta_hat=eta_hat,
        seed_key=(cfg.seed, trial_index),
    )


def _aggregate(metrics: list[TrialMetrics], cfg: SimConfig) -> Aggregate:
    bits = sum(m.bits_sent for m in metrics)
    errors = sum(m.bit_errors for m in metrics)
    ber = errors / bits if bits else 0.0
    lo, hi = wilson_interval(errors, bits)
    mses = [m.mse_csi for m in metrics if m.mse_csi is not None]
    mses_noisy = [m.mse_noisy for m in metrics if m.mse_noisy is not None]
    return Aggregate(
        bits=bits,
        errors=errors,
        ber=ber,
        ber_lo=lo,
        ber_hi=hi,
        trials_run=len(metrics),
        resolved=errors >= cfg.min_errors,
        mse_mean=float(np.mean(mses)) if mses else None,
        mse_noisy_mean=float(np.mean(mses_noisy)) if mses_noisy else None,
        delta_eta_values=tuple(m.delta_eta for m in metrics if m.delta_eta is not None),
        eta_hat_values=tuple(m.eta_hat for m in metrics if m.eta_hat is not None),
    )


@contextmanager
def trial_map(threads: int):
    """Open a mapper ``(fn, trials) -> [fn(t) for t in trials]`` for one run.

    With ``threads > 1`` every call in the block runs on one pool of that
    width, which closes with the block; results keep the order of
    ``trials`` either way.
    """
    if threads == 1:
        yield lambda fn, trials: [fn(t) for t in trials]
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        yield lambda fn, trials: list(pool.map(fn, trials))


def monte_carlo(
    cfg: SimConfig, eta: float | None = None, snr_db: float | None = None
) -> Aggregate:
    """Run trials until the error budget is met, deterministically.

    Trials are consumed in fixed chunks of 8 in index order; the thread
    width only parallelizes inside a chunk, so the aggregate is identical
    for any ``threads`` setting.  Stops at the first chunk boundary where
    bit errors >= min_errors or bits >= max_bits, or when ``trials`` is
    exhausted; ``resolved`` records whether the error target was met.
    """
    metrics: list[TrialMetrics] = []
    errors = 0
    bits = 0
    done = 0
    with trial_map(cfg.threads) as map_trials:
        while done < cfg.trials and errors < cfg.min_errors and bits < cfg.max_bits:
            chunk = range(done, min(done + _CHUNK, cfg.trials))
            try:
                results = map_trials(lambda t: downlink_trial(cfg, t, eta, snr_db), chunk)
            except Exception as exc:
                raise MonteCarloError(
                    f"trial in chunk starting at {done} failed: {exc}",
                    done,
                    _aggregate(metrics, cfg),
                ) from exc
            metrics.extend(results)
            errors += sum(m.bit_errors for m in results)
            bits += sum(m.bits_sent for m in results)
            done += len(chunk)
    return _aggregate(metrics, cfg)
