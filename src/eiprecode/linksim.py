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
trial is recomputable in isolation.  Neither the channel H nor the
corruption error E depends on eta (E's law depends on the mode and c
only), so :func:`draw_observation` draws each once per trial and mixes
them into one observation per error level: the ``clean-csi`` and
``estimate-eta`` families draw a trial (and grid size) once for all their
levels, and each level's observation is the one a call at that level alone
gives.

None of those draws depends on the SNR either: the receiver noise is drawn
at unit variance and scaled per SNR.  So one trial index serves every point
of a BER curve, on either axis: :func:`downlink_trial` and
:func:`monte_carlo` take a sequence of ``(eta, snr_db)`` points (None for
the first configured eta at every configured SNR) and return one result per
point.  A trial draws its channel, error, symbols and unit noise once; each
CSI level (its eta, or 0 under ``perfect``) gets its observation, eta-hat,
cleaned CSI and MSEs once, for all of its points.  Each point's metrics are
bit-identical to a call with that point alone.

One eigendecomposition of a U x U Gram per trial and CSI level serves every
spectral stage: the observation's :class:`~eiprecode.channel.GramEig` feeds
eta-hat and the cleaner, which returns the cleaned CSI with its own, and in
the ``perfect`` and ``noisy_raw`` modes it serves the precoder of every
point at that level.

The points of one CSI level, in every CSI mode and for every precoder, are
sent in one stacked pass: each point's precoder is formed on the CSI's
GramEig (U-sized, one call per point), one
:func:`~eiprecode.precoding.transmit` call sends all S of them from the
CSI eigenbasis into an (S, A, N) transmit block, and one batched
``H x`` product fills an (S, U, N) receive block.  Each point's slice then
takes its scaled unit noise and beta in place before its
:func:`demodulate` and error count.  numpy's batched matmul makes one BLAS
call per point, the product a lone point makes, so every point's metrics
are those of a call with that point alone.
"""

from __future__ import annotations

import math
import numbers
import statistics
import sys
import typing
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import precoding
from .channel import CorruptionModel, GramEig, SystemDims, corrupt, gen_channel, gen_error, gram_eig
from .eta import EstimatorConfig, estimate_eta
from .rie import clean_channel, mse

__all__ = [
    "SNR_DEFINITION",
    "SimConfig",
    "cast_field",
    "TrialMetrics",
    "Aggregate",
    "MonteCarloError",
    "modulate",
    "demodulate",
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

    This is the one config schema.  Each field's annotation is its type
    rule: construction casts every value through :func:`cast_field` (so
    4.0 becomes 4, a list becomes a tuple, and a NaN, a bool or a string
    where a number belongs raise ValueError naming the field), and
    ``bits`` also takes ``"bypass"`` for None.  It then checks the range
    rules and keeps the stage objects built from the fields: ``dims``
    (:class:`SystemDims`), ``grid_dims`` (one per ``antennas_grid`` entry,
    or None), ``estimator`` (:class:`EstimatorConfig`) and ``quantizer``
    (:class:`QuantizerSpec`, or None for bypass).  :meth:`corruption` gives
    the model at one eta.
    """

    users: int = 20
    antennas: int = 128
    eta: tuple[float, ...] = (0.3,)
    corruption_mode: str = "additive"
    c: float = 1.0
    precoder: str = "WFQ"
    csi: str = "ei_cleaned"
    bits: int | None = 4
    modulation: str = "QPSK"
    snr_db: tuple[float, ...] = (10.0,)
    trials: int = 1000
    symbols_per_trial: int = 100
    seed: int = 1234
    threads: int = 1
    min_errors: int = 100
    max_bits: int = 10_000_000
    estimator_order: int | None = None
    theory_mode: str = "gaussian_equivalent"
    antennas_grid: tuple[int, ...] | None = None

    def __post_init__(self):
        if isinstance(self.bits, str) and self.bits.lower() == "bypass":
            object.__setattr__(self, "bits", None)
        for key, hint in _FIELD_TYPES.items():
            object.__setattr__(self, key, cast_field(key, hint, getattr(self, key)))
        for key in ("eta", "snr_db", "antennas_grid"):
            if getattr(self, key) == ():
                raise ValueError(f"config field {key}: needs at least one value")
        # tolerate case variation from config files and flags
        object.__setattr__(self, "precoder", self.precoder.upper())
        object.__setattr__(self, "csi", self.csi.lower())
        object.__setattr__(self, "corruption_mode", self.corruption_mode.lower())
        object.__setattr__(self, "modulation", self.modulation.upper())
        object.__setattr__(self, "theory_mode", self.theory_mode.lower())
        if self.precoder not in precoding.PRECODERS:
            raise ValueError(
                f"precoder must be one of {precoding.PRECODERS}, got {self.precoder!r}"
            )
        if self.csi not in _CSI_MODES:
            raise ValueError(f"csi must be one of {_CSI_MODES}, got {self.csi!r}")
        _gray_pam(self.modulation)  # rejects an unknown scheme
        if self.trials < 1 or self.symbols_per_trial < 1:
            raise ValueError("trials and symbols_per_trial must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.min_errors < 1 or self.max_bits < 1:
            raise ValueError("min_errors and max_bits must be >= 1")
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
            quantizer = None if self.bits is None else precoding.QuantizerSpec(self.bits)
            object.__setattr__(self, "quantizer", quantizer)
        with _config_keys("precoder", "bits"):
            if self.precoder == "QCE" and quantizer is None:
                raise ValueError("QCE needs a quantizer for its phase sectors, got bits bypass")

    def corruption(self, eta: float) -> CorruptionModel:
        """The corruption model of this config at one error level."""
        return CorruptionModel(eta=eta, mode=self.corruption_mode, c=self.c)


@contextmanager
def _config_keys(*keys):
    """Prefix a ValueError raised in the block with the config keys it checks."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"config field {'/'.join(keys)}: {exc}") from exc


def cast_field(key: str, hint, value):
    """``value`` cast to the annotated type ``hint`` of config field ``key``.

    An int takes an integral finite real (4.0 gives 4), a float a finite
    real, a str a str; a tuple takes one value or a list, tuple or array,
    element by element; None passes where the hint allows it, and a bool is
    never a number.  Anything else raises ValueError naming ``key``.
    """
    args = typing.get_args(hint)
    if type(None) in args:  # X | None
        return None if value is None else cast_field(key, args[0], value)
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()  # numpy scalars and arrays to Python ones
    if typing.get_origin(hint) is tuple:
        items = value if isinstance(value, (list, tuple)) else [value]
        return tuple(cast_field(key, args[0], x) for x in items)
    expected = {int: "an integer", float: "a finite number", str: "a string"}[hint]
    if hint is str:
        ok = isinstance(value, str)
    else:
        # NaN, +/-inf and ints past the float range fail the bound; the
        # comparison is exact, where math.isfinite would overflow on a big int
        ok = (
            isinstance(value, numbers.Real)
            and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max
            and (hint is float or value == int(value))
        )
    if not ok:
        raise ValueError(f"config field {key!r}: expected {expected}, got {value!r}")
    return hint(value)


# every field's type, read from its annotation once
_FIELD_TYPES = typing.get_type_hints(SimConfig)


@dataclass(frozen=True)
class TrialMetrics:
    trial_index: int
    bits_sent: int
    bit_errors: int
    mse_csi: float | None
    mse_noisy: float | None
    eta_hat: float | None
    degenerate_csi: bool = False
    identifiable: bool | None = None  # EtaEstimate.identifiable; None unless estimated

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
    # the per-point CSI statistics are over the trials that clean the CSI,
    # and None where the CSI mode cleans nothing (perfect, noisy_raw)
    mse_mean: float | None
    mse_noisy_mean: float | None
    eta_hat_mean: float | None
    eta_hat_std: float | None  # population spread; a constant eta_hat gives exactly 0
    degenerate_csi_trials: int
    identifiable_fraction: float | None  # over the trials that estimate eta


class MonteCarloError(RuntimeError):
    """A trial failed in the chunk starting at ``trial_index``."""

    def __init__(self, message, trial_index):
        super().__init__(message)
        self.trial_index = trial_index


# ---------------------------------------------------------------------------
# Modulation


# Gray-PAM per axis: scheme -> (levels, bit group of each level); the groups
# of adjacent levels differ in one bit, and a symbol carries one group on I
# and one on Q
_GRAY_PAM = {
    "QPSK": (np.array([-1.0, 1.0]) / np.sqrt(2.0), np.array([[1], [0]])),
    "16QAM": (
        np.array([-3.0, -1.0, 1.0, 3.0]) / np.sqrt(10.0),
        np.array([[0, 0], [0, 1], [1, 1], [1, 0]]),
    ),
}


def _gray_pam(scheme: str) -> tuple[np.ndarray, np.ndarray]:
    try:
        return _GRAY_PAM[scheme]
    except KeyError:
        raise ValueError(f"unknown modulation {scheme!r}") from None


def _bits_per_symbol(scheme: str) -> int:
    return 2 * _gray_pam(scheme)[1].shape[1]


def _gray_code(bit_groups: np.ndarray) -> np.ndarray:
    """Each group of bits along the last axis read as a binary number."""
    code = bit_groups[..., 0]
    for j in range(1, bit_groups.shape[-1]):
        code = 2 * code + bit_groups[..., j]
    return code


def modulate(bits, scheme: str = "QPSK") -> np.ndarray:
    """Gray-mapped unit-energy symbols from a flat 0/1 array."""
    levels, groups = _gray_pam(scheme)
    k = groups.shape[1]  # bits per axis
    bits = np.asarray(bits, dtype=int).ravel()
    if bits.size % (2 * k):
        raise ValueError(f"bit count {bits.size} not divisible by {2 * k}")
    level_of_code = np.empty_like(levels)
    level_of_code[_gray_code(groups)] = levels
    # (symbol, I/Q) levels, contiguous, are the symbols' real and imaginary parts
    return level_of_code.take(_gray_code(bits.reshape(-1, 2, k))).view(complex).ravel()


def demodulate(symbols, scheme: str = "QPSK") -> np.ndarray:
    """Minimum-distance demodulation back to a flat 0/1 array."""
    levels, groups = _gray_pam(scheme)
    axes = np.asarray(symbols, dtype=complex).ravel().view(float)  # I, Q, I, Q, ...
    # the level index is the count of midpoints at or below the value, as
    # np.digitize gives it: NaN reaches every midpoint and -0.0 reaches 0.0
    level = np.zeros(axes.shape, dtype=np.uint8)  # at most 3 midpoints per axis
    for mid in (levels[:-1] + levels[1:]) / 2.0:
        level += ~(axes < mid)
    return groups.take(level, axis=0).ravel()


def wilson_interval(errors: int, bits: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial rate."""
    if bits <= 0:
        return (0.0, 1.0)
    z = 1.959964
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
    cfg: SimConfig, dims: SystemDims, etas: tuple[float, ...], trial_index: int
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The true channel of one trial and its corrupted observation at each
    error level of ``etas``, in order.

    H comes from the channel stream of ``trial_index`` and the error E from
    its corruption stream, each drawn once: neither depends on eta, so every
    level mixes the same H and E, and each observation equals a call with
    that level alone.  E is not drawn when every level is 0.
    """
    models = [cfg.corruption(eta) for eta in etas]
    H = gen_channel(dims, _trial_rng(cfg.seed, trial_index, 0))
    E = gen_error(dims, models[0], _trial_rng(cfg.seed, trial_index, 1)) if any(etas) else None
    return H, tuple(corrupt(H, model, E) for model in models)


def estimate_csi(
    cfg: SimConfig, level: float, H_obs: np.ndarray
) -> tuple[GramEig, float | None, bool | None]:
    """The CSI the configured ``csi`` mode hands the precoder from the
    observation ``H_obs`` at error ``level``, as its
    :class:`~eiprecode.channel.GramEig`, eta_hat, and whether eta_hat is
    identifiable.

    ``perfect`` (level 0 only, else ValueError) and ``noisy_raw`` decompose
    H_obs as it is, with eta_hat None; the cleaned modes decompose it once,
    estimate eta from that blindly (``ei_cleaned``) or take the true
    ``level`` (``ei_cleaned_known_eta``), and clean it at eta_hat.  The flag
    is :class:`EtaEstimate`'s ``identifiable`` for ``ei_cleaned`` and None
    where nothing is estimated.
    """
    if cfg.csi == "perfect" and level != 0.0:
        raise ValueError(f"csi 'perfect' reads the level-0 observation, got level {level!r}")
    obs = gram_eig(H_obs)
    if cfg.csi in ("perfect", "noisy_raw"):
        return obs, None, None
    identifiable = None
    if cfg.csi == "ei_cleaned":
        est = estimate_eta(obs, cfg.estimator)
        eta_hat, identifiable = est.eta_hat, est.identifiable
    else:
        eta_hat = level
    csi = clean_channel(obs, cfg.corruption(eta_hat))
    return csi, eta_hat, identifiable


def _pairs(cfg: SimConfig, points) -> tuple[tuple[float, float], ...]:
    """The (eta, snr_db) pairs of a call, as floats: ``points``, or the
    first configured eta at every configured SNR for None.  Anything but a
    sequence of pairs of real numbers raises TypeError before any work."""
    if points is None:
        return tuple((cfg.eta[0], snr) for snr in cfg.snr_db)
    try:
        pairs = [(eta, snr) for eta, snr in points]  # TypeError or ValueError if not pairs
        if all(isinstance(x, numbers.Real) for pair in pairs for x in pair):
            return tuple((float(eta), float(snr)) for eta, snr in pairs)
    except (TypeError, ValueError):
        pass
    raise TypeError(f"points must be a sequence of (eta, snr_db) pairs or None, got {points!r}")


def downlink_trial(
    cfg: SimConfig, trial_index: int, points: typing.Sequence | None = None
) -> tuple[TrialMetrics, ...]:
    """One seeded downlink realization, one :class:`TrialMetrics` per
    ``(eta, snr_db)`` pair of ``points`` in order (None means the first
    configured eta at every configured SNR; anything but a sequence of
    numeric pairs raises TypeError before anything is drawn).

    The true channel always carries the propagation; the configured CSI
    handling only decides what the precoder sees.  An all-zero CSI (the
    cleaner can shrink every singular value away) gives the precoder no
    direction: the trial transmits nothing, scores the bits as received
    with beta 1, and is flagged ``degenerate_csi``.

    The channel, error, symbols and unit-variance receiver noise are drawn
    once.  Each CSI level (its eta, or 0 under ``perfect``), in order of
    first appearance, gets its observation, eta_hat, cleaned CSI and MSEs
    once, and the transmission and ``H x`` of all its points in one stacked
    pass; only the precoder, the noise scale, beta and detection are per
    point, so each entry equals a call with that point alone.
    """
    pairs = _pairs(cfg, points)
    by_level: dict[float, list[int]] = {}  # each CSI level -> its points
    for i, (eta, _) in enumerate(pairs):
        by_level.setdefault(0.0 if cfg.csi == "perfect" else eta, []).append(i)

    H, observations = draw_observation(cfg, cfg.dims, tuple(by_level), trial_index)
    # link-layer scale: unit-variance channel entries
    root_a = np.sqrt(cfg.antennas)
    H_link = root_a * H

    bps = _bits_per_symbol(cfg.modulation)
    n_bits = cfg.users * cfg.symbols_per_trial * bps
    tx_bits = _trial_rng(cfg.seed, trial_index, 3).integers(0, 2, size=n_bits)
    s = modulate(tx_bits, cfg.modulation).reshape(cfg.users, cfg.symbols_per_trial)
    rng_noise = _trial_rng(cfg.seed, trial_index, 2)
    unit_noise = rng_noise.standard_normal(s.shape) + 1j * rng_noise.standard_normal(s.shape)

    metrics: list[TrialMetrics | None] = [None] * len(pairs)
    for (level, idx), H_obs in zip(by_level.items(), observations):
        csi, eta_hat, identifiable = estimate_csi(cfg, level, H_obs)
        mse_csi = mse_noisy = None
        if eta_hat is not None:
            mse_csi = mse(H, csi.matrix)
            mse_noisy = mse(H, H_obs)
        csi_link = csi.scaled(root_a)
        degenerate = not np.any(csi.matrix)
        sigma2s = [10.0 ** (-pairs[i][1] / 10.0) for i in idx]
        pouts = [] if degenerate else [
            precoding.precode(cfg.precoder, csi_link, sigma2, spec=cfg.quantizer)
            for sigma2 in sigma2s
        ]
        # every point's H x in one (S, U, N) receive block, zero when nothing is sent
        if pouts:
            rx = H_link @ precoding.transmit(pouts, s, cfg.quantizer)
        else:
            rx = np.zeros((len(idx), *s.shape), dtype=complex)
        for k, (i, sigma2) in enumerate(zip(idx, sigma2s)):
            # the point's scaled unit noise, then its beta (1 when nothing is sent)
            y = rx[k]
            y += unit_noise * np.sqrt(sigma2 / 2.0)
            y *= pouts[k].beta if pouts else 1.0
            rx_bits = demodulate(y.reshape(-1), cfg.modulation)
            metrics[i] = TrialMetrics(
                trial_index=trial_index,
                bits_sent=n_bits,
                bit_errors=int(np.count_nonzero(rx_bits != tx_bits)),
                mse_csi=mse_csi,
                mse_noisy=mse_noisy,
                eta_hat=eta_hat,
                degenerate_csi=degenerate,
                identifiable=identifiable,
            )
    return tuple(metrics)


def _aggregate(metrics: list[TrialMetrics], cfg: SimConfig) -> Aggregate:
    bits = sum(m.bits_sent for m in metrics)
    errors = sum(m.bit_errors for m in metrics)
    ber = errors / bits if bits else 0.0
    lo, hi = wilson_interval(errors, bits)
    mses = [m.mse_csi for m in metrics if m.mse_csi is not None]
    mses_noisy = [m.mse_noisy for m in metrics if m.mse_noisy is not None]
    etas = [m.eta_hat for m in metrics if m.eta_hat is not None]
    flags = [m.identifiable for m in metrics if m.identifiable is not None]
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
        eta_hat_mean=statistics.fmean(etas) if etas else None,
        eta_hat_std=statistics.pstdev(etas) if etas else None,
        degenerate_csi_trials=sum(m.degenerate_csi for m in metrics),
        identifiable_fraction=float(np.mean(flags)) if flags else None,
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


def monte_carlo(cfg: SimConfig, points: typing.Sequence | None = None) -> tuple[Aggregate, ...]:
    """Run trials until the error budget is met, deterministically; one
    :class:`Aggregate` per ``(eta, snr_db)`` pair of ``points`` in order
    (None means the first configured eta at every configured SNR; anything
    but a sequence of numeric pairs raises TypeError).

    Trials are consumed in fixed chunks of 8 in index order; the thread
    width only parallelizes inside a chunk, so the aggregates are identical
    for any ``threads`` setting.  Each trial index runs once, through
    :func:`downlink_trial`, for every point still short of its budget, so a
    BER curve over SNR or over eta is one call.  A point stops at the first
    chunk boundary where its bit errors >= min_errors or bits >= max_bits,
    or when ``trials`` is exhausted, so each aggregate equals a call with
    that point alone; ``resolved`` records whether the error target was
    met.
    """
    pairs = _pairs(cfg, points)
    metrics: list[list[TrialMetrics]] = [[] for _ in pairs]
    errors = [0] * len(pairs)
    bits = [0] * len(pairs)
    live = list(range(len(pairs)))  # the points still short of their budget
    done = 0
    with trial_map(cfg.threads) as map_trials:
        while done < cfg.trials and live:
            chunk = range(done, min(done + _CHUNK, cfg.trials))
            todo = tuple(pairs[i] for i in live)
            try:
                results = map_trials(lambda t: downlink_trial(cfg, t, todo), chunk)
            except Exception as exc:
                raise MonteCarloError(
                    f"trial in chunk starting at {done} failed: {type(exc).__name__}: {exc}",
                    done,
                ) from exc
            for i, per_trial in zip(live, zip(*results)):
                metrics[i].extend(per_trial)
                errors[i] += sum(m.bit_errors for m in per_trial)
                bits[i] += sum(m.bits_sent for m in per_trial)
            done += len(chunk)
            live = [i for i in live if errors[i] < cfg.min_errors and bits[i] < cfg.max_bits]
    return tuple(_aggregate(m, cfg) for m in metrics)
