"""Modulation, link trials, and the Monte-Carlo engine."""

import statistics
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from eiprecode import linksim
from eiprecode.channel import CorruptionModel, SystemDims
from eiprecode.eta import EstimatorConfig
from eiprecode.experiments import run_experiment
from eiprecode.linksim import Aggregate, MonteCarloError, SimConfig, TrialMetrics

# small, fast system reused across engine tests
_SMALL = dict(users=6, antennas=24, symbols_per_trial=50)


# ---------------------------------------------------------------------------
# modulation


def test_qpsk_exhaustive_map():
    bits = np.array([0, 0, 0, 1, 1, 0, 1, 1])
    s = linksim.modulate(bits, "QPSK")
    root = 1.0 / np.sqrt(2.0)
    want = np.array([root + 1j * root, root - 1j * root, -root + 1j * root, -root - 1j * root])
    assert np.allclose(s, want, atol=1e-15)
    assert np.array_equal(linksim.demodulate(s, "QPSK"), bits)


def test_16qam_energy_and_round_trip():
    blocks = np.array([[b >> 3 & 1, b >> 2 & 1, b >> 1 & 1, b & 1] for b in range(16)])
    bits = blocks.ravel()
    s = linksim.modulate(bits, "16QAM")
    assert s.shape == (16,)
    assert abs(np.mean(np.abs(s) ** 2) - 1.0) < 1e-12
    assert len(np.unique(np.round(s, 12))) == 16
    assert np.array_equal(linksim.demodulate(s, "16QAM"), bits)


def test_16qam_gray_map():
    # per axis, bit pairs 00, 01, 11, 10 sit at -3, -1, +1, +3 over sqrt(10)
    levels = np.array([-3.0, -1.0, 1.0, 3.0]) / np.sqrt(10.0)
    for pair, level in zip(([0, 0], [0, 1], [1, 1], [1, 0]), levels):
        s = linksim.modulate(pair + pair, "16QAM")
        assert s[0] == level + 1j * level
        s = linksim.modulate(pair + [0, 0], "16QAM")
        assert s[0] == level - 3j / np.sqrt(10.0)
    # constellation neighbours one level apart differ in exactly one bit
    blocks = np.array([[b >> 3 & 1, b >> 2 & 1, b >> 1 & 1, b & 1] for b in range(16)])
    s = linksim.modulate(blocks.ravel(), "16QAM")
    step = 2.0 / np.sqrt(10.0)
    neighbours = 0
    for i in range(16):
        for j in range(i + 1, 16):
            if abs(abs(s[i] - s[j]) - step) < 1e-12:
                neighbours += 1
                assert np.sum(blocks[i] != blocks[j]) == 1, (blocks[i], blocks[j])
    assert neighbours == 24


def _reference_modulate(bits, scheme):
    """The arithmetic QPSK map and the 16QAM per-axis tables, written out."""
    if scheme == "QPSK":
        pairs = bits.reshape(-1, 2)
        return ((1.0 - 2.0 * pairs[:, 0]) + 1j * (1.0 - 2.0 * pairs[:, 1])) / np.sqrt(2.0)
    levels = np.array([-3.0, -1.0, 1.0, 3.0]) / np.sqrt(10.0)
    level_of_pair = np.array([0, 1, 3, 2])  # at 2 b_hi + b_lo
    quads = bits.reshape(-1, 2, 2)
    axes = levels[level_of_pair[2 * quads[..., 0] + quads[..., 1]]]
    return axes[:, 0] + 1j * axes[:, 1]


def _reference_demodulate(symbols, scheme):
    """Sign decisions for QPSK, 4-PAM thresholds and a pair table for 16QAM."""
    if scheme == "QPSK":
        return np.stack((symbols.real < 0, symbols.imag < 0), axis=1).astype(int).ravel()
    levels = np.array([-3.0, -1.0, 1.0, 3.0]) / np.sqrt(10.0)
    pair_of_level = np.array([[0, 0], [0, 1], [1, 1], [1, 0]])
    axes = np.stack((symbols.real, symbols.imag), axis=1)
    return pair_of_level[np.digitize(axes, (levels[:-1] + levels[1:]) / 2.0)].ravel()


@pytest.mark.parametrize("scheme, bps", [("QPSK", 2), ("16QAM", 4)])
def test_symbol_maps_match_the_written_out_maps(scheme, bps):
    rng = np.random.default_rng(51)
    bits = rng.integers(0, 2, size=bps * 5000)
    s = linksim.modulate(bits, scheme)
    assert np.array_equal(s, _reference_modulate(bits, scheme))
    assert np.array_equal(linksim.demodulate(s, scheme), bits)
    # noisy symbols, plus zeros, the 16QAM thresholds, NaN and +/-inf on
    # either axis
    edges = [0.0, -0.0, 2.0 / np.sqrt(10.0), -2.0 / np.sqrt(10.0), np.nan, np.inf, -np.inf]
    grid = np.array([complex(x, y) for x in edges for y in edges])
    noisy = s + 0.3 * (rng.standard_normal(s.size) + 1j * rng.standard_normal(s.size))
    for symbols in (grid, noisy):
        got = linksim.demodulate(symbols, scheme)
        assert got.dtype == int
        assert np.array_equal(got, _reference_demodulate(symbols, scheme))


@pytest.mark.parametrize("scheme", ["QPSK", "16QAM"])
def test_demodulate_decides_each_axis_as_digitize(scheme):
    levels, groups = linksim._GRAY_PAM[scheme]
    mids = (levels[:-1] + levels[1:]) / 2.0
    rng = np.random.default_rng(57)
    axes = np.concatenate(
        (
            rng.standard_normal(4000),
            mids,
            np.nextafter(mids, -np.inf),
            np.nextafter(mids, np.inf),
            [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300],
        )
    )
    axes = np.append(axes, axes)  # every value on I once and on Q once
    axes[axes.size // 2 :] = np.roll(axes[axes.size // 2 :], 1)
    want = groups[np.digitize(axes, mids)].ravel()
    assert np.array_equal(linksim.demodulate(axes.view(complex), scheme), want)


def test_unknown_modulation_is_named():
    with pytest.raises(ValueError, match="'qpsk'"):
        linksim.modulate([0, 1], "qpsk")
    with pytest.raises(ValueError, match="'8PSK'"):
        linksim.demodulate(np.ones(2, dtype=complex), "8PSK")


def test_modulate_rejects_ragged_bit_count():
    with pytest.raises(ValueError):
        linksim.modulate([0, 1, 0], "QPSK")
    with pytest.raises(ValueError):
        linksim.modulate([0, 1, 0], "16QAM")


def _qfunc(x):
    """Gaussian tail probability Q(x)."""
    return 0.5 * erfc(np.asarray(x) / np.sqrt(2.0))


def _awgn_qpsk_ber(esn0_db):
    """Closed-form QPSK bit error rate on AWGN, Es/N0 per complex symbol."""
    return float(_qfunc(np.sqrt(10.0 ** (esn0_db / 10.0))))


def test_qfunc_values():
    assert _qfunc(0.0) == 0.5
    assert _qfunc(1.0) == pytest.approx(0.15865525393145707, rel=1e-14)
    arr = _qfunc(np.array([0.0, 10.0]))
    assert arr.shape == (2,)
    assert arr[0] == 0.5
    assert arr[1] < 1e-20
    assert type(_awgn_qpsk_ber(9.8)) is float


def test_awgn_qpsk_ber_reference_point():
    assert 0.00095 < _awgn_qpsk_ber(9.8) < 0.00105


def test_awgn_qpsk_ber_against_monte_carlo():
    esn0_db = 9.8
    rng = np.random.default_rng(41)
    n_sym = 1_000_000
    bits = rng.integers(0, 2, size=2 * n_sym)
    s = linksim.modulate(bits, "QPSK")
    sigma2 = 10.0 ** (-esn0_db / 10.0)
    noise = (rng.standard_normal(n_sym) + 1j * rng.standard_normal(n_sym)) * np.sqrt(sigma2 / 2.0)
    rx = linksim.demodulate(s + noise, "QPSK")
    ber = np.mean(rx != bits)
    ref = _awgn_qpsk_ber(esn0_db)
    assert abs(ber - ref) / ref < 0.05


def test_wilson_interval_basics():
    lo, hi = linksim.wilson_interval(0, 1000)
    assert lo == 0.0
    assert hi > 0.0
    assert linksim.wilson_interval(0, 0) == (0.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 1000), st.integers(1, 1_000_000))
def test_wilson_interval_bounds(errors, bits):
    errors = min(errors, bits)
    lo, hi = linksim.wilson_interval(errors, bits)
    p = errors / bits
    assert 0.0 <= lo <= p <= hi <= 1.0


# ---------------------------------------------------------------------------
# configuration


def test_sim_config_normalizes_case_and_scalars():
    cfg = SimConfig(precoder="wfq", csi="Perfect", modulation="qpsk", eta=0.25, snr_db=5)
    assert cfg.precoder == "WFQ"
    assert cfg.csi == "perfect"
    assert cfg.modulation == "QPSK"
    assert cfg.eta == (0.25,)
    assert cfg.snr_db == (5.0,)
    assert cfg.dims.q == 20 / 128
    assert not hasattr(cfg, "q")  # one copy of the aspect ratio, on SystemDims
    assert cfg.dims.antennas == 128


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(users=128, antennas=128)
    with pytest.raises(ValueError):
        SimConfig(eta=(0.5, 1.0))
    with pytest.raises(ValueError):
        SimConfig(precoder="DPC")
    with pytest.raises(ValueError):
        SimConfig(csi="genie")
    with pytest.raises(ValueError):
        SimConfig(bits=13)
    with pytest.raises(ValueError):
        SimConfig(modulation="8PSK")
    with pytest.raises(ValueError):
        SimConfig(threads=0)
    with pytest.raises(ValueError):
        SimConfig(corruption_mode="fading")
    with pytest.raises(TypeError):
        SimConfig(rie_variant="anchored")  # the cleaning rule has no variants
    with pytest.raises(TypeError):
        SimConfig(p_total=1.0)  # the total transmit power is fixed at 1
    with pytest.raises(ValueError):
        SimConfig(theory_mode="exact")
    for bad in (
        dict(c=0.0),
        dict(c=-1.0),
        dict(estimator_order=5),
        dict(antennas_grid=(32, 20), users=20),
        dict(min_errors=0),
        dict(max_bits=0),
        dict(theory_mode="printed", c=2.0),
        dict(precoder="QCE", bits=None),
    ):
        with pytest.raises(ValueError, match=next(iter(bad))):
            SimConfig(**bad)
    # every field's type comes from its annotation, for Python callers too
    for bad in (
        dict(users=2.5),
        dict(trials=2.5),
        dict(seed=1.5),
        dict(symbols_per_trial=1.5),
        dict(snr_db=float("nan")),
        dict(snr_db=[float("inf")]),
        dict(c=float("inf")),
        dict(threads=True),
        dict(bits=True),
        dict(estimator_order=True),
        dict(eta="0.3"),
        dict(users="20"),
        dict(precoder=3),
    ):
        with pytest.raises(ValueError, match=f"config field '{next(iter(bad))}'"):
            SimConfig(**bad)


@pytest.mark.parametrize("field", ["trials", "symbols_per_trial"])
def test_sim_config_rejects_a_zero_count(field):
    with pytest.raises(ValueError, match="must be >= 1"):
        SimConfig(**{field: 0})


def test_sim_config_casts_values_to_the_annotated_types():
    cfg = SimConfig(bits=4.0)
    assert cfg.bits == 4 and type(cfg.bits) is int
    assert SimConfig(bits="Bypass", precoder="WF").bits is None
    cfg = SimConfig(
        users=np.int64(8), antennas=np.int32(32), eta=np.array([0.1, 0.2]),
        snr_db=np.float64(3.0), c=np.float32(2.0), seed=np.uint64(5),
        antennas_grid=np.array([16, 64]), precoder=np.str_("wf"),
    )
    assert cfg.eta == (0.1, 0.2) and cfg.snr_db == (3.0,) and cfg.c == 2.0
    assert cfg.antennas_grid == (16, 64) and cfg.precoder == "WF"
    for key in ("users", "antennas", "seed"):
        assert type(getattr(cfg, key)) is int
    assert all(type(v) is float for v in cfg.eta + cfg.snr_db + (cfg.c,))
    assert all(type(v) is int for v in cfg.antennas_grid)


def test_sim_config_keeps_the_stage_objects():
    cfg = SimConfig(users=8, antennas=32, eta=(0.2, 0.4), corruption_mode="damped",
                    c=2.0, bits=3, estimator_order=2, antennas_grid=(16, 64))
    assert cfg.dims == SystemDims(8, 32)
    assert cfg.grid_dims == (SystemDims(8, 16), SystemDims(8, 64))
    assert cfg.estimator == EstimatorConfig(
        order=2, mode="gaussian_equivalent", c=2.0, data_mode="damped"
    )
    assert cfg.quantizer.bits == 3 and cfg.quantizer.is_auto
    assert cfg.corruption(0.4) == CorruptionModel(0.4, "damped", 2.0)
    assert SimConfig(bits=None).quantizer is None
    assert SimConfig().grid_dims is None


def test_trial_metrics_rejects_impossible_counts():
    with pytest.raises(ValueError):
        TrialMetrics(
            trial_index=0,
            bits_sent=10,
            bit_errors=11,
            mse_csi=None,
            mse_noisy=None,
            eta_hat=None,
        )


# ---------------------------------------------------------------------------
# single trials


def test_downlink_trial_is_deterministic():
    cfg = SimConfig(**_SMALL, precoder="WFQ", csi="ei_cleaned_known_eta", bits=3,
                    eta=0.3, snr_db=8.0, seed=21)
    a = linksim.downlink_trial(cfg, 5)
    b = linksim.downlink_trial(cfg, 5)
    assert a == b
    c = linksim.downlink_trial(cfg, 6)
    assert c != a


def test_downlink_trial_zero_eta_csi_modes_coincide():
    base = SimConfig(**_SMALL, precoder="WF", bits=None, eta=0.0, snr_db=6.0, seed=77)
    perfect = linksim.downlink_trial(replace(base, csi="perfect"), 3)
    raw = linksim.downlink_trial(replace(base, csi="noisy_raw"), 3)
    assert perfect == raw


def test_downlink_trial_known_eta_reports_zero_delta():
    cfg = SimConfig(**_SMALL, precoder="WFQ", csi="ei_cleaned_known_eta", bits=3,
                    eta=0.3, snr_db=8.0, seed=21)
    m = linksim.downlink_trial(cfg, 0)[0]
    assert m.eta_hat == 0.3
    assert m.mse_csi is not None and m.mse_noisy is not None
    raw = linksim.downlink_trial(replace(cfg, csi="noisy_raw"), 0)[0]
    assert raw.mse_csi is None
    assert raw.bits_sent == m.bits_sent
    assert raw.trial_index == m.trial_index


def test_downlink_trial_blind_estimates_eta():
    cfg = SimConfig(users=20, antennas=128, symbols_per_trial=20, precoder="WFQ",
                    csi="ei_cleaned", bits=4, eta=0.3, snr_db=8.0, seed=22)
    m = linksim.downlink_trial(cfg, 0)[0]
    assert m.eta_hat is not None
    assert abs(0.3 - m.eta_hat) < 0.15


def test_blind_cleaned_trial_decomposes_once_and_demodulates_once(count_calls):
    # the estimator and the cleaner share the trial's one decomposition, of
    # whatever kind, and the errors are counted against the sent bits
    cfg = SimConfig(users=20, antennas=128, symbols_per_trial=20, precoder="WFQ",
                    csi="ei_cleaned", bits=4, eta=0.3, snr_db=8.0, seed=22)
    decompositions = count_calls(np.linalg, "svd", "eigh", "eigvalsh")
    demodulations = count_calls(linksim, "demodulate")
    linksim.downlink_trial(cfg, 0)
    assert sum(decompositions.values()) == 1, decompositions
    assert demodulations == {"demodulate": 1}


_CSI_MODES = ("perfect", "noisy_raw", "ei_cleaned", "ei_cleaned_known_eta")
_SWEEP = (-4.0, 2.0, 8.0)


@pytest.mark.parametrize("csi", _CSI_MODES)
def test_every_csi_mode_decomposes_once_per_trial_index(csi, count_calls):
    # one Gram eigendecomposition serves eta-hat, the cleaner and all three
    # SNR points' precoders, whatever the CSI mode
    cfg = SimConfig(users=20, antennas=128, symbols_per_trial=20, precoder="WFQ",
                    csi=csi, bits=4, eta=0.3, seed=22)
    decompositions = count_calls(np.linalg, "svd", "eigh", "eigvalsh")
    precodes = count_calls(linksim.precoding, "precode")
    linksim.downlink_trial(cfg, 0, snr_db=_SWEEP)
    assert sum(decompositions.values()) == 1, decompositions
    assert precodes == {"precode": 3}


@pytest.mark.parametrize("csi", _CSI_MODES)
def test_downlink_trial_snr_tuple_equals_the_scalar_calls(csi):
    cfg = SimConfig(**_SMALL, precoder="WFQ", bits=3, csi=csi, eta=0.3, seed=21)
    for t in (0, 5):
        sweep = linksim.downlink_trial(cfg, t, snr_db=_SWEEP)
        assert sweep == tuple(linksim.downlink_trial(cfg, t, snr_db=(s,))[0] for s in _SWEEP)
    # a zero CSI transmits nothing at every SNR (trial 2 of the zero-CSI test below)
    zero = SimConfig(users=2, antennas=64, symbols_per_trial=50, precoder="MRT",
                     csi="ei_cleaned_known_eta", eta=0.99, seed=34)
    sweep = linksim.downlink_trial(zero, 2, snr_db=_SWEEP)
    assert all(m.degenerate_csi for m in sweep)
    assert sweep == tuple(linksim.downlink_trial(zero, 2, snr_db=(s,))[0] for s in _SWEEP)


def test_blind_cleaned_snr_sweep_draws_and_cleans_once_per_trial(count_calls):
    # one trial index serves all three SNR points: the draws, eta-hat and the
    # cleaner's one decomposition run once per trial, and only the precoder
    # once per point
    cfg = SimConfig(users=20, antennas=128, symbols_per_trial=20, precoder="WFQ",
                    csi="ei_cleaned", bits=4, eta=0.3, snr_db=(0.0, 4.0, 8.0), seed=22,
                    trials=5, min_errors=10**9, max_bits=10**9)
    stages = count_calls(linksim, "draw_observation", "estimate_eta", "clean_channel")
    decompositions = count_calls(np.linalg, "svd", "eigh", "eigvalsh")
    precodes = count_calls(linksim.precoding, "precode")
    result = run_experiment("ber_vs_snr", cfg)
    assert [row[7] for row in result.rows] == [5, 5, 5]
    assert stages == {"draw_observation": 5, "estimate_eta": 5, "clean_channel": 5}
    assert sum(decompositions.values()) == 5, decompositions
    assert precodes == {"precode": 15}


def test_downlink_trial_zero_csi_transmits_nothing(monkeypatch):
    # cleaning at eta 0.99 shrinks trial 2's 2 x 64 observation to the zero
    # matrix, and keeps trial 0's
    cfg = SimConfig(users=2, antennas=64, symbols_per_trial=50, precoder="MRT",
                    csi="ei_cleaned_known_eta", eta=0.99, snr_db=10.0, seed=34, trials=8)
    calls = []
    transmit = linksim.precoding.transmit
    monkeypatch.setattr(
        linksim.precoding, "transmit", lambda *a, **k: calls.append(a) or transmit(*a, **k)
    )
    m = linksim.downlink_trial(cfg, 2)[0]
    assert m.degenerate_csi and not calls
    assert 0 < m.bit_errors < m.bits_sent
    assert not linksim.downlink_trial(cfg, 0)[0].degenerate_csi
    assert len(calls) == 1
    assert linksim.monte_carlo(cfg)[0].degenerate_csi_trials >= 1


def test_zf_on_rank_deficient_cleaned_csi_sends_nothing_on_null_directions():
    # at eta 0.8 the known-eta cleaner zeroes some of a trial's singular
    # values, so ZF's Gram is singular; ZF is then the normalized
    # pseudo-inverse, and the run goes on instead of failing
    cfg = SimConfig(precoder="ZF", csi="ei_cleaned_known_eta", eta=0.8,
                    snr_db=10.0, trials=16, seed=7)
    null = 0
    for t in range(cfg.trials):
        H, (H_obs,) = linksim.draw_observation(cfg, cfg.dims, (0.8,), t)
        null += np.count_nonzero(linksim.estimate_csi(cfg, 0.8, H, H_obs)[0].values == 0.0)
    assert null > 0
    agg = linksim.monte_carlo(cfg)[0]
    assert agg.degenerate_csi_trials == 0
    assert 0.0 < agg.ber < 0.5


@pytest.mark.parametrize("shapes", ["same", "other"])
def test_concurrent_trials_equal_their_serial_runs(shapes):
    # four threads on two cores run trials of two configs at once, with the
    # same or other block shapes and a short switch interval: each result
    # equals the serial one, so no state is shared between live trials
    a = SimConfig(**_SMALL, precoder="WFQ", csi="noisy_raw", bits=3, eta=0.3, seed=41)
    if shapes == "same":
        b = replace(a, precoder="MRT", csi="perfect", seed=43)
    else:
        b = SimConfig(users=4, antennas=40, symbols_per_trial=30, precoder="QCE", bits=2,
                      csi="perfect", seed=42)
    cfgs = (a, b, a, b)
    trials = range(12)
    serial = [[linksim.downlink_trial(cfg, t, snr_db=_SWEEP) for t in trials] for cfg in cfgs]
    start = threading.Barrier(len(cfgs))

    def run(cfg):
        start.wait(timeout=30)
        return [linksim.downlink_trial(cfg, t, snr_db=_SWEEP) for t in trials]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(cfgs)) as pool:
            assert list(pool.map(run, cfgs, timeout=60)) == serial
    finally:
        sys.setswitchinterval(interval)


def test_downlink_trial_eta_and_snr_overrides():
    cfg = SimConfig(**_SMALL, precoder="WF", bits=None, csi="perfect",
                    eta=0.3, snr_db=0.0, seed=23)
    lo, hi = linksim.downlink_trial(cfg, 1, snr_db=(-5.0, 20.0))
    assert lo.bit_errors > hi.bit_errors


# ---------------------------------------------------------------------------
# Monte-Carlo engine


def test_monte_carlo_thread_width_does_not_change_results():
    cfg = SimConfig(**_SMALL, precoder="WFQ", csi="ei_cleaned_known_eta", bits=3,
                    eta=0.3, snr_db=8.0, seed=21, trials=16)
    one = linksim.monte_carlo(cfg)
    four = linksim.monte_carlo(replace(cfg, threads=4))
    assert one == four
    again = linksim.monte_carlo(cfg)
    assert one == again


def test_monte_carlo_opens_one_pool_per_call(monkeypatch):
    opened = []

    class CountingPool(linksim.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(linksim, "ThreadPoolExecutor", CountingPool)
    cfg = SimConfig(**_SMALL, precoder="WF", bits=None, csi="perfect", eta=0.0,
                    snr_db=10.0, seed=22, trials=20, threads=2,
                    min_errors=10**9, max_bits=10**9)
    agg = linksim.monte_carlo(cfg)[0]
    assert agg.trials_run == 20  # three chunks
    assert len(opened) == 1
    assert agg == linksim.monte_carlo(replace(cfg, threads=1))[0]
    # the experiment families that map trials themselves open one pool per
    # run too, not one per eta or per (eta, antennas) cell
    fam = SimConfig(users=4, antennas=32, antennas_grid=(16, 32), eta=(0.2, 0.5),
                    csi="ei_cleaned_known_eta", seed=22, trials=3, threads=2)
    for kind in ("eta_cdf", "mse_vs_antennas"):
        opened.clear()
        result = run_experiment(kind, fam)
        assert len(opened) == 1, kind
        assert result.rows == run_experiment(kind, replace(fam, threads=1)).rows


def test_monte_carlo_perfect_csi_link_is_clean():
    cfg = SimConfig(users=30, antennas=256, symbols_per_trial=50, precoder="WF",
                    bits=None, csi="perfect", eta=0.0, snr_db=10.0, seed=77,
                    trials=10, min_errors=10**9, max_bits=10**9)
    agg = linksim.monte_carlo(cfg)[0]
    assert agg.bits == 10 * 30 * 50 * 2
    assert agg.ber < 1e-4
    assert not agg.resolved


def test_monte_carlo_stops_at_chunk_after_min_errors():
    cfg = SimConfig(**_SMALL, precoder="WF", bits=None, csi="noisy_raw",
                    eta=0.3, snr_db=0.0, seed=31, trials=64, min_errors=1)
    agg = linksim.monte_carlo(cfg)[0]
    assert agg.trials_run == 8
    assert agg.resolved
    assert agg.errors >= 1


def test_monte_carlo_stops_on_bit_budget():
    cfg = SimConfig(**_SMALL, precoder="WF", bits=None, csi="perfect",
                    eta=0.0, snr_db=30.0, seed=32, trials=64,
                    min_errors=10**9, max_bits=2000)
    agg = linksim.monte_carlo(cfg)[0]
    assert agg.trials_run == 8
    assert agg.bits >= 2000
    assert not agg.resolved


def test_monte_carlo_exhausts_short_trial_lists():
    cfg = SimConfig(**_SMALL, precoder="WF", bits=None, csi="perfect",
                    eta=0.0, snr_db=10.0, seed=33, trials=3,
                    min_errors=10**9, max_bits=10**9)
    agg = linksim.monte_carlo(cfg)[0]
    assert agg.trials_run == 3


def test_monte_carlo_wraps_trial_failures(monkeypatch):
    # a failing precoder must surface as an engine error that names the
    # failing chunk and the trial's own error
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(linksim.precoding, "precode", singular)
    cfg = SimConfig(**_SMALL, precoder="ZF", csi="perfect", snr_db=10.0, seed=34, trials=8)
    with pytest.raises(MonteCarloError) as info:
        linksim.monte_carlo(cfg)
    assert info.value.trial_index == 0
    assert "LinAlgError: Singular matrix" in str(info.value)


def test_monte_carlo_wraps_trial_failures_in_an_snr_sweep(monkeypatch):
    # the second chunk fails: the error names its start
    trial = linksim.downlink_trial

    def fail_from_8(cfg, t, *args):
        if t >= 8:
            raise np.linalg.LinAlgError("Singular matrix")
        return trial(cfg, t, *args)

    monkeypatch.setattr(linksim, "downlink_trial", fail_from_8)
    cfg = SimConfig(**_SMALL, precoder="WF", bits=None, csi="noisy_raw", seed=34,
                    trials=16, min_errors=10**9, max_bits=10**9)
    with pytest.raises(MonteCarloError) as info:
        linksim.monte_carlo(cfg, snr_db=(0.0, 10.0))
    assert info.value.trial_index == 8


@pytest.mark.parametrize("threads", [1, 2, 4])
@pytest.mark.parametrize("csi", _CSI_MODES)
def test_monte_carlo_snr_tuple_equals_the_per_snr_calls(csi, threads):
    # min_errors 400 stops the three points at different chunks, so a point
    # that has met its budget must drop out while the others run on
    cfg = SimConfig(**_SMALL, precoder="WFQ", bits=3, csi=csi, eta=0.3, seed=21,
                    trials=64, min_errors=400, threads=threads)
    sweep = linksim.monte_carlo(cfg, snr_db=_SWEEP)
    assert sweep == tuple(linksim.monte_carlo(cfg, snr_db=(s,))[0] for s in _SWEEP)
    assert len({a.trials_run for a in sweep}) == 3


def test_default_snr_is_every_configured_snr():
    # None means the config's whole SNR tuple, at its first eta
    cfg = SimConfig(**_SMALL, precoder="WFQ", bits=3, csi="ei_cleaned", eta=(0.3, 0.5),
                    snr_db=_SWEEP, seed=21, trials=16, min_errors=400)
    assert linksim.downlink_trial(cfg, 3) == linksim.downlink_trial(cfg, 3, eta=0.3, snr_db=_SWEEP)
    default = linksim.monte_carlo(cfg)
    assert len(default) == 3
    assert all(isinstance(a, Aggregate) for a in default)
    assert default == linksim.monte_carlo(cfg, eta=cfg.eta[0], snr_db=cfg.snr_db)


def test_monte_carlo_reports_each_points_eta_hat_statistics():
    # min_errors 400 stops the three points after different trial counts;
    # each point's mean and population spread are over its own trials'
    # eta-hats, and nothing is estimated under perfect or raw CSI
    cfg = SimConfig(**_SMALL, precoder="WFQ", bits=3, csi="ei_cleaned", eta=0.3, seed=21,
                    trials=64, min_errors=400)
    sweep = linksim.monte_carlo(cfg, snr_db=_SWEEP)
    assert len({a.trials_run for a in sweep}) == 3
    for agg in sweep:
        etas = [linksim.downlink_trial(cfg, t, snr_db=(0.0,))[0].eta_hat
                for t in range(agg.trials_run)]
        assert agg.eta_hat_mean == statistics.fmean(etas)
        assert agg.eta_hat_std == statistics.pstdev(etas) > 0
    for csi in ("perfect", "noisy_raw"):
        for agg in linksim.monte_carlo(replace(cfg, csi=csi), snr_db=_SWEEP):
            assert agg.eta_hat_mean is None and agg.eta_hat_std is None


def test_a_scalar_snr_is_a_type_error(count_calls):
    # the SNRs are always a tuple; a bare number fails by name before the
    # trial draws anything
    cfg = SimConfig(**_SMALL, precoder="WF", bits=None, csi="perfect", seed=21, trials=8)
    draws = count_calls(linksim, "draw_observation")
    with pytest.raises(TypeError, match="snr_db"):
        linksim.downlink_trial(cfg, 0, snr_db=10.0)
    with pytest.raises(TypeError, match="snr_db"):
        linksim.monte_carlo(cfg, snr_db=10.0)
    assert draws == {"draw_observation": 0}


def test_monte_carlo_interval_shrinks_with_budget():
    cfg = SimConfig(**_SMALL, precoder="WF", bits=None, csi="noisy_raw",
                    eta=0.3, snr_db=2.0, seed=35, min_errors=10**9, max_bits=10**9)
    widths = []
    for trials in (8, 32, 128):
        agg = linksim.monte_carlo(replace(cfg, trials=trials))[0]
        widths.append(agg.ber_hi - agg.ber_lo)
    for a, b in zip(widths, widths[1:]):
        assert 1.6 < a / b < 2.5, widths


def test_monte_carlo_ber_decreases_with_snr_for_reference_csi_modes():
    base = SimConfig(users=20, antennas=128, symbols_per_trial=25, precoder="WFQ",
                     bits=4, eta=0.3, seed=36, trials=10**6,
                     min_errors=100, max_bits=200_000)
    for csi in ("perfect", "noisy_raw"):
        curve = linksim.monte_carlo(replace(base, csi=csi), snr_db=(-2.0, 6.0, 14.0))
        assert curve[0].ber >= curve[-1].ber, csi
        for lo_pt, hi_pt in zip(curve, curve[1:]):
            # no increase beyond confidence-interval overlap
            assert lo_pt.ber_hi >= hi_pt.ber_lo, csi


def test_monte_carlo_ber_decreases_with_snr_for_cleaned_csi():
    base = SimConfig(users=20, antennas=128, symbols_per_trial=25, precoder="WFQ",
                     bits=4, eta=0.3, seed=36, trials=10**6,
                     min_errors=100, max_bits=200_000, csi="ei_cleaned_known_eta")
    curve = linksim.monte_carlo(base, snr_db=(-2.0, 6.0, 14.0))
    for lo_pt, hi_pt in zip(curve, curve[1:]):
        assert lo_pt.ber_hi >= hi_pt.ber_lo


def test_monte_carlo_cleaned_csi_beats_raw_at_mid_eta():
    base = SimConfig(users=20, antennas=128, symbols_per_trial=25, precoder="WFQ",
                     bits=4, eta=0.3, seed=37, trials=10**6,
                     min_errors=100, max_bits=200_000, snr_db=5.0)
    ei = linksim.monte_carlo(replace(base, csi="ei_cleaned"))[0]
    raw = linksim.monte_carlo(replace(base, csi="noisy_raw"))[0]
    assert ei.ber <= raw.ber, (ei.ber, raw.ber)
