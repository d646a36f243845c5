"""Modulation, link trials, and the Monte-Carlo engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_modulate_rejects_ragged_bit_count():
    with pytest.raises(ValueError):
        linksim.modulate([0, 1, 0], "QPSK")
    with pytest.raises(ValueError):
        linksim.modulate([0, 1, 0], "16QAM")


def test_qfunc_values():
    assert linksim.qfunc(0.0) == 0.5
    assert linksim.qfunc(1.0) == pytest.approx(0.15865525393145707, rel=1e-14)
    arr = linksim.qfunc(np.array([0.0, 10.0]))
    assert arr.shape == (2,)
    assert arr[0] == 0.5
    assert arr[1] < 1e-20
    assert type(linksim.awgn_qpsk_ber(9.8)) is float


def test_awgn_qpsk_ber_reference_point():
    assert 0.00095 < linksim.awgn_qpsk_ber(9.8) < 0.00105


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
    ref = linksim.awgn_qpsk_ber(esn0_db)
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
    assert cfg.q == 20 / 128
    assert cfg.dims.antennas == 128
    assert cfg.at(users=10).users == 10


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
    with pytest.raises(ValueError):
        SimConfig(theory_mode="exact")
    for bad in (
        dict(c=0.0),
        dict(c=-1.0),
        dict(estimator_order=5),
        dict(antennas_grid=(32, 20), users=20),
        dict(p_total=0.0),
        dict(p_total=-1.0),
        dict(p_total=float("nan")),
        dict(p_total=float("inf")),
        dict(min_errors=0),
        dict(max_bits=0),
        dict(theory_mode="printed", c=2.0),
        dict(precoder="QCE", bits=None),
    ):
        with pytest.raises(ValueError, match=next(iter(bad))):
            SimConfig(**bad)


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
            delta_eta=None,
            eta_hat=None,
            seed_key=(1, 0),
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
    perfect = linksim.downlink_trial(base.at(csi="perfect"), 3)
    raw = linksim.downlink_trial(base.at(csi="noisy_raw"), 3)
    assert perfect == raw


def test_downlink_trial_known_eta_reports_zero_delta():
    cfg = SimConfig(**_SMALL, precoder="WFQ", csi="ei_cleaned_known_eta", bits=3,
                    eta=0.3, snr_db=8.0, seed=21)
    m = linksim.downlink_trial(cfg, 0)
    assert m.delta_eta == 0.0
    assert m.eta_hat == 0.3
    assert m.mse_csi is not None and m.mse_noisy is not None
    raw = linksim.downlink_trial(cfg.at(csi="noisy_raw"), 0)
    assert raw.mse_csi is None
    assert raw.bits_sent == m.bits_sent
    assert raw.seed_key == m.seed_key


def test_downlink_trial_blind_estimates_eta():
    cfg = SimConfig(users=20, antennas=128, symbols_per_trial=20, precoder="WFQ",
                    csi="ei_cleaned", bits=4, eta=0.3, snr_db=8.0, seed=22)
    m = linksim.downlink_trial(cfg, 0)
    assert m.eta_hat is not None
    assert m.delta_eta == abs(0.3 - m.eta_hat)
    assert m.delta_eta < 0.15


def test_downlink_trial_eta_and_snr_overrides():
    cfg = SimConfig(**_SMALL, precoder="WF", bits=None, csi="perfect",
                    eta=0.3, snr_db=0.0, seed=23)
    lo = linksim.downlink_trial(cfg, 1, snr_db=-5.0)
    hi = linksim.downlink_trial(cfg, 1, snr_db=20.0)
    assert lo.bit_errors > hi.bit_errors


# ---------------------------------------------------------------------------
# Monte-Carlo engine


def test_monte_carlo_thread_width_does_not_change_results():
    cfg = SimConfig(**_SMALL, precoder="WFQ", csi="ei_cleaned_known_eta", bits=3,
                    eta=0.3, snr_db=8.0, seed=21, trials=16)
    one = linksim.monte_carlo(cfg)
    four = linksim.monte_carlo(cfg.at(threads=4))
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
    agg = linksim.monte_carlo(cfg)
    assert agg.trials_run == 20  # three chunks
    assert len(opened) == 1
    assert agg == linksim.monte_carlo(cfg.at(threads=1))
    # the experiment families that map trials themselves open one pool per
    # run too, not one per eta or per (eta, antennas) cell
    fam = SimConfig(users=4, antennas=32, antennas_grid=(16, 32), eta=(0.2, 0.5),
                    csi="ei_cleaned_known_eta", seed=22, trials=3, threads=2)
    for kind in ("eta_cdf", "mse_vs_antennas"):
        opened.clear()
        result = run_experiment(kind, fam)
        assert len(opened) == 1, kind
        assert result.rows == run_experiment(kind, fam.at(threads=1)).rows


def test_monte_carlo_perfect_csi_link_is_clean():
    cfg = SimConfig(users=30, antennas=256, symbols_per_trial=50, precoder="WF",
                    bits=None, csi="perfect", eta=0.0, snr_db=10.0, seed=77,
                    trials=10, min_errors=10**9, max_bits=10**9)
    agg = linksim.monte_carlo(cfg)
    assert agg.bits == 10 * 30 * 50 * 2
    assert agg.ber < 1e-4
    assert not agg.resolved


def test_monte_carlo_stops_at_chunk_after_min_errors():
    cfg = SimConfig(**_SMALL, precoder="WF", bits=None, csi="noisy_raw",
                    eta=0.3, snr_db=0.0, seed=31, trials=64, min_errors=1)
    agg = linksim.monte_carlo(cfg)
    assert agg.trials_run == 8
    assert agg.resolved
    assert agg.errors >= 1


def test_monte_carlo_stops_on_bit_budget():
    cfg = SimConfig(**_SMALL, precoder="WF", bits=None, csi="perfect",
                    eta=0.0, snr_db=30.0, seed=32, trials=64,
                    min_errors=10**9, max_bits=2000)
    agg = linksim.monte_carlo(cfg)
    assert agg.trials_run == 8
    assert agg.bits >= 2000
    assert not agg.resolved


def test_monte_carlo_exhausts_short_trial_lists():
    cfg = SimConfig(**_SMALL, precoder="WF", bits=None, csi="perfect",
                    eta=0.0, snr_db=10.0, seed=33, trials=3,
                    min_errors=10**9, max_bits=10**9)
    agg = linksim.monte_carlo(cfg)
    assert agg.trials_run == 3


def test_monte_carlo_wraps_trial_failures():
    # cleaning at eta 0.99 shrinks a 2 x 64 observation to the zero matrix,
    # which MRT cannot scale to P_total; the failure must surface as an
    # engine error with the partial aggregate attached
    cfg = SimConfig(users=2, antennas=64, symbols_per_trial=50, precoder="MRT",
                    csi="ei_cleaned_known_eta", eta=0.99, snr_db=10.0, seed=34, trials=8)
    with pytest.raises(MonteCarloError) as info:
        linksim.monte_carlo(cfg)
    assert info.value.trial_index == 0
    assert isinstance(info.value.partial, Aggregate)
    assert info.value.partial.bits == 0


def test_monte_carlo_interval_shrinks_with_budget():
    cfg = SimConfig(**_SMALL, precoder="WF", bits=None, csi="noisy_raw",
                    eta=0.3, snr_db=2.0, seed=35, min_errors=10**9, max_bits=10**9)
    widths = []
    for trials in (8, 32, 128):
        agg = linksim.monte_carlo(cfg.at(trials=trials))
        widths.append(agg.ber_hi - agg.ber_lo)
    for a, b in zip(widths, widths[1:]):
        assert 1.6 < a / b < 2.5, widths


def test_monte_carlo_ber_decreases_with_snr_for_reference_csi_modes():
    base = SimConfig(users=20, antennas=128, symbols_per_trial=25, precoder="WFQ",
                     bits=4, eta=0.3, seed=36, trials=10**6,
                     min_errors=100, max_bits=200_000)
    for csi in ("perfect", "noisy_raw"):
        curve = [linksim.monte_carlo(base.at(csi=csi), snr_db=s) for s in (-2.0, 6.0, 14.0)]
        assert curve[0].ber >= curve[-1].ber, csi
        for lo_pt, hi_pt in zip(curve, curve[1:]):
            # no increase beyond confidence-interval overlap
            assert lo_pt.ber_hi >= hi_pt.ber_lo, csi


def test_monte_carlo_ber_decreases_with_snr_for_cleaned_csi():
    base = SimConfig(users=20, antennas=128, symbols_per_trial=25, precoder="WFQ",
                     bits=4, eta=0.3, seed=36, trials=10**6,
                     min_errors=100, max_bits=200_000, csi="ei_cleaned_known_eta")
    curve = [linksim.monte_carlo(base, snr_db=s) for s in (-2.0, 6.0, 14.0)]
    for lo_pt, hi_pt in zip(curve, curve[1:]):
        assert lo_pt.ber_hi >= hi_pt.ber_lo


def test_monte_carlo_cleaned_csi_beats_raw_at_mid_eta():
    base = SimConfig(users=20, antennas=128, symbols_per_trial=25, precoder="WFQ",
                     bits=4, eta=0.3, seed=37, trials=10**6,
                     min_errors=100, max_bits=200_000, snr_db=5.0)
    ei = linksim.monte_carlo(base.at(csi="ei_cleaned"))
    raw = linksim.monte_carlo(base.at(csi="noisy_raw"))
    assert ei.ber <= raw.ber, (ei.ber, raw.ber)
