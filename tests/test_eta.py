"""Blind CSI-error-level estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eiprecode import channel, eta
from eiprecode.eta import EstimatorConfig


def _draw(u, a, level, seed_h, seed_e, mode="additive", c=1.0):
    h = channel.gen_channel(channel.SystemDims(u, a), np.random.default_rng(seed_h))
    return channel.corrupt(
        h, channel.CorruptionModel(level, mode=mode, c=c), np.random.default_rng(seed_e)
    )


# ---------------------------------------------------------------------------
# moments


def test_empirical_moments_diagonal_example():
    h = np.zeros((2, 4), dtype=complex)
    h[0, 0] = 1.0
    h[1, 1] = 2.0
    m = eta.empirical_moments(h)
    assert np.allclose(m, (2.5, 8.5, 32.5), atol=1e-12)


def test_empirical_moments_zero_matrix():
    m = eta.empirical_moments(np.zeros((3, 6), dtype=complex))
    assert np.allclose(m, (0.0, 0.0, 0.0))


def test_empirical_moments_rejects_non_matrix():
    with pytest.raises(ValueError):
        eta.empirical_moments(np.zeros(5, dtype=complex))


def test_empirical_moments_match_mp_pattern():
    h = _draw(128, 512, 0.0, 61, 62)
    q = 0.25
    m = eta.empirical_moments(h)
    target = np.array([1.0, 1.0 + q, 1.0 + 3.0 * q + q * q])
    assert np.all(np.abs(m - target) / target < 0.05)


# ---------------------------------------------------------------------------
# config and policy


def test_estimator_config_validation():
    EstimatorConfig()
    EstimatorConfig(order=2, mode="printed", data_mode="damped")
    # the printed curves are drawn for c = 1 only
    with pytest.raises(ValueError, match="printed"):
        EstimatorConfig(mode="printed", c=2.0)
    with pytest.raises(ValueError):
        EstimatorConfig(order=4)
    with pytest.raises(ValueError):
        EstimatorConfig(mode="exactish")
    with pytest.raises(ValueError):
        EstimatorConfig(data_mode="mixed")
    for c in (0.0, -1.0):
        with pytest.raises(ValueError, match="c must be positive"):
            EstimatorConfig(c=c)


def test_default_order_size_policy():
    assert eta.default_order(99, 101) == 1
    assert eta.default_order(100, 100) == 3
    assert eta.default_order(30, 256) == 1
    assert eta.default_order(30, 512) == 3


# ---------------------------------------------------------------------------
# estimator behaviour


def test_estimate_eta_closed_form_first_cumulant():
    # gram spectrum exactly {2, 2}: kappa1 = 2 maps to eta = 1/2
    h = np.zeros((2, 8), dtype=complex)
    h[0, 0] = np.sqrt(2.0)
    h[1, 1] = np.sqrt(2.0)
    est = eta.estimate_eta(h, 0.25, EstimatorConfig(order=1))
    assert abs(est.eta_hat - 0.5) < 1e-4
    assert abs(est.alpha_hat - 1.0) < 1e-3
    assert est.order == 1
    assert est.identifiable
    assert len(est.kappa_hat) == 3


def _published_cumulants(eta_grid, q, mode, c):
    # both theory families as published, vectorized over eta; test_rmt.py
    # checks that rmt.noisy_gram_cumulants_theory reproduces them
    e = np.asarray(eta_grid, dtype=float)[:, None]
    if mode == "gaussian_equivalent":
        s = 1.0 + c * e / (1.0 - e)
        return np.hstack([s, q * s ** 2, q ** 2 * s ** 3])
    d = 1.0 - e
    return np.hstack([
        1.0 / d,
        (2.0 * d * e * (1.0 - q) + q) / d ** 2,
        q * (3.0 * d * e * (1.0 - q) + q) / d ** 3,
    ])


_DENSE_ETA = np.linspace(1e-6, 0.999, 20_001)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    level=st.floats(0.0, 0.9),
    c=st.floats(0.25, 4.0),
    dims=st.sampled_from(((4, 16), (16, 64), (20, 128))),
    mode=st.sampled_from(("gaussian_equivalent", "printed")),
)
def test_estimate_eta_closed_form_reaches_the_dense_grid_minimum(
    seed, level, c, dims, mode
):
    u, a = dims
    q = u / a
    if mode == "printed":
        c = 1.0  # the printed curves are drawn for c = 1 only
    rng = np.random.default_rng(seed)
    h = channel.gen_channel(channel.SystemDims(u, a), rng)
    y = channel.corrupt(h, channel.CorruptionModel(level, mode="additive", c=c), rng)
    dense = _published_cumulants(_DENSE_ETA, q, mode, c)
    for order in (1, 2, 3):
        est = eta.estimate_eta(y, q, EstimatorConfig(order=order, mode=mode, c=c))
        resid = np.array(est.kappa_hat)[:order] - dense[:, :order]
        grid_min = np.min(np.sum(resid ** 2, axis=1))
        assert 1e-6 <= est.eta_hat <= 0.999
        # relative slack: a misfit objective of 1e4 is only known to ~4e-12
        assert est.objective_value <= grid_min + 1e-12 * (1.0 + grid_min), (
            order,
            est.eta_hat,
        )


@pytest.mark.parametrize("mode", ["gaussian_equivalent", "printed"])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_estimate_eta_clamps_to_the_range_ends(mode, order):
    cfg = EstimatorConfig(order=order, mode=mode)
    h = channel.gen_channel(channel.SystemDims(20, 128), np.random.default_rng(5))
    # kappa_1 near 1/4 < 1: every admissible eta over-predicts each cumulant
    assert eta.estimate_eta(0.5 * h, 20 / 128, cfg).eta_hat == 1e-6
    # kappa_1 near 1e4, far above s(0.999) = 1000: every eta under-predicts
    assert eta.estimate_eta(100.0 * h, 20 / 128, cfg).eta_hat == 0.999


def test_estimate_eta_rejects_zero_observation():
    with pytest.raises(ValueError):
        eta.estimate_eta(np.zeros((4, 8), dtype=complex), 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_estimate_eta_rejects_non_finite_observation(bad):
    y = _draw(4, 8, 0.3, 90, 91)
    y[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        eta.estimate_eta(y, 0.5)


def test_estimate_eta_stays_in_range():
    for d in range(5):
        y = _draw(16, 64, 0.7, 300 + d, 400 + d)
        est = eta.estimate_eta(y, 0.25, EstimatorConfig(order=3))
        assert 0.0 <= est.eta_hat < 1.0
        assert est.objective_value >= 0.0


def test_estimate_eta_clean_channel_reads_near_zero():
    hits = 0
    for d in range(100):
        h = _draw(30, 256, 0.0, 10_000 + d, 1)
        est = eta.estimate_eta(h, 30 / 256, EstimatorConfig(order=3))
        hits += est.eta_hat < 0.02
    assert hits >= 95, hits


def test_estimate_eta_smoke_accuracy_at_half():
    hits = 0
    for d in range(30):
        y = _draw(30, 256, 0.5, 500 + d, 600 + d)
        est = eta.estimate_eta(y, 30 / 256, EstimatorConfig(order=3))
        hits += abs(est.eta_hat - 0.5) < 0.05
    assert hits >= 27, hits


def test_estimate_eta_error_shrinks_with_antenna_count():
    meds = []
    for a_dim in (64, 256):
        devs = []
        for d in range(40):
            y = _draw(20, a_dim, 0.3, 20_000 + d, 30_000 + d)
            est = eta.estimate_eta(y, 20 / a_dim, EstimatorConfig(order=3))
            devs.append(abs(est.eta_hat - 0.3))
        meds.append(np.median(devs))
    assert meds[1] < meds[0], meds


def test_estimate_eta_convergence_rate_slope():
    dims = (64, 256, 1024)
    meds = []
    for a_dim in dims:
        devs = []
        for d in range(24):
            y = _draw(20, a_dim, 0.3, 60_000 + d, 70_000 + d)
            est = eta.estimate_eta(y, 20 / a_dim, EstimatorConfig(order=3))
            devs.append(abs(est.eta_hat - 0.3))
        meds.append(np.median(devs))
    slope = np.polyfit(np.log(dims), np.log(meds), 1)[0]
    assert -0.65 < slope < -0.35, slope


@pytest.mark.xfail(
    strict=True,
    reason="first cumulant alone already identifies the error level; higher "
    "orders add sampling noise, so order 3 does not beat order 1 here",
)
def test_estimate_eta_higher_order_dominates():
    meds = {}
    for order in (1, 3):
        devs = []
        for d in range(80):
            y = _draw(30, 256, 0.5, 40_000 + d, 50_000 + d)
            est = eta.estimate_eta(y, 30 / 256, EstimatorConfig(order=order))
            devs.append(abs(est.eta_hat - 0.5))
        meds[order] = np.median(devs)
    assert meds[3] <= meds[1], meds


def test_estimate_eta_damped_unit_scale_is_flagged_unidentifiable():
    y = _draw(30, 256, 0.5, 71, 72, mode="damped", c=1.0)
    est = eta.estimate_eta(
        y, 30 / 256, EstimatorConfig(order=1, data_mode="damped", c=1.0)
    )
    # the damped observation keeps unit scale, so the fit reads ~0 error
    assert est.eta_hat < 0.05
    assert not est.identifiable


def test_estimate_eta_additive_data_is_identifiable():
    y = _draw(30, 256, 0.5, 73, 74)
    est = eta.estimate_eta(y, 30 / 256, EstimatorConfig(order=1))
    assert est.identifiable


def test_delta_eta_accepts_estimate_or_float():
    assert abs(eta.delta_eta(0.5, 0.45) - 0.05) < 1e-15
    y = _draw(30, 256, 0.5, 75, 76)
    est = eta.estimate_eta(y, 30 / 256, EstimatorConfig(order=1))
    assert eta.delta_eta(0.5, est) == abs(0.5 - est.eta_hat)
