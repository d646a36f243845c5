"""Quantizer, Bussgang linearization, and precoder tests."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from eiprecode import channel, precoding
from eiprecode.precoding import PRECODERS, QuantizerSpec

_SPEC_HALF = QuantizerSpec(3, 0.5)


def _chan(u, a, seed):
    return channel.gen_channel(channel.SystemDims(u, a), np.random.default_rng(seed))


def _re(x):
    return float(np.asarray(x).real)


# ---------------------------------------------------------------------------
# quantizer grid


def test_labels_and_thresholds_two_bit():
    spec = QuantizerSpec(2, 1.0)
    assert np.allclose(spec.labels(), [-1.5, -0.5, 0.5, 1.5], atol=1e-15)
    assert np.allclose(spec.thresholds(), [-1.0, 0.0, 1.0], atol=1e-15)


def test_quantize_two_bit_examples():
    spec = QuantizerSpec(2, 1.0)
    assert _re(precoding.quantize(np.array(0.3 + 0j), spec)) == 0.5
    assert _re(precoding.quantize(np.array(-1.2 + 0j), spec)) == -1.5
    assert _re(precoding.quantize(np.array(2.9 + 0j), spec)) == 1.5
    # zero maps up, on both components
    z = precoding.quantize(np.array(0.0 + 0.0j), spec)
    assert complex(z) == 0.5 + 0.5j


def test_quantize_one_bit_is_sign_map():
    spec = QuantizerSpec(1, 2.0)
    assert np.allclose(spec.labels(), [-1.0, 1.0])
    for v, want in ((0.7, 1.0), (-0.3, -1.0), (5.0, 1.0), (-9.0, -1.0)):
        assert _re(precoding.quantize(np.array(v + 0j), spec)) == want


def test_quantizer_spec_validation():
    with pytest.raises(ValueError):
        QuantizerSpec(0)
    with pytest.raises(ValueError):
        QuantizerSpec(13)
    with pytest.raises(ValueError):
        QuantizerSpec(3, -0.5)
    with pytest.raises(ValueError):
        QuantizerSpec(3, "wide")
    auto = QuantizerSpec(3)
    with pytest.raises(ValueError):
        auto.labels()
    with pytest.raises(ValueError):
        auto.thresholds()
    with pytest.raises(ValueError):
        precoding.quantize(np.array(1.0 + 0j), auto)


def test_step_for_scales_optimal_step():
    step = QuantizerSpec(3).step_for(4.0)
    assert step == pytest.approx(2.0 * precoding.optimal_step(3), rel=1e-12)
    assert QuantizerSpec(3, 0.7).step_for(9.0) == 0.7


def test_optimal_step_frozen_values():
    # distortion-minimizing uniform steps for a unit-variance Gaussian
    for bits, want in ((1, 1.596), (2, 0.996), (3, 0.586), (4, 0.335)):
        assert abs(precoding.optimal_step(bits) - want) < 0.01
    steps = [precoding.optimal_step(b) for b in range(1, 9)]
    assert all(a > b for a, b in zip(steps, steps[1:]))


def _bussgang_distortion(bits, step):
    # the objective optimal_step minimizes: F and P of a CN(0, 2) input,
    # whose real and imaginary parts are unit-variance
    spec = QuantizerSpec(bits, step)
    return 1.0 - 2.0 * precoding.bussgang_gain(spec, 2.0) + precoding.quantized_power(spec, 2.0) / 2.0


def _integrated_distortion(bits, step):
    # E (Q(x) - x)^2 for x ~ N(0, 1), one quadrature per quantizer cell
    spec = QuantizerSpec(bits, step)
    edges = np.concatenate(([-np.inf], spec.thresholds(), [np.inf]))
    return sum(
        integrate.quad(lambda x, l=label: (l - x) ** 2 * stats.norm.pdf(x), a, b,
                       epsabs=1e-14, epsrel=1e-12)[0]
        for a, b, label in zip(edges[:-1], edges[1:], spec.labels())
    )


@pytest.mark.parametrize("bits", range(1, 9))
def test_optimal_step_minimizes_the_integrated_gaussian_distortion(bits):
    best = precoding.optimal_step(bits)
    for step in (best, 0.5 * best, 2.0 * best):
        assert abs(_bussgang_distortion(bits, step) - _integrated_distortion(bits, step)) < 1e-9
    at_best = _bussgang_distortion(bits, best)
    for step in (best * (1.0 - 1e-3), best * (1.0 + 1e-3)):
        assert _bussgang_distortion(bits, step) >= at_best


def test_four_bit_distortion_under_one_percent():
    rng = np.random.default_rng(127)
    spec = QuantizerSpec(4, precoding.optimal_step(4))
    x = rng.standard_normal(1_000_000)
    qx = precoding.quantize(x.astype(complex), spec).real
    d = np.mean((qx - x) ** 2)
    assert 0.008 < d < 0.012, d


@settings(max_examples=120, deadline=None)
@given(st.floats(-4.0, 4.0))
def test_quantize_is_idempotent(v):
    one = precoding.quantize(np.array(v + 1j * v), _SPEC_HALF)
    two = precoding.quantize(one, _SPEC_HALF)
    assert np.array_equal(one, two)


@settings(max_examples=120, deadline=None)
@given(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
def test_quantize_is_monotone(a, b):
    lo, hi = min(a, b), max(a, b)
    qlo = _re(precoding.quantize(np.array(lo + 0j), _SPEC_HALF))
    qhi = _re(precoding.quantize(np.array(hi + 0j), _SPEC_HALF))
    assert qlo <= qhi


@settings(max_examples=120, deadline=None)
@given(st.floats(-4.0, 4.0))
def test_quantize_is_odd_off_thresholds(v):
    # at a threshold the tie breaks upward, so exact grid points are excluded
    if abs(v / 0.5 - round(v / 0.5)) < 1e-6:
        v += 0.1
    plus = _re(precoding.quantize(np.array(v + 0j), _SPEC_HALF))
    minus = _re(precoding.quantize(np.array(-v + 0j), _SPEC_HALF))
    assert plus == -minus


# ---------------------------------------------------------------------------
# Bussgang gain and distortion


def test_bussgang_gain_one_bit_closed_form():
    spec = QuantizerSpec(1, 2.0)
    assert precoding.bussgang_gain(spec, 1.0) == pytest.approx(
        2.0 / np.sqrt(np.pi), abs=1e-12
    )


def test_bussgang_gain_eight_bit_near_unity():
    assert abs(precoding.bussgang_gain(QuantizerSpec(8), 1.0) - 1.0) < 1e-3


def test_bussgang_gain_increases_with_resolution():
    gains = [precoding.bussgang_gain(QuantizerSpec(b), 1.0) for b in range(1, 9)]
    assert all(a < b for a, b in zip(gains, gains[1:]))


def test_bussgang_gain_edge_cases():
    assert precoding.bussgang_gain(QuantizerSpec(3), 0.0) == 1.0
    with pytest.raises(ValueError):
        precoding.bussgang_gain(QuantizerSpec(3), -1.0)


def test_bussgang_gain_matches_monte_carlo():
    spec = QuantizerSpec(3)
    sigma_u2 = 2.0
    rng = np.random.default_rng(129)
    n = 400_000
    u = np.sqrt(sigma_u2 / 2.0) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    qu = precoding.quantize(u, spec, input_variance=sigma_u2 / 2.0)
    f_mc = float(np.mean(qu * u.conj()).real) / sigma_u2
    f = precoding.bussgang_gain(spec, sigma_u2)
    assert abs(f_mc - f) / f < 0.01


def test_quantized_power():
    assert precoding.quantized_power(QuantizerSpec(3), 0.0) == 0.0
    with pytest.raises(ValueError):
        precoding.quantized_power(QuantizerSpec(3), -1.0)
    qp = precoding.quantized_power(QuantizerSpec(8), 1.7)
    assert abs(qp - 1.7) / 1.7 < 0.01


_SPECS = [QuantizerSpec(b) for b in range(1, 9)] + [
    QuantizerSpec(b, step) for b in range(1, 9) for step in (0.02, 0.5)
]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(_SPECS),
    st.lists(
        st.one_of(st.just(0.0), st.floats(1e-6, 50.0)), min_size=1, max_size=40
    ),
)
def test_bussgang_constants_array_matches_scalar(spec, variances):
    v = np.array(variances)
    for fn in (precoding.bussgang_gain, precoding.quantized_power):
        batch = fn(spec, v)
        assert isinstance(batch, np.ndarray) and batch.shape == v.shape
        one_by_one = [fn(spec, x) for x in variances]
        assert all(type(x) is float for x in one_by_one)
        assert np.allclose(batch, one_by_one, rtol=1e-14, atol=0.0)
        with pytest.raises(ValueError):
            fn(spec, np.append(v, -1e-12))
    assert np.all(precoding.bussgang_gain(spec, v)[v == 0.0] == 1.0)
    assert np.all(precoding.quantized_power(spec, v)[v == 0.0] == 0.0)


@pytest.mark.parametrize("bits", range(1, 13))
def test_auto_step_constants_are_scale_invariant(bits):
    # the premise of wfq_precode's closed form: under an auto step the gain
    # does not depend on the input variance, and the output power scales with it
    spec = QuantizerSpec(bits)
    v = np.logspace(-8, 8, 65)
    gain = precoding.bussgang_gain(spec, 1.0)
    power = precoding.quantized_power(spec, 1.0)
    assert np.allclose(precoding.bussgang_gain(spec, v), gain, rtol=1e-14, atol=0.0)
    assert np.allclose(precoding.quantized_power(spec, v) / v, power, rtol=1e-14, atol=0.0)


def _count_calls(monkeypatch, *names):
    """Wrap each named precoding function in a counter; returns the counts."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        inner = getattr(precoding, name)

        def counted(*args, _inner=inner, _name=name, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(precoding, name, counted)
    return calls


@pytest.mark.parametrize("antennas", [64, 256])
def test_bussgang_model_and_transmit_call_each_constant_once(monkeypatch, antennas):
    calls = _count_calls(monkeypatch, "bussgang_gain", "quantized_power")
    users = 8
    pout = precoding.wf_precode(_chan(users, antennas, 171), 0.05)
    spec = QuantizerSpec(3)
    precoding.bussgang_model(pout.P, spec, 0.05)
    assert calls == {"bussgang_gain": 1, "quantized_power": 0}
    s = np.ones((users, 10), dtype=complex)
    precoding.transmit(pout, s, spec)
    assert calls == {"bussgang_gain": 1, "quantized_power": 1}


def test_bussgang_model_formula():
    p = _chan(8, 32, 131).conj().T  # 32 x 8 precoder-shaped matrix
    spec = QuantizerSpec(3)
    sigma2 = 0.05
    model = precoding.bussgang_model(p, spec, sigma2)
    sigma_m2 = np.sum(np.abs(p) ** 2, axis=1)
    assert np.allclose(model.sigma_m2, sigma_m2, atol=1e-15)
    want_gain = np.array([precoding.bussgang_gain(spec, sm) for sm in sigma_m2])
    assert np.allclose(model.gains, want_gain, rtol=1e-12, atol=0.0)
    assert np.allclose(
        model.sigma_d2, (1.0 - model.gains) * (8 * sigma2 + 1.0), atol=1e-15
    )


def test_bussgang_model_dead_antenna():
    p = np.zeros((4, 2), dtype=complex)
    p[0, 0] = 1.0
    model = precoding.bussgang_model(p, QuantizerSpec(3), 0.0)
    assert model.gains[1] == 1.0
    assert model.sigma_d2[1] == 0.0


def test_bussgang_cross_covariance_is_diagonal_gain():
    # rectangular case: R_xz == diag(F) R_zz within Monte-Carlo noise
    h = _chan(16, 64, 133)
    pout = precoding.wf_precode(h, 0.05)
    spec = QuantizerSpec(3)
    rng = np.random.default_rng(134)
    draws = 100_000
    s = (rng.standard_normal((16, draws)) + 1j * rng.standard_normal((16, draws))) / np.sqrt(2.0)
    z = pout.P @ s
    sigma_m2 = np.sum(np.abs(pout.P) ** 2, axis=1)
    x = precoding.quantize(z, spec, input_variance=sigma_m2 / 2.0)
    r_xz = (x @ z.conj().T) / draws
    r_zz = pout.P @ pout.P.conj().T
    gains = np.array([precoding.bussgang_gain(spec, sm) for sm in sigma_m2])
    resid = np.abs(r_xz - gains[:, None] * r_zz)
    floor = np.min(np.abs(np.diag(r_xz)))
    assert np.max(resid) < 0.05 * floor, (np.max(resid), floor)
    # per-antenna empirical gains
    f_mc = np.real(np.sum(x * z.conj(), axis=1) / draws) / sigma_m2
    assert np.max(np.abs(f_mc - gains) / gains) < 0.02


def test_bussgang_literal_inverse_on_well_conditioned_square():
    # square full-rank covariance allows the literal R_xz R_zz^{-1} check
    a_dim = 24
    rng = np.random.default_rng(137)
    g = (rng.standard_normal((a_dim, a_dim)) + 1j * rng.standard_normal((a_dim, a_dim))) / np.sqrt(2.0)
    p = (np.eye(a_dim) + 0.25 * g / np.sqrt(a_dim)) * 0.04
    spec = QuantizerSpec(3)
    draws = 200_000
    s = (rng.standard_normal((a_dim, draws)) + 1j * rng.standard_normal((a_dim, draws))) / np.sqrt(2.0)
    z = p @ s
    sigma_m2 = np.sum(np.abs(p) ** 2, axis=1)
    x = precoding.quantize(z, spec, input_variance=sigma_m2 / 2.0)
    r_xz = (x @ z.conj().T) / draws
    f_emp = r_xz @ np.linalg.inv(p @ p.conj().T)
    gains = np.array([precoding.bussgang_gain(spec, sm) for sm in sigma_m2])
    diag_dev = np.abs(np.diag(f_emp) - gains) / gains
    off = f_emp - np.diag(np.diag(f_emp))
    assert np.max(diag_dev) < 0.02, np.max(diag_dev)
    assert np.max(np.abs(off)) < 0.05 * np.min(gains), np.max(np.abs(off))


def test_measured_distortion_matches_second_moment_identity():
    # E|Q(z) - F z|^2 = E|Q|^2 - F^2 sigma_m2 by the orthogonality principle
    h = _chan(12, 48, 139)
    pout = precoding.wf_precode(h, 0.02)
    spec = QuantizerSpec(3)
    d_mc = precoding.measure_distortion(pout.P, spec, np.random.default_rng(140), draws=200_000)
    sigma_m2 = np.sum(np.abs(pout.P) ** 2, axis=1)
    gains = np.array([precoding.bussgang_gain(spec, sm) for sm in sigma_m2])
    want = np.array(
        [
            precoding.quantized_power(spec, sm) - f * f * sm
            for sm, f in zip(sigma_m2, gains)
        ]
    )
    assert np.max(np.abs(d_mc - want) / want) < 0.03


# ---------------------------------------------------------------------------
# linear precoders


def test_wf_zero_noise_on_square_channel_is_zero_forcing():
    rng = np.random.default_rng(141)
    h = np.eye(8) + 0.3 * (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))) / np.sqrt(8)
    out = precoding.wf_precode(h, 0.0)
    hp = h @ out.P
    c = np.trace(hp) / 8
    assert np.max(np.abs(hp - c * np.eye(8))) / abs(c) < 1e-6


def test_wf_power_normalization():
    h = _chan(10, 40, 143)
    for p_total in (1.0, 2.5):
        out = precoding.wf_precode(h, 0.1, p_total=p_total)
        assert abs(np.sum(np.abs(out.P) ** 2) - p_total) < 1e-10
        assert out.beta > 0
        assert out.kind == "WF"


def test_wf_singular_channel_raises():
    h = np.ones((3, 6), dtype=complex)  # identical rows, singular gram
    with pytest.raises(np.linalg.LinAlgError):
        precoding.wf_precode(h, 0.0)


def _wfq_reference(h, sigma2, p_total, spec):
    # the WF precoder, one distortion update, then one more solve, written out
    users = h.shape[0]

    def solve(theta):
        gram = h @ h.conj().T + users * theta * np.eye(users)
        raw = np.linalg.solve(gram, h).conj().T
        return raw * np.sqrt(p_total / np.sum(np.abs(raw) ** 2))

    def distortion(P):
        gains = precoding.bussgang_gain(spec, np.sum(np.abs(P) ** 2, axis=1))
        return gains, (1.0 - gains) * (users * sigma2 + 1.0)

    _, sigma_d2 = distortion(solve(sigma2))
    P = solve(sigma2 + np.mean(sigma_d2))
    gains, sigma_d2 = distortion(P)
    hfp = h @ (gains[:, None] * P)
    den = np.sum(np.abs(hfp) ** 2) + np.sum(np.abs(h) ** 2 * sigma_d2) + users * sigma2
    return P, np.trace(hfp).real / den


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 30).flatmap(
        lambda u: st.tuples(st.just(u), st.integers(u + 1, 256))
    ),
    st.integers(1, 8),
    st.floats(1e-3, 3.0),
    st.floats(0.5, 3.0),
    st.integers(0, 2**16),
)
def test_wfq_matches_one_distortion_update(dims, bits, sigma2, p_total, seed):
    h = np.sqrt(dims[1]) * _chan(*dims, seed)
    spec = QuantizerSpec(bits)
    out, model = precoding.wfq_precode(h, sigma2, p_total, spec=spec)
    P, beta = _wfq_reference(h, sigma2, p_total, spec)
    assert out.kind == "WFQ"
    assert np.linalg.norm(out.P - P) <= 1e-12 * np.linalg.norm(P)
    assert abs(out.beta - beta) <= 1e-12 * beta
    assert np.all(model.sigma_d2 >= 0.0)


def test_wfq_makes_one_solve_and_one_bussgang_model(monkeypatch):
    calls = _count_calls(monkeypatch, "_regularized", "bussgang_model")
    precoding.precode("WFQ", _chan(16, 64, 147), 0.05, 1.0, QuantizerSpec(3))
    assert calls == {"_regularized": 1, "bussgang_model": 1}


def test_wfq_rejects_a_fixed_step():
    with pytest.raises(ValueError, match="auto-step"):
        precoding.wfq_precode(_chan(16, 64, 149), 0.05, spec=QuantizerSpec(3, 0.02))


def test_wfq_power_normalization():
    h = _chan(16, 64, 151)
    out, _ = precoding.wfq_precode(h, 0.05, p_total=2.5, spec=QuantizerSpec(4))
    assert abs(np.sum(np.abs(out.P) ** 2) - 2.5) < 1e-10


# ---------------------------------------------------------------------------
# the precoder dispatch and the baselines


def _baseline_reference(kind, h, sigma2, p_total):
    # the MRT, ZF and QCE matrices and receiver scaling, written out
    users = h.shape[0]
    if kind == "MRT":
        raw = h.conj().T
    else:
        theta = 0.0 if kind == "ZF" else sigma2
        gram = h @ h.conj().T + users * theta * np.eye(users)
        raw = np.linalg.solve(gram, h).conj().T
    P = raw * np.sqrt(p_total / np.sum(np.abs(raw) ** 2))
    hp = h @ P
    beta = float(np.trace(hp).real) / (float(np.sum(np.abs(hp) ** 2)) + users * sigma2)
    return P, max(beta, np.finfo(float).tiny), kind


@pytest.mark.parametrize("with_spec", [True, False], ids=["spec", "bypass"])
@pytest.mark.parametrize("kind", PRECODERS)
def test_precode_matches_each_precoder(kind, with_spec):
    h = _chan(12, 48, 158)
    sigma2, p_total = 0.05, 1.7
    spec = QuantizerSpec(3) if with_spec else None
    if kind == "QCE" and spec is None:
        with pytest.raises(ValueError, match="quantizer spec"):
            precoding.precode(kind, h, sigma2, p_total, spec)
        return
    out = precoding.precode(kind, h, sigma2, p_total, spec)
    if kind in ("MRT", "ZF", "QCE"):
        want = _baseline_reference(kind, h, sigma2, p_total)
    else:
        if kind == "WFQ" and spec is not None:
            ref = precoding.wfq_precode(h, sigma2, p_total, spec=spec)[0]
        else:
            ref = precoding.wf_precode(h, sigma2, p_total)
        want = (ref.P, ref.beta, ref.kind)
    assert np.array_equal(out.P, want[0])
    assert (out.beta, out.kind) == want[1:]
    assert out.p_total == p_total


def test_precode_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match=re.escape(str(PRECODERS))):
        precoding.precode("DPC", _chan(4, 8, 157), 0.05)


def test_mrt_single_user_matches_matched_filter():
    h = _chan(1, 16, 153)
    out = precoding.precode("MRT", h, 0.0)
    v = out.P[:, 0]
    w = h.conj().T[:, 0]
    cos = abs(np.vdot(v, w)) / (np.linalg.norm(v) * np.linalg.norm(w))
    assert cos > 1.0 - 1e-12


def test_zf_cancels_interference():
    h = _chan(8, 32, 155)
    out = precoding.precode("ZF", h, 0.0)
    hp = h @ out.P
    diag = np.abs(np.diag(hp))
    off = hp - np.diag(np.diag(hp))
    assert np.max(np.abs(off)) < 1e-8 * np.min(diag)


def test_qce_transmit_is_constant_envelope():
    h = _chan(4, 16, 159)
    spec = QuantizerSpec(3)
    out = precoding.precode("QCE", h, 0.05, p_total=2.0, spec=spec)
    rng = np.random.default_rng(160)
    s = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) / np.sqrt(2.0)
    x = precoding.transmit(out, s, spec=spec)
    assert np.max(np.abs(np.abs(x) - np.sqrt(2.0 / 16))) < 1e-12
    width = 2.0 * np.pi / 2 ** 3
    sectors = np.angle(x) / width
    assert np.max(np.abs(sectors - np.round(sectors))) < 1e-9
    with pytest.raises(ValueError):
        precoding.transmit(out, s, spec=None)


# ---------------------------------------------------------------------------
# transmit chain


def test_transmit_bypass_is_linear():
    h = _chan(6, 24, 161)
    out = precoding.wf_precode(h, 0.1)
    rng = np.random.default_rng(162)
    s = (rng.standard_normal(6) + 1j * rng.standard_normal(6)) / np.sqrt(2.0)
    x = precoding.transmit(out, s, spec=None)
    assert np.array_equal(x, out.P @ s)


def test_transmit_zero_symbols_hit_half_step_corner():
    h = _chan(6, 24, 163)
    out = precoding.wf_precode(h, 0.1)
    spec = QuantizerSpec(3)
    x = precoding.transmit(out, np.zeros(6, dtype=complex), spec=spec)
    sigma_m2 = np.sum(np.abs(out.P) ** 2, axis=1)
    steps = precoding.optimal_step(3) * np.sqrt(sigma_m2 / 2.0)
    # the radiated-power scaling is one deterministic scalar
    scale = np.sqrt(1.0 / np.sum(precoding.quantized_power(spec, sigma_m2)))
    want = 0.5 * steps * (1.0 + 1.0j) * scale
    assert np.max(np.abs(x - want)) < 1e-15


def test_transmit_renormalization_restores_radiated_power():
    h = _chan(8, 64, 165)
    out = precoding.wf_precode(h, 0.05, p_total=1.0)
    spec = QuantizerSpec(3)
    rng = np.random.default_rng(166)
    draws = 4000
    acc = 0.0
    for _ in range(draws):
        s = (rng.standard_normal(8) + 1j * rng.standard_normal(8)) / np.sqrt(2.0)
        x = precoding.transmit(out, s, spec=spec)
        acc += float(np.sum(np.abs(x) ** 2))
    assert abs(acc / draws - 1.0) < 0.02
