"""Quantizer, Bussgang linearization, and precoder tests."""

import dataclasses
import inspect
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, special, stats

from eiprecode import channel, precoding, rie
from eiprecode.precoding import PRECODERS, QuantizerSpec

_SPEC_HALF = QuantizerSpec(3, 0.5)


def _chan(u, a, seed):
    return channel.gen_channel(channel.SystemDims(u, a), np.random.default_rng(seed))


def _re(x):
    return float(np.asarray(x).real)


def _labels(spec):
    # l_j = D (j - (2^B - 1)/2), j = 0 .. 2^B - 1, for a fixed step D
    return spec.step * (np.arange(2 ** spec.bits) - (2 ** spec.bits - 1) / 2.0)


def _thresholds(spec):
    # t_l = D (l - 2^(B-1)), l = 1 .. 2^B - 1: the midpoints of the labels
    return spec.step * (np.arange(1, 2 ** spec.bits) - 2 ** (spec.bits - 1))


# ---------------------------------------------------------------------------
# quantizer grid


def test_labels_and_thresholds_two_bit():
    spec = QuantizerSpec(2, 1.0)
    assert np.allclose(_labels(spec), [-1.5, -0.5, 0.5, 1.5], atol=1e-15)
    assert np.allclose(_thresholds(spec), [-1.0, 0.0, 1.0], atol=1e-15)
    # quantize puts each label on itself and each threshold on the label above
    assert np.array_equal(precoding.quantize(_labels(spec) + 0j, spec).real, _labels(spec))
    assert np.array_equal(precoding.quantize(_thresholds(spec) + 0j, spec).real, _labels(spec)[1:])


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
    assert np.allclose(_labels(spec), [-1.0, 1.0])
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
    # a NaN step would quantize to NaN, and a fractional depth to a grid
    # that is not odd-symmetric
    for step in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="step"):
            QuantizerSpec(3, step)
    for bits in (2.5, float("nan")):
        with pytest.raises(ValueError, match="bits"):
            QuantizerSpec(bits)
    with pytest.raises(ValueError):
        precoding.quantize(np.array(1.0 + 0j), QuantizerSpec(3))


def test_step_for_scales_optimal_step():
    step = QuantizerSpec(3).step_for(4.0)
    assert step == pytest.approx(2.0 * precoding.optimal_step(3), rel=1e-12)
    assert QuantizerSpec(3, 0.7).step_for(9.0) == 0.7


@pytest.mark.parametrize("bits", [0, 13])
def test_optimal_step_rejects_a_bit_depth_out_of_range(bits):
    with pytest.raises(ValueError, match=r"bits must lie in \[1, 12\]"):
        precoding.optimal_step(bits)


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
    edges = np.concatenate(([-np.inf], _thresholds(spec), [np.inf]))
    return sum(
        integrate.quad(lambda x, l=label: (l - x) ** 2 * stats.norm.pdf(x), a, b,
                       epsabs=1e-14, epsrel=1e-12)[0]
        for a, b, label in zip(edges[:-1], edges[1:], _labels(spec))
    )


@pytest.mark.parametrize("bits", range(1, 9))
def test_optimal_step_minimizes_the_integrated_gaussian_distortion(bits):
    best = precoding.optimal_step(bits)
    for step in (best, 0.5 * best, 2.0 * best):
        assert abs(_bussgang_distortion(bits, step) - _integrated_distortion(bits, step)) < 1e-9
    at_best = _bussgang_distortion(bits, best)
    for step in (best * (1.0 - 1e-3), best * (1.0 + 1e-3)):
        assert _bussgang_distortion(bits, step) >= at_best


@pytest.mark.parametrize("bits", range(1, 13))
def test_optimal_step_matches_the_bounded_scalar_minimizer(bits):
    # the reference: a bounded Brent search of the same objective on the same bracket
    ref = optimize.minimize_scalar(
        lambda step: _bussgang_distortion(bits, step),
        bounds=(1e-4, 3.0), method="bounded", options={"xatol": 1e-8},
    ).x
    best = precoding.optimal_step(bits)
    assert best == pytest.approx(ref, rel=1e-5, abs=0.0)
    assert _bussgang_distortion(bits, best) <= _bussgang_distortion(bits, ref) + 1e-14


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


def _reference_quantize(x, bits, step):
    """The two-pass quantizer: the real and the imaginary part, each alone."""
    n = 2 ** bits

    def one(v):
        return step * (np.clip(np.floor(v / step) + n // 2, 0, n - 1) - (n - 1) / 2.0)

    out = np.empty(np.shape(x), dtype=complex)
    out.real = one(np.real(x))
    out.imag = one(np.imag(x))
    return out


def _awkward_block(rng, rows, cols):
    """Gaussian samples plus saturating values, zeros and -0.0 on either axis."""
    x = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    x[:, :5] = [1e6 - 1e6j, -1e6 + 1e6j, 0.0, complex(-0.0, -0.0), complex(0.0, -0.0)]
    return x


@pytest.mark.parametrize("bits", [1, 2, 3, 4, 8])
def test_quantize_matches_the_two_pass_reference_bit_for_bit(bits):
    rng = np.random.default_rng(300 + bits)
    spec = QuantizerSpec(bits)
    variance = rng.uniform(0.1, 2.0, size=6)
    variance[2] = 0.0  # a dead row: its step falls back to 1
    steps = spec.step_for(variance)
    steps[2] = 1.0
    x = _awkward_block(rng, 6, 40)
    cases = [
        # 2-D input, one auto step per row
        (x, variance, steps[:, None]),
        # a non-contiguous slice of it, rows and columns strided
        (x[::2, 1::3], variance[::2], steps[::2, None]),
        (x.T[::-1], variance[3], steps[3]),
        # 1-D input at one scalar variance
        (x[0], variance[0], steps[0]),
        (x[:, 7], variance[4], steps[4]),
    ]
    for block, var, step in cases:
        before = block.copy()
        got = precoding.quantize(block, spec, input_variance=var)
        assert got.shape == block.shape
        assert np.array_equal(got, _reference_quantize(block, bits, step))
        # bytes, so that a -0.0 turned into 0.0 would show
        assert before.tobytes() == block.tobytes()
    # a fixed step, on a matrix and a strided vector
    fixed = QuantizerSpec(bits, 0.37)
    y = _awkward_block(rng, 5, 30)
    for block in (y, y[1, ::-2]):
        before = block.copy()
        got = precoding.quantize(block, fixed)
        assert np.array_equal(got, _reference_quantize(block, bits, 0.37))
        assert before.tobytes() == block.tobytes()


@pytest.mark.parametrize("bits", [1, 3, 5])
def test_transmit_matches_the_two_pass_reference_bit_for_bit(bits):
    users, antennas = 5, 24
    spec = QuantizerSpec(bits)
    out = precoding.wf_precode(_chan(users, antennas, 310 + bits), 0.1)
    rng = np.random.default_rng(320 + bits)
    block = rng.standard_normal((users, 33)) + 1j * rng.standard_normal((users, 33))
    # P s = W^H ((E g)^H s) and diag(P P^H) = |W^H|^2 g^2 in the CSI eigenbasis
    W, E, g = out.csi.antenna_vectors, out.csi.vectors, out.gains
    sigma_m2 = (W.real ** 2 + W.imag ** 2) @ g ** 2
    steps = spec.step_for(sigma_m2 / 2.0)
    scale = np.sqrt(1.0 / precoding.quantized_power(spec, 1.0))
    for s, step in ((block, steps[:, None]), (block[:, 3], steps)):
        before = s.copy()
        want = _reference_quantize(W @ ((E * g).conj().T @ s), bits, step) * scale
        assert np.array_equal(precoding.transmit(out, s, spec), want)
        assert before.tobytes() == s.tobytes()


@pytest.mark.parametrize("bits", [1, 3, 4, 8])
def test_quantize_clips_the_cell_index_as_the_offset_sequence_did(bits):
    # the DAC clips the cell index to [-n/2, n/2 - 1] and adds 1/2; the
    # sequence it replaced offset by n/2, clipped to [0, n - 1] and took
    # (n - 1)/2 off, and the two agree to the bit on every pair of these
    # values on I and Q, non-finite, signed-zero and saturating ones too
    n, step = 2 ** bits, 0.25
    values = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e300, -1e300, 0.3, -0.3, -2.5])
    x = np.empty((values.size, values.size), dtype=complex)
    x.real, x.imag = values[:, None], values[None, :]
    with np.errstate(invalid="ignore"):
        q = np.floor(x[..., None].view(float) / step)
        q += n // 2
        np.maximum(q, 0, out=q)
        np.minimum(q, n - 1, out=q)
        q -= (n - 1) / 2.0
        q *= step
        got = precoding.quantize(x, QuantizerSpec(bits, step))
    assert got.tobytes() == q.view(complex)[..., 0].tobytes()


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


@pytest.mark.parametrize("bits", range(1, 13))
def test_fixed_step_quantized_power_matches_the_vectorized_erf_form(bits):
    spec = QuantizerSpec(bits, precoding.optimal_step(bits))
    for v in (0.5, 2.0, 8.0):
        # the Gaussian CDF at every threshold, the outer cells running to -inf and +inf
        cdf = 0.5 * (1.0 + special.erf(_thresholds(spec) / np.sqrt(v)))
        mass = np.diff(cdf, prepend=0.0, append=1.0)
        want = 2.0 * np.sum(_labels(spec) ** 2 * mass)
        assert precoding.quantized_power(spec, v) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_bussgang_constants_take_only_a_scalar():
    spec = QuantizerSpec(3)
    for fn in (precoding.bussgang_gain, precoding.quantized_power):
        assert type(fn(spec, np.float64(0.7))) is float
        with pytest.raises(TypeError):
            fn(spec, np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            fn(spec, float("nan"))


def test_bussgang_constants_are_memoized_per_spec_and_variance():
    spec = QuantizerSpec(5)
    for fn in (precoding.bussgang_gain, precoding.quantized_power):
        first = fn(spec, 1.0)
        # the same float object for an equal spec and an equal variance
        assert fn(spec, 1.0) is first
        assert fn(QuantizerSpec(5), np.float64(1.0)) is first
        # validation still runs on every call, ahead of the cache
        with pytest.raises(TypeError):
            fn(spec, np.array([1.0]))
        with pytest.raises(ValueError):
            fn(spec, float("nan"))
        with pytest.raises(ValueError):
            fn(spec, -1.0)
        assert fn(spec, 1.0) is first


def test_constant_caches_stay_bounded_through_the_step_search():
    steps = [precoding.optimal_step(bits) for bits in range(1, 13)]
    precoding.optimal_step.cache_clear()
    # each search evaluates the constants at a fresh fixed-step spec per step
    assert [precoding.optimal_step(bits) for bits in range(1, 13)] == steps
    for cached in (precoding._bussgang_gain, precoding._quantized_power):
        info = cached.cache_info()
        assert info.maxsize is not None
        assert info.misses > info.maxsize
        assert info.currsize <= info.maxsize


@pytest.mark.parametrize("bits", range(1, 13))
def test_auto_step_constants_are_scale_invariant(bits):
    # the premise of wfq_precode's closed form and of transmit's scale: under
    # an auto step the gain does not depend on the input variance, and the
    # output power scales with it
    spec = QuantizerSpec(bits)
    gain = precoding.bussgang_gain(spec, 1.0)
    power = precoding.quantized_power(spec, 1.0)
    for v in np.logspace(-8, 8, 65):
        assert precoding.bussgang_gain(spec, v) == pytest.approx(gain, rel=1e-14, abs=0.0)
        assert precoding.quantized_power(spec, v) / v == pytest.approx(power, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("antennas", [64, 256])
def test_transmit_calls_the_power_constant_once(count_calls, antennas):
    calls = count_calls(precoding, "bussgang_gain", "quantized_power")
    users = 8
    pout = precoding.wf_precode(_chan(users, antennas, 171), 0.05)
    s = np.ones((users, 10), dtype=complex)
    precoding.transmit(pout, s, QuantizerSpec(3))
    assert calls == {"bussgang_gain": 0, "quantized_power": 1}


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
    rng = np.random.default_rng(140)
    draws = 200_000
    s = (rng.standard_normal((12, draws)) + 1j * rng.standard_normal((12, draws))) / np.sqrt(2.0)
    z = pout.P @ s
    sigma_m2 = np.sum(np.abs(pout.P) ** 2, axis=1)
    gains = np.array([precoding.bussgang_gain(spec, sm) for sm in sigma_m2])
    x = precoding.quantize(z, spec, input_variance=sigma_m2 / 2.0)
    d_mc = np.mean(np.abs(x - gains[:, None] * z) ** 2, axis=1)
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
    for scale in (1.0, 2.5):
        out = precoding.wf_precode(scale * h, 0.1)
        assert abs(np.sum(np.abs(out.P) ** 2) - 1.0) < 1e-10
        assert out.beta > 0
        assert out.kind == "WF"


def test_wf_singular_channel_is_the_pseudo_inverse():
    # identical rows, a singular Gram: at sigma2 = 0 the null directions get
    # no power, so WF is the normalized pseudo-inverse
    h = np.ones((3, 6), dtype=complex)
    want = np.linalg.pinv(h)
    want /= np.linalg.norm(want)
    out = precoding.wf_precode(h, 0.0)
    assert np.linalg.norm(out.P - want) <= 1e-12 * np.linalg.norm(want)


def _wfq_reference(h, sigma2, spec):
    # the WF precoder, one distortion update, then one more solve, written out
    users = h.shape[0]

    def solve(theta):
        gram = h @ h.conj().T + users * theta * np.eye(users)
        raw = np.linalg.solve(gram, h).conj().T
        return raw * np.sqrt(1.0 / np.sum(np.abs(raw) ** 2))

    def distortion(P):
        gains = np.array([precoding.bussgang_gain(spec, v) for v in np.sum(np.abs(P) ** 2, axis=1)])
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
    st.integers(0, 2**16),
)
def test_wfq_matches_one_distortion_update(dims, bits, sigma2, seed):
    h = np.sqrt(dims[1]) * _chan(*dims, seed)
    spec = QuantizerSpec(bits)
    out, gain = precoding.wfq_precode(h, sigma2, spec=spec)
    P, beta = _wfq_reference(h, sigma2, spec)
    assert out.kind == "WFQ"
    assert gain == precoding.bussgang_gain(spec, 1.0)
    assert np.linalg.norm(out.P - P) <= 1e-12 * np.linalg.norm(P)
    assert abs(out.beta - beta) <= 1e-12 * beta


def test_wfq_makes_one_solve_at_one_bussgang_gain(count_calls):
    calls = count_calls(precoding, "_regularized", "bussgang_gain", "quantized_power")
    precoding.precode("WFQ", _chan(16, 64, 147), 0.05, spec=QuantizerSpec(3))
    assert calls == {"_regularized": 1, "bussgang_gain": 1, "quantized_power": 0}


def test_wfq_rejects_a_fixed_step():
    with pytest.raises(ValueError, match="auto-step"):
        precoding.wfq_precode(_chan(16, 64, 149), 0.05, spec=QuantizerSpec(3, 0.02))


def test_transmit_rejects_a_fixed_step():
    pout = precoding.wf_precode(_chan(16, 64, 150), 0.05)
    with pytest.raises(ValueError, match="auto-step"):
        precoding.transmit(pout, np.ones((16, 4), dtype=complex), QuantizerSpec(3, 0.02))


def test_wfq_power_normalization():
    h = _chan(16, 64, 151)
    for scale in (1.0, 2.5):
        out, _ = precoding.wfq_precode(scale * h, 0.05, spec=QuantizerSpec(4))
        assert abs(np.sum(np.abs(out.P) ** 2) - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# the precoder dispatch and the baselines


def _baseline_reference(kind, h, sigma2):
    # the MRT, ZF and QCE matrices and receiver scaling, written out in the
    # eigenbasis of the Gram h h^H = E diag(lam) E^H: P = (E diag(c d) E^H h)^H
    # with d = 1 for MRT and d = 1/(lam + U theta) for the regularized kinds,
    # c = (sum lam d^2)^(-1/2), and H P = E diag(c lam d) E^H
    users = h.shape[0]
    lam, E = np.linalg.eigh(h @ h.conj().T)
    if kind == "MRT":
        d = np.ones(users)
    else:
        theta = 0.0 if kind == "ZF" else sigma2
        d = 1.0 / (lam + users * theta)
    cd = d * np.sqrt(1.0 / np.dot(lam, d * d))
    P, hp = (((E * cd) @ E.conj().T) @ h).conj().T, lam * cd
    beta = float(np.sum(hp)) / (float(np.dot(hp, hp)) + users * sigma2)
    return P, max(beta, np.finfo(float).tiny), kind


@pytest.mark.parametrize("with_spec", [True, False], ids=["spec", "bypass"])
@pytest.mark.parametrize("kind", PRECODERS)
def test_precode_matches_each_precoder(kind, with_spec):
    h = _chan(12, 48, 158)
    sigma2 = 0.05
    spec = QuantizerSpec(3) if with_spec else None
    if kind == "QCE" and spec is None:
        with pytest.raises(ValueError, match="quantizer spec"):
            precoding.precode(kind, h, sigma2, spec=spec)
        return
    out = precoding.precode(kind, h, sigma2, spec=spec)
    if kind in ("MRT", "ZF", "QCE"):
        want = _baseline_reference(kind, h, sigma2)
    else:
        if kind == "WFQ" and spec is not None:
            ref = precoding.wfq_precode(h, sigma2, spec=spec)[0]
        else:
            ref = precoding.wf_precode(h, sigma2)
        want = (ref.P, ref.beta, ref.kind)
    assert np.array_equal(out.P, want[0])
    assert (out.beta, out.kind) == want[1:]


def _a_column_reference(kind, h, sigma2, spec):
    # each precoder with its A columns written out: MRT as h^H / ||h||_F, the
    # regularized ones as A-column solves against H, and beta from the full
    # product H P
    users = h.shape[0]
    gain, sigma_d2 = 1.0, 0.0
    if kind == "WFQ":
        gain = precoding.bussgang_gain(spec, 1.0)
        sigma_d2 = (1.0 - gain) * (users * sigma2 + 1.0)
    if kind == "MRT":
        raw = h.conj().T
    else:
        theta = 0.0 if kind == "ZF" else sigma2 + sigma_d2
        gram = h @ h.conj().T + users * theta * np.eye(users)
        raw = np.linalg.solve(gram, h).conj().T
    P = raw * np.sqrt(1.0 / np.sum(np.abs(raw) ** 2))
    hfp = gain * (h @ P)
    den = np.sum(np.abs(hfp) ** 2) + sigma_d2 * np.sum(np.abs(h) ** 2) + users * sigma2
    return P, np.trace(hfp).real / den


@pytest.mark.parametrize("dims", [(20, 128), (30, 256), (128, 256)], ids=lambda d: "x".join(map(str, d)))
@pytest.mark.parametrize("kind", ["MRT", "ZF", "WF", "WFQ", "QCE"])
def test_precoders_match_the_a_column_form(kind, dims):
    h = np.sqrt(dims[1]) * _chan(*dims, 190 + dims[0])
    spec = QuantizerSpec(3)
    for sigma2 in (0.0, 1e-3, 0.1, 1.0):
        out = precoding.precode(kind, h, sigma2, spec=spec)
        P, beta = _a_column_reference(kind, h, sigma2, spec)
        assert np.linalg.norm(out.P - P) <= 1e-12 * np.linalg.norm(P), sigma2
        assert abs(out.beta - beta) <= 1e-12 * beta, sigma2


@pytest.mark.parametrize("kind", ["WF", "WFQ", "QCE", "ZF"])
def test_precoders_match_the_a_column_form_on_rank_deficient_cleaned_csi(kind):
    # cleaning at eta 0.9 zeroes 5 of this 20x128 observation's singular
    # values, so the cleaned CSI's Gram eigenvalues hold exact zeros; at
    # theta > 0 the spectral precoders still match the A-column solve, and
    # ZF, on the cleaned GramEig or on the bare matrix, finds R singular and
    # sends nothing on its null directions: the normalized pseudo-inverse
    dims = channel.SystemDims(20, 128)
    h = channel.gen_channel(dims, np.random.default_rng(0))
    model = channel.CorruptionModel(0.9)
    y = channel.corrupt(h, model, channel.gen_error(dims, model, np.random.default_rng(100)))
    csi = rie.clean_channel(y, model).scaled(np.sqrt(dims.antennas))
    assert np.count_nonzero(csi.values == 0.0) == 5
    spec = QuantizerSpec(3)
    if kind == "ZF":
        P = np.linalg.pinv(csi.matrix)
        P /= np.linalg.norm(P)
        hp = csi.matrix @ P
        beta = np.trace(hp).real / (np.linalg.norm(hp) ** 2 + dims.users * 0.1)
        for given in (csi, csi.matrix):
            out = precoding.precode(kind, given, 0.1, spec=spec)
            assert np.linalg.norm(out.P - P) <= 1e-12 * np.linalg.norm(P)
            assert abs(out.beta - beta) <= 1e-12 * beta
        return
    for sigma2 in (1e-3, 0.1, 1.0):
        out = precoding.precode(kind, csi, sigma2, spec=spec)
        P, beta = _a_column_reference(kind, csi.matrix, sigma2, spec)
        assert np.linalg.norm(out.P - P) <= 1e-12 * np.linalg.norm(P), sigma2
        assert abs(out.beta - beta) <= 1e-12 * beta, sigma2


@pytest.mark.parametrize("kind", PRECODERS)
def test_every_precoder_radiates_unit_power(kind):
    # the total transmit power is fixed at 1 whatever the channel scale
    h = 3.0 * np.sqrt(48) * _chan(12, 48, 156)
    out = precoding.precode(kind, h, 0.05, spec=QuantizerSpec(3))
    assert abs(np.sum(np.abs(out.P) ** 2) - 1.0) <= 1e-12


def test_precode_takes_no_power_argument():
    # spec is keyword-only, so an old positional power cannot land in it
    with pytest.raises(TypeError):
        precoding.precode("WF", _chan(4, 8, 157), 0.05, 1.0)
    for fn in (precoding.precode, precoding.wf_precode, precoding.wfq_precode):
        assert "p_total" not in inspect.signature(fn).parameters
    assert "p_total" not in {f.name for f in dataclasses.fields(precoding.PrecodeOutput)}


def test_precode_rejects_a_zero_channel():
    # no direction to send in: the power normalization has nothing to scale
    with pytest.raises(np.linalg.LinAlgError, match="zero precoding matrix"):
        precoding.precode("MRT", np.zeros((4, 16)), 0.1)


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
    out = precoding.precode("QCE", h, 0.05, spec=spec)
    rng = np.random.default_rng(160)
    s = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) / np.sqrt(2.0)
    x = precoding.transmit(out, s, spec=spec)
    assert np.max(np.abs(np.abs(x) - np.sqrt(1.0 / 16))) < 1e-12
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
    W, E = out.csi.antenna_vectors, out.csi.vectors
    assert np.array_equal(x, W @ ((E * out.gains).conj().T @ s))
    assert np.linalg.norm(x - out.P @ s) <= 1e-13 * np.linalg.norm(x)


def test_transmit_quantizes_its_own_block_in_place():
    # the DAC overwrites transmit's own P s block, the one A×N block it makes;
    # the antenna products of the CSI are made by the first call and kept
    users, antennas, symbols = 30, 256, 100
    spec = QuantizerSpec(3)
    pout = precoding.precode("WFQ", np.sqrt(antennas) * _chan(users, antennas, 181), 0.1, spec=spec)
    rng = np.random.default_rng(182)
    s = rng.standard_normal((users, symbols)) + 1j * rng.standard_normal((users, symbols))
    s_before, P_before = s.copy(), pout.P.copy()
    precoding.transmit(pout, s, spec)  # fills the power-constant cache
    tracemalloc.start()
    try:
        precoding.transmit(pout, s, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = antennas * symbols * np.dtype(complex).itemsize
    assert peak <= 1.5 * block, peak / block
    assert s.tobytes() == s_before.tobytes()
    assert pout.P.tobytes() == P_before.tobytes()


@pytest.mark.parametrize(
    "kind, spec",
    [("WFQ", QuantizerSpec(3)), ("WF", None), ("MRT", QuantizerSpec(2)), ("QCE", QuantizerSpec(3))],
)
def test_transmit_into_out_returns_it_with_the_fresh_bits(kind, spec):
    # every call returns its own block, sharing no memory with an earlier
    # result or with the symbols
    users, antennas, symbols = 5, 24, 17
    pout = precoding.precode(kind, np.sqrt(antennas) * _chan(users, antennas, 187), 0.1, spec=spec)
    rng = np.random.default_rng(188)
    s = rng.standard_normal((users, symbols)) + 1j * rng.standard_normal((users, symbols))
    fresh = precoding.transmit(pout, s, spec)
    again = precoding.transmit(pout, s, spec)
    assert not np.shares_memory(again, fresh) and not np.shares_memory(again, s)
    assert again.tobytes() == fresh.tobytes()


def test_precode_and_transmit_into_out_make_nothing_antenna_sized():
    # precode forms only the U gains; transmit makes its result and under
    # half an A×N block besides
    users, antennas, symbols = 30, 256, 100
    spec = QuantizerSpec(3)
    csi = channel.gram_eig(np.sqrt(antennas) * _chan(users, antennas, 189))
    rng = np.random.default_rng(190)
    s = rng.standard_normal((users, symbols)) + 1j * rng.standard_normal((users, symbols))
    precoding.transmit(precoding.precode("WFQ", csi, 0.1, spec=spec), s, spec)
    tracemalloc.start()
    try:
        pout = precoding.precode("WFQ", csi, 0.2, spec=spec)
        precode_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    column = antennas * np.dtype(complex).itemsize
    assert precode_peak < column, precode_peak
    # E^H s (U×N), a few per-antenna vectors and numpy's broadcast buffers
    # beside the result; an SNR sweep of three points sent in one pass
    # stays under the same margin, its (3, U, N) products gone before the
    # DAC's buffers
    sweep = [precoding.precode("WFQ", csi, sigma2, spec=spec) for sigma2 in (0.3, 0.1, 0.03)]
    for pouts, points in ((pout, 1), (sweep, 3)):
        tracemalloc.start()
        try:
            precoding.transmit(pouts, s, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (points + 0.5) * column * symbols, (points, peak / (column * symbols))


_SWEEP_SIGMA2 = (0.3, 0.1, 0.02)


def _sweep(kind, spec, points, seed):
    """The precoders of ``points`` SNRs on one 5x24 CSI's GramEig."""
    csi = channel.gram_eig(np.sqrt(24) * _chan(5, 24, seed))
    return [precoding.precode(kind, csi, sigma2, spec=spec) for sigma2 in _SWEEP_SIGMA2[:points]]


@pytest.mark.parametrize("points", [1, 2, 3])
@pytest.mark.parametrize("spec", [None, QuantizerSpec(3)], ids=["bypass", "auto"])
@pytest.mark.parametrize("kind", PRECODERS)
def test_stacked_transmit_equals_each_lone_transmit(kind, spec, points):
    pouts = _sweep(kind, QuantizerSpec(3) if kind == "QCE" else spec, points, 191)
    rng = np.random.default_rng(192)
    block = rng.standard_normal((5, 17)) + 1j * rng.standard_normal((5, 17))
    if kind == "QCE" and spec is None:
        for arg in (pouts[0], pouts):
            with pytest.raises(ValueError, match="QCE"):
                precoding.transmit(arg, block, spec)
        return
    # (U, N) symbols, a (U,) vector and a strided column of the block
    for s in (block, block[:, 0].copy(), block[:, 3]):
        stacked = precoding.transmit(pouts, s, spec)
        assert stacked.shape == (points, 24) + s.shape[1:]
        for pout, x in zip(pouts, stacked):
            lone = precoding.transmit(pout, s, spec)
            assert lone.shape == (24,) + s.shape[1:]
            # bytes, so that a -0.0 turned into 0.0 would show
            assert x.tobytes() == lone.tobytes()


def test_stacked_transmit_needs_one_gram_eig_and_one_kind():
    spec = QuantizerSpec(3)
    h = np.sqrt(24) * _chan(5, 24, 193)
    s = np.ones((5, 4), dtype=complex)
    # the same channel decomposed twice is two GramEigs
    first, second = (precoding.precode("WFQ", h, 0.1, spec=spec) for _ in range(2))
    with pytest.raises(ValueError, match="GramEig"):
        precoding.transmit([first, second], s, spec)
    mrt = precoding.precode("MRT", first.csi, 0.1, spec=spec)
    with pytest.raises(ValueError, match="kind"):
        precoding.transmit([first, mrt], s, spec)
    with pytest.raises(ValueError, match="at least one"):
        precoding.transmit([], s, spec)


@pytest.mark.parametrize("users, antennas", [(20, 128), (30, 256), (128, 256)])
def test_batched_matmul_slices_equal_the_lone_products(users, antennas):
    # The stacked transmit and the link's one H x product rest on numpy's
    # batched matmul making, per slice, the BLAS call of the lone 2-D (or
    # matrix-vector) product, at the operands' layouts.  If a numpy or BLAS
    # upgrade breaks that, this fails here instead of the CSVs changing.
    rng = np.random.default_rng(users + antennas)

    def cn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    symbols, points = 100, 3
    for _ in range(3):
        h = cn(users, antennas)
        vectors = np.linalg.eigh(h @ h.conj().T)[1]
        w = vectors.conj().T @ h
        antenna_vectors = np.conjugate(w, out=w).T  # F-ordered, as GramEig keeps it
        weights = antenna_vectors.real ** 2 + antenna_vectors.imag ** 2
        g = rng.uniform(0.1, 2.0, (points, users))
        s = cn(users, symbols)
        factors = (vectors * g[:, None, :]).conj().transpose(0, 2, 1)
        v = factors @ s
        x = np.matmul(antenna_vectors, v)
        column = factors @ s[:, 5:6]
        rx = np.matmul(h, x)
        power = weights @ (g * g)[:, :, None]
        for i in range(points):
            lone_factor = (vectors * g[i]).conj().T
            assert v[i].tobytes() == (lone_factor @ s).tobytes()
            assert x[i].tobytes() == (antenna_vectors @ v[i]).tobytes()
            assert rx[i].tobytes() == (h @ x[i]).tobytes()
            # the matrix-vector shapes: a (U, 1) column against a (U,) vector
            assert column[i, :, 0].tobytes() == (lone_factor @ s[:, 5]).tobytes()
            assert power[i, :, 0].tobytes() == (weights @ (g[i] * g[i])).tobytes()


def test_transmit_zero_symbols_hit_half_step_corner():
    h = _chan(6, 24, 163)
    out = precoding.wf_precode(h, 0.1)
    spec = QuantizerSpec(3)
    x = precoding.transmit(out, np.zeros(6, dtype=complex), spec=spec)
    sigma_m2 = np.sum(np.abs(out.P) ** 2, axis=1)
    steps = precoding.optimal_step(3) * np.sqrt(sigma_m2 / 2.0)
    # the radiated-power scaling is one deterministic scalar: the summed
    # per-antenna output power
    scale = np.sqrt(1.0 / sum(precoding.quantized_power(spec, v) for v in sigma_m2))
    want = 0.5 * steps * (1.0 + 1.0j) * scale
    assert np.max(np.abs(x - want)) < 1e-15


def test_transmit_renormalization_restores_radiated_power():
    h = _chan(8, 64, 165)
    out = precoding.wf_precode(h, 0.05)
    spec = QuantizerSpec(3)
    rng = np.random.default_rng(166)
    draws = 4000
    acc = 0.0
    for _ in range(draws):
        s = (rng.standard_normal(8) + 1j * rng.standard_normal(8)) / np.sqrt(2.0)
        x = precoding.transmit(out, s, spec=spec)
        acc += float(np.sum(np.abs(x) ** 2))
    assert abs(acc / draws - 1.0) < 0.02
