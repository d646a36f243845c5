"""Channel generation, corruption, block augmentation, and matrix I/O."""

import numpy as np
import pytest

from eiprecode import channel
from eiprecode.channel import CorruptionModel, SystemDims


def _chan(u, a, seed):
    return channel.gen_channel(SystemDims(u, a), np.random.default_rng(seed))


def _corrupt(h, model, seed):
    # h under model, with the error drawn from a fresh generator
    dims = SystemDims(*h.shape)
    return channel.corrupt(h, model, channel.gen_error(dims, model, np.random.default_rng(seed)))


# ---------------------------------------------------------------------------
# dimension / corruption dataclasses


def test_system_dims_validation():
    d = SystemDims(30, 256)
    assert d.q == 30 / 256
    for u, a in ((0, 8), (-1, 8), (8, 8), (9, 8)):
        with pytest.raises(ValueError):
            SystemDims(u, a)


def test_corruption_model_validation():
    CorruptionModel(0.0)
    CorruptionModel(0.999, mode="damped", c=2.0)
    with pytest.raises(ValueError):
        CorruptionModel(-0.1)
    with pytest.raises(ValueError):
        CorruptionModel(1.0)
    with pytest.raises(ValueError):
        CorruptionModel(0.5, mode="multiplicative")
    for c in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="c must be positive"):
            CorruptionModel(0.5, c=c)


def test_corruption_alpha():
    assert abs(CorruptionModel(0.5).alpha() - 1.0) < 1e-15
    assert abs(CorruptionModel(0.5, c=4.0).alpha() - 2.0) < 1e-15
    assert CorruptionModel(0.0).alpha() == 0.0


# ---------------------------------------------------------------------------
# channel draws


def test_gen_channel_is_deterministic_per_seed():
    a = _chan(30, 256, 7)
    b = _chan(30, 256, 7)
    c = _chan(30, 256, 8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_gen_channel_entry_variance():
    h = _chan(30, 256, 11)
    assert h.shape == (30, 256)
    assert abs(np.mean(np.abs(h) ** 2) * 256 - 1.0) < 0.05


def test_gen_channel_gram_matches_mp_histogram():
    # pooled draws; continuous MP bulk with ratio q = 1/4
    u, a_dim, draws, bins = 128, 512, 16, 25
    q = u / a_dim
    lo, hi = (1 - np.sqrt(q)) ** 2, (1 + np.sqrt(q)) ** 2
    eigs = np.concatenate(
        [
            np.linalg.eigvalsh(h @ h.conj().T)
            for h in (_chan(u, a_dim, 88_000 + d) for d in range(draws))
        ]
    )
    hist, edges = np.histogram(eigs, bins=bins, range=(lo, hi), density=True)
    centers = (edges[:-1] + edges[1:]) / 2
    width = edges[1] - edges[0]
    frac = np.mean((eigs >= lo) & (eigs <= hi))
    dens = np.sqrt((hi - centers) * (centers - lo)) / (2 * np.pi * q * centers)
    l1 = np.sum(np.abs(hist * frac - dens)) * width
    assert l1 < 0.08, l1


# ---------------------------------------------------------------------------
# Gram eigendecomposition


def test_gram_eig_antenna_products_are_made_once_and_kept():
    h = _chan(6, 40, 9)
    csi = channel.gram_eig(h)
    w = csi.antenna_vectors
    assert w.shape == (40, 6)
    want = h.conj().T @ csi.vectors
    assert np.max(np.abs(w - want)) <= 1e-14 * np.max(np.abs(want))
    assert np.array_equal(csi.antenna_weights, w.real ** 2 + w.imag ** 2)
    assert csi.antenna_weights.dtype == float
    # cached: every precoder on this GramEig transmits through one copy
    assert csi.antenna_vectors is w and csi.antenna_weights is csi.antenna_weights
    # a rescaled GramEig makes its own
    scaled = csi.scaled(2.0)
    assert np.max(np.abs(scaled.antenna_vectors - 2.0 * w)) <= 1e-14 * np.max(np.abs(w))


# ---------------------------------------------------------------------------
# corruption


def test_corrupt_zero_eta_returns_copy():
    # at eta 0 no error is read, so none need be drawn
    h = _chan(8, 16, 3)
    y = channel.corrupt(h, CorruptionModel(0.0), None)
    assert np.array_equal(y, h)
    assert y is not h


@pytest.mark.parametrize("mode, c", [("additive", 1.0), ("additive", 3.0), ("damped", 3.0)])
def test_gen_error_law_reads_the_mode_and_c_but_not_eta(mode, c):
    # damped errors have variance c/A, additive ones 1/A whatever c; eta is
    # never read, so one draw serves every level
    dims = SystemDims(30, 256)
    draws = [
        channel.gen_error(dims, CorruptionModel(eta, mode, c), np.random.default_rng(41))
        for eta in (0.0, 0.2, 0.9)
    ]
    assert all(np.array_equal(d, draws[0]) for d in draws)
    var = c if mode == "damped" else 1.0
    assert draws[0].shape == (30, 256)
    assert np.mean(np.abs(draws[0]) ** 2) * 256 == pytest.approx(var, rel=0.05)


# from the smallest system to the paper's 30x256
_DRAW_SHAPES = [(1, 2), (2, 3), (3, 8), (4, 16), (7, 33), (20, 128), (30, 256)]


def _bits(z):
    return np.ascontiguousarray(z).view(np.uint64)


def _written_out_cn(rng, u, a, var):
    # the draw as first written: real parts from the first normal fill,
    # imaginary parts from the second, in complex arithmetic
    re = rng.standard_normal((u, a))
    im = rng.standard_normal((u, a))
    return np.sqrt(var / 2.0) * (re + 1j * im)


@pytest.mark.parametrize("u, a", _DRAW_SHAPES)
def test_draws_and_mixes_equal_their_written_out_expressions_to_the_bit(u, a):
    dims = SystemDims(u, a)
    for seed in range(50):
        eta = 0.05 + 0.9 * seed / 50
        h = channel.gen_channel(dims, np.random.default_rng(seed))
        assert np.array_equal(_bits(h), _bits(_written_out_cn(np.random.default_rng(seed), u, a, 1.0 / a)))
        for model in (CorruptionModel(eta, "damped", 2.5), CorruptionModel(eta, "additive", 2.5)):
            e = channel.gen_error(dims, model, np.random.default_rng(seed + 1000))
            var = (model.c if model.mode == "damped" else 1.0) / a
            ref_e = _written_out_cn(np.random.default_rng(seed + 1000), u, a, var)
            assert np.array_equal(_bits(e), _bits(ref_e)), model
            if model.mode == "damped":
                ref = np.sqrt(1.0 - eta) * h + np.sqrt(eta) * e
            else:
                ref = h + model.alpha() * e
            assert np.array_equal(_bits(channel.corrupt(h, model, e)), _bits(ref)), model


def test_corrupt_additive_power_scale():
    h = _chan(30, 256, 21)
    y = _corrupt(h, CorruptionModel(0.5, mode="additive"), 22)
    assert abs(np.mean(np.abs(y) ** 2) * 256 - 2.0) < 0.05


def test_corrupt_damped_power_scale():
    h = _chan(30, 256, 23)
    y = _corrupt(h, CorruptionModel(0.5, mode="damped"), 24)
    assert abs(np.mean(np.abs(y) ** 2) * 256 - 1.0) < 0.05


def test_damped_normalizes_onto_additive_with_shared_noise_stream():
    h = _chan(30, 256, 31)
    eta = 0.5
    y_damped = _corrupt(h, CorruptionModel(eta, mode="damped"), 32)
    y_add = _corrupt(h, CorruptionModel(eta, mode="additive"), 32)
    lifted = CorruptionModel(eta, mode="damped").additive_form(y_damped)
    assert np.max(np.abs(lifted - y_add)) < 1e-12


def test_normalize_observation():
    h = _chan(6, 12, 5)
    at_zero = CorruptionModel(0.0, mode="damped").additive_form(h)
    assert np.array_equal(at_zero, h) and at_zero is not h
    scaled = CorruptionModel(0.5, mode="damped").additive_form(h)
    assert np.max(np.abs(scaled - h * np.sqrt(2.0))) < 1e-15
    # an additive observation is already in additive form
    assert CorruptionModel(0.5).additive_form(h) is h
    bad = h.copy()
    bad[1, 2] = np.inf
    for mode in ("additive", "damped"):  # the one matrix check, in both modes
        with pytest.raises(ValueError, match="non-finite"):
            CorruptionModel(0.5, mode=mode).additive_form(bad)


# ---------------------------------------------------------------------------
# block augmentation


def test_build_bsca_structure():
    h = _chan(30, 256, 41)
    b = channel.build_bsca(h)
    assert b.shape == (286, 286)
    assert np.array_equal(b[:30, :30], np.zeros((30, 30)))
    assert np.array_equal(b[30:, 30:], np.zeros((256, 256)))
    assert np.array_equal(b[:30, 30:], h)
    assert np.max(np.abs(b - b.conj().T)) == 0.0


def test_build_bsca_spectrum_is_paired_singular_values():
    h = _chan(30, 256, 43)
    b = channel.build_bsca(h)
    eigs = np.sort(np.linalg.eigvalsh(b))
    sv = np.linalg.svd(h, compute_uv=False)
    zeros = np.sum(np.abs(eigs) < 1e-10)
    assert zeros == 256 - 30
    expected = np.sort(np.concatenate([sv, -sv, np.zeros(226)]))
    assert np.max(np.abs(eigs - expected)) < 1e-10
    # trace identity tr(B^2) = 2 ||H||_F^2
    assert abs(np.sum(eigs**2) - 2.0 * np.sum(np.abs(h) ** 2)) < 1e-10


def test_build_bsca_validation():
    with pytest.raises(ValueError):
        channel.build_bsca(np.zeros(5, dtype=complex))
    with pytest.raises(ValueError):
        channel.build_bsca(np.zeros((8, 8), dtype=complex))
    with pytest.raises(ValueError):
        channel.build_bsca(np.zeros((9, 8), dtype=complex))
