"""Channel generation, corruption, block augmentation, and matrix I/O."""

import numpy as np
import pytest

from eiprecode import channel
from eiprecode.channel import CorruptionModel, SystemDims


def _chan(u, a, seed):
    return channel.gen_channel(SystemDims(u, a), np.random.default_rng(seed))


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
    with pytest.raises(ValueError):
        CorruptionModel(0.5, c=0.0)


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
# corruption


def test_corrupt_zero_eta_returns_copy():
    h = _chan(8, 16, 3)
    y = channel.corrupt(h, CorruptionModel(0.0), np.random.default_rng(0))
    assert np.array_equal(y, h)
    assert y is not h


def test_corrupt_additive_power_scale():
    h = _chan(30, 256, 21)
    y = channel.corrupt(h, CorruptionModel(0.5, mode="additive"), np.random.default_rng(22))
    assert abs(np.mean(np.abs(y) ** 2) * 256 - 2.0) < 0.05


def test_corrupt_damped_power_scale():
    h = _chan(30, 256, 23)
    y = channel.corrupt(h, CorruptionModel(0.5, mode="damped"), np.random.default_rng(24))
    assert abs(np.mean(np.abs(y) ** 2) * 256 - 1.0) < 0.05


def test_damped_normalizes_onto_additive_with_shared_noise_stream():
    h = _chan(30, 256, 31)
    eta = 0.5
    y_damped = channel.corrupt(h, CorruptionModel(eta, mode="damped"), np.random.default_rng(32))
    y_add = channel.corrupt(h, CorruptionModel(eta, mode="additive"), np.random.default_rng(32))
    lifted = channel.normalize_observation(y_damped, eta)
    assert np.max(np.abs(lifted - y_add)) < 1e-12


def test_normalize_observation():
    h = _chan(6, 12, 5)
    assert np.array_equal(channel.normalize_observation(h, 0.0), h)
    scaled = channel.normalize_observation(h, 0.5)
    assert np.max(np.abs(scaled - h * np.sqrt(2.0))) < 1e-15
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            channel.normalize_observation(h, bad)


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
