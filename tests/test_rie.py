"""Singular-value cleaning pipeline: decomposition, local resolvent, cleaning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eiprecode import channel, rie, rmt
from eiprecode.channel import CorruptionModel, SystemDims


def _draw(u, a, level, seed_h, seed_e):
    h = channel.gen_channel(SystemDims(u, a), np.random.default_rng(seed_h))
    y = channel.corrupt(
        h, CorruptionModel(level, mode="additive"), np.random.default_rng(seed_e)
    )
    return h, y


def _reference_clean(x, eta_hat, q):
    """The cleaner in its BSCA form: eigh of [[0, X], [X^H, 0]], clean each
    positive eigenvalue, give its negative partner the negated value, and read
    the cleaned channel off the upper-right block."""
    u, a = x.shape
    w, v = np.linalg.eigh(channel.build_bsca(x))
    nonzero = np.abs(w) > 1e-10 * np.abs(w).max()
    pos = np.flatnonzero(nonzero & (w > 0))
    neg = np.flatnonzero(nonzero & (w < 0))
    alpha = np.sqrt(eta_hat / (1.0 - eta_hat))
    eps = rmt.default_epsilon(u + a)
    lam = np.zeros_like(w)
    for k in pos:
        h = -rie.local_stieltjes(w[nonzero], w[k], eps)[0]
        lam[k] = rie.shrink_eigenvalue(w[k], h, q, alpha)
    for j in neg:
        lam[j] = -lam[pos[np.argmin(np.abs(w[pos] + w[j]))]]
    return ((v * lam) @ v.conj().T)[:u, u:]


@st.composite
def _observations(draw):
    u = draw(st.integers(1, 12))
    a = draw(st.integers(u + 1, 48))
    seed = draw(st.integers(0, 2**32 - 1))
    return channel.gen_channel(SystemDims(u, a), np.random.default_rng(seed))


_ETA_HAT = st.floats(0.0, 0.95, exclude_max=True)

_RANK_ONE = np.array([[3.0, 0.0, 0.0]], dtype=complex)


# ---------------------------------------------------------------------------
# thin SVD: the positive half of the BSCA eigenpairs


def _bsca_pairs(u, vh, sign):
    # BSCA eigenvectors [u_k; sign v_k] / sqrt(2) of the eigenvalues sign * s_k
    return np.vstack([u, sign * vh.conj().T]) / np.sqrt(2.0)


def test_eig_bsca_rank_one():
    u, s, vh = rie.eig_bsca(_RANK_ONE)
    assert np.allclose(s, [3.0], atol=1e-12)
    assert np.allclose(np.abs(u), [[1.0]], atol=1e-12)
    assert np.allclose(np.abs(vh), [[1.0, 0.0, 0.0]], atol=1e-12)
    b = channel.build_bsca(_RANK_ONE)
    for sign in (1.0, -1.0):
        vecs = _bsca_pairs(u, vh, sign)
        assert np.max(np.abs(b @ vecs - sign * 3.0 * vecs)) < 1e-12


def test_eig_bsca_pairs_match_singular_values():
    h, _ = _draw(30, 256, 0.0, 101, 0)
    b = channel.build_bsca(h)
    u, s, vh = rie.eig_bsca(h)
    assert u.shape == (30, 30) and s.shape == (30,) and vh.shape == (30, 256)
    assert np.all(np.diff(s) <= 0.0)
    w = np.linalg.eigvalsh(b)
    assert np.max(np.abs(np.sort(w[w > 1e-10]) - np.sort(s))) < 1e-10
    assert np.max(np.abs(np.sort(w[w < -1e-10]) + np.sort(s)[::-1])) < 1e-10
    for sign in (1.0, -1.0):
        vecs = _bsca_pairs(u, vh, sign)
        assert np.max(np.abs(b @ vecs - sign * vecs * s)) < 1e-10


def test_eig_bsca_reconstruction_residual():
    # the +/- pairs carry all of the BSCA: its null space adds nothing
    h, _ = _draw(12, 64, 0.0, 103, 0)
    b = channel.build_bsca(h)
    u, s, vh = rie.eig_bsca(h)
    back = sum(
        sign * (_bsca_pairs(u, vh, sign) * s) @ _bsca_pairs(u, vh, sign).conj().T
        for sign in (1.0, -1.0)
    )
    assert np.max(np.abs(back - b)) < 1e-10


def test_eig_bsca_validation():
    with pytest.raises(ValueError, match="2-D"):
        rie.eig_bsca(np.zeros(5, dtype=complex))
    with pytest.raises(ValueError, match="2-D"):
        rie.eig_bsca(np.zeros((2, 3, 4), dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.nan, 0.0)])
def test_eig_bsca_rejects_non_finite(bad):
    x = _draw(4, 8, 0.0, 103, 0)[0]
    x[2, 5] = bad
    with pytest.raises(ValueError, match="non-finite"):
        rie.eig_bsca(x)


def test_eig_bsca_all_zero_matrix():
    _, s, _ = rie.eig_bsca(np.zeros((4, 6), dtype=complex))
    assert np.array_equal(s, np.zeros(4))


# ---------------------------------------------------------------------------
# local leave-one-out resolvent


def test_local_stieltjes_two_atom_example():
    h, rho = rie.local_stieltjes(np.array([1.0, 3.0]), 1.0, 1.0)
    assert abs(h - 0.4) < 1e-14
    assert abs(rho - 0.2) < 1e-14


def test_local_stieltjes_single_eigenvalue():
    assert rie.local_stieltjes(np.array([2.0]), 2.0, 0.5) == (0.0, 0.0)


def test_local_stieltjes_large_epsilon_vanishes():
    h, rho = rie.local_stieltjes(np.array([1.0, 2.0, 3.0]), 2.0, 1e9)
    assert abs(h) < 1e-8
    assert abs(rho) < 1e-8


def test_local_stieltjes_validation():
    with pytest.raises(ValueError):
        rie.local_stieltjes(np.array([1.0]), 1.0, 0.0)
    with pytest.raises(ValueError):
        rie.local_stieltjes(np.array([]), 1.0, 0.5)


def test_local_stieltjes_tracks_analytic_resolvent():
    # pooled over 400 draws of a 30x256 observation at error level 1/2
    # (scale s = 2).  Interior point: the real part is unbiased; the
    # leave-one-out exclusion removes an O(1) share of the imaginary part at
    # the local scale, which is asserted as a documented deficit.  Exterior
    # point: both parts track the analytic resolvent.
    u, a_dim = 30, 256
    eps = rmt.default_epsilon(u + a_dim)
    omega_in, omega_out = 2.0, 4.2
    acc = np.zeros(4)
    draws = 400
    for d in range(draws):
        _, y = _draw(u, a_dim, 0.5, 81_000 + d, 82_000 + d)
        eigs = np.linalg.eigvalsh(y @ y.conj().T)
        acc += np.concatenate(
            [
                rie.local_stieltjes(eigs, omega_in, eps),
                rie.local_stieltjes(eigs, omega_out, eps),
            ]
        )
    acc /= draws
    g_in = rmt.noisy_gram_stieltjes(omega_in + 1j * eps, u / a_dim, 1.0)
    g_out = rmt.noisy_gram_stieltjes(omega_out + 1j * eps, u / a_dim, 1.0)
    assert abs(acc[0] - g_in.real) < 5e-2
    assert g_in.imag - acc[1] > 0.3  # leave-one-out density deficit in the bulk
    assert abs(acc[2] - g_out.real) < 5e-2
    assert abs(acc[3] - g_out.imag) < 5e-2


# ---------------------------------------------------------------------------
# singular-value rule


def test_shrink_noise_free_identities():
    # alpha = 0 leaves every singular value unchanged, whatever h is
    for y, h in ((0.3, 0.25), (1.7, -0.4), (4.2, 3.0)):
        assert rie.shrink_eigenvalue(y, h, 0.25, 0.0) == pytest.approx(y, abs=1e-14)
    # inside the clamp the rule is y - a2 ((1 - q)/y + 2 q h)
    assert rie.shrink_eigenvalue(2.0, 0.5, 0.25, 0.5) == pytest.approx(
        2.0 - 0.25 * (0.75 / 2.0 + 2.0 * 0.25 * 0.5), abs=1e-14
    )


def test_shrink_clamps_at_zero():
    # small y with unit-scale noise drives the formula negative
    assert rie.shrink_eigenvalue(0.1, 0.5, 0.5, 1.0) == 0.0
    # a strongly negative h would inflate y; the output stays in [0, y]
    assert rie.shrink_eigenvalue(1.0, -50.0, 0.5, 1.0) == 1.0
    for y in (0.05, 0.5, 1.0, 3.0):
        for h in (-5.0, -0.5, 0.0, 0.5, 5.0):
            xi = rie.shrink_eigenvalue(y, h, 0.25, 0.7)
            assert 0.0 <= xi <= y


def test_shrink_validation():
    with pytest.raises(ValueError):
        rie.shrink_eigenvalue(1.0, 0.1, 0.5, -0.5)
    with pytest.raises(TypeError):
        rie.shrink_eigenvalue(1.0, 0.1, 0.5, 1.0, variant="bayes")  # no variants


def test_shrunk_gram_eigenvalues_beat_raw_ones():
    dev_shrunk, dev_raw = [], []
    for d in range(100):
        h, y = _draw(30, 256, 0.5, 8_300 + d, 8_700 + d)
        true_e = np.sort(np.linalg.eigvalsh(h @ h.conj().T))
        noisy_e = np.sort(np.linalg.eigvalsh(y @ y.conj().T))
        hc = rie.clean_channel(y, 0.5, 30 / 256)
        clean_e = np.sort(np.linalg.eigvalsh(hc @ hc.conj().T))
        dev_shrunk.append(np.mean((clean_e - true_e) ** 2))
        dev_raw.append(np.mean((noisy_e - true_e) ** 2))
    assert np.mean(dev_shrunk) < np.mean(dev_raw)


# ---------------------------------------------------------------------------
# reconstruction


def test_reconstruct_identity_round_trip():
    h, _ = _draw(10, 40, 0.0, 107, 0)
    u, s, vh = rie.eig_bsca(h)
    assert np.max(np.abs(rie.reconstruct(u, s, vh) - h)) < 1e-10


def test_reconstruct_zero_spectrum_gives_zero_matrix():
    h, _ = _draw(6, 24, 0.0, 109, 0)
    u, s, vh = rie.eig_bsca(h)
    out = rie.reconstruct(u, np.zeros_like(s), vh)
    assert out.shape == h.shape
    assert np.max(np.abs(out)) == 0.0


def test_reconstruct_scales_each_singular_direction():
    h, _ = _draw(4, 8, 0.0, 111, 0)
    u, s, vh = rie.eig_bsca(h)
    xi = np.array([2.0, 0.0, 0.5, 1.0])
    out = rie.reconstruct(u, xi, vh)
    assert np.max(np.abs(u.conj().T @ out @ vh.conj().T - np.diag(xi))) < 1e-12


# ---------------------------------------------------------------------------
# cleaning pipeline


def test_clean_channel_zero_eta_is_identity():
    h, _ = _draw(12, 64, 0.0, 113, 0)
    out = rie.clean_channel(h, 0.0, 12 / 64)
    assert np.max(np.abs(out - h)) < 1e-10


def test_clean_channel_validation():
    h, _ = _draw(4, 8, 0.0, 115, 0)
    with pytest.raises(ValueError):
        rie.clean_channel(h, 1.0, 0.5)
    with pytest.raises(ValueError):
        rie.clean_channel(h, -0.1, 0.5)
    with pytest.raises(ValueError):
        rie.clean_channel(h, 0.3, 0.5, mode="multiplicative")


@pytest.mark.parametrize("mode", ["additive", "damped"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_clean_channel_rejects_non_finite(mode, bad):
    _, y = _draw(4, 8, 0.3, 123, 124)
    y[0, 3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        rie.clean_channel(y, 0.3, 0.5, mode=mode)


@settings(max_examples=60, deadline=None)
@given(_observations(), _ETA_HAT)
def test_clean_channel_never_grows_the_spectral_norm(y, eta_hat):
    u, a = y.shape
    hc = rie.clean_channel(y, eta_hat, u / a)
    assert np.linalg.norm(hc, 2) <= np.linalg.norm(y, 2) * (1.0 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(_observations(), _ETA_HAT)
def test_clean_channel_preserves_kept_eigenvectors(y, eta_hat):
    u, a = y.shape
    left, s, vh = np.linalg.svd(y, full_matrices=False)
    hc = rie.clean_channel(y, eta_hat, u / a)
    # in the observed singular bases the cleaned channel is diagonal, real
    # and nonnegative, so it is sum_k xi_k u_k v_k^H with the same u_k, v_k:
    # the BSCA eigenvectors [u_k; +/-v_k] / sqrt(2) are kept
    core = left.conj().T @ hc @ vh.conj().T
    xi = np.real(np.diag(core))
    assert np.max(np.abs(core - np.diag(xi))) < 1e-10
    assert np.max(np.abs(hc - (left * xi) @ vh)) < 1e-10
    assert np.all(xi >= -1e-12) and np.all(xi <= s * (1.0 + 1e-12))


@settings(max_examples=60, deadline=None)
@given(_observations(), _ETA_HAT, st.sampled_from(["additive", "damped"]))
def test_clean_channel_matches_the_bsca_reference(y, eta_hat, mode):
    u, a = y.shape
    x = channel.normalize_observation(y, eta_hat) if mode == "damped" else y
    hc = rie.clean_channel(y, eta_hat, u / a, mode=mode)
    assert np.max(np.abs(hc - _reference_clean(x, eta_hat, u / a))) < 1e-10


def test_clean_channel_matches_the_bsca_reference_on_rank_deficient_inputs():
    rng = np.random.default_rng(125)
    rank_two = _draw(4, 10, 0.0, 126, 0)[0]
    rank_two[2:] = rng.standard_normal((2, 2)) @ rank_two[:2]
    for x in (_RANK_ONE, rank_two, np.zeros((2, 5), dtype=complex)):
        u, a = x.shape
        for eta_hat in (0.0, 0.3, 0.9):
            hc = rie.clean_channel(x, eta_hat, u / a)
            assert np.max(np.abs(hc - _reference_clean(x, eta_hat, u / a))) < 1e-10
    # the null directions of the rank-two input map to 0
    s = np.linalg.svd(rie.clean_channel(rank_two, 0.3, 0.4), compute_uv=False)
    assert np.max(s[2:]) < 1e-12


def test_clean_channel_wins_at_mid_error_level():
    wins = 0
    for d in range(20):
        h, y = _draw(20, 256, 0.5, 7_000 + d, 7_500 + d)
        hc = rie.clean_channel(y, 0.5, 20 / 256)
        wins += rie.mse(h, hc) <= rie.mse(h, y)
    assert wins == 20, wins


def test_clean_channel_wins_at_low_error_level():
    wins = 0
    for d in range(20):
        h, y = _draw(20, 256, 0.1, 7_000 + d, 7_500 + d)
        hc = rie.clean_channel(y, 0.1, 20 / 256)
        wins += rie.mse(h, hc) <= rie.mse(h, y)
    assert wins >= 10, wins


def test_clean_channel_reaches_oracle_floor_factor():
    ratios = []
    for d in range(20):
        h, y = _draw(20, 256, 0.5, 7_000 + d, 7_500 + d)
        hc = rie.clean_channel(y, 0.5, 20 / 256)
        ratios.append(rie.mse(h, hc) / (0.5 / 256))
    assert np.mean(ratios) <= 1.5, np.mean(ratios)


# ---------------------------------------------------------------------------
# baselines and error metric


def test_linear_mmse_baseline_identity_and_validation():
    h, _ = _draw(4, 8, 0.0, 119, 0)
    assert np.array_equal(rie.linear_mmse_baseline(h, 0.0), h)
    with pytest.raises(ValueError):
        rie.linear_mmse_baseline(h, 1.0)


def test_linear_mmse_baseline_hits_oracle_error():
    devs = []
    for d in range(30):
        h = channel.gen_channel(SystemDims(30, 256), np.random.default_rng(5_000 + d))
        y = channel.corrupt(
            h, CorruptionModel(0.5, mode="damped"), np.random.default_rng(6_000 + d)
        )
        devs.append(rie.mse(h, rie.linear_mmse_baseline(y, 0.5)))
    target = 0.5 / 256
    assert abs(np.mean(devs) - target) / target < 0.10


@pytest.mark.parametrize("mode", ["additive", "damped"])
def test_linear_mmse_baseline_hits_oracle_error_for_any_c(mode):
    # in both modes the conditional-mean error per entry is
    # (1/A) eta c / (1 - eta + eta c)
    eta, c = 0.4, 2.0
    devs = []
    for d in range(30):
        h = channel.gen_channel(SystemDims(20, 128), np.random.default_rng(5_200 + d))
        y = channel.corrupt(h, CorruptionModel(eta, mode, c), np.random.default_rng(6_200 + d))
        devs.append(rie.mse(h, rie.linear_mmse_baseline(y, eta, mode, c)))
    target = eta * c / (1.0 - eta + eta * c) / 128
    assert np.mean(devs) == pytest.approx(target, rel=0.03)


def test_linear_mmse_baseline_beats_raw_at_high_level():
    better = 0
    for d in range(10):
        h = channel.gen_channel(SystemDims(20, 128), np.random.default_rng(5_100 + d))
        y = channel.corrupt(
            h, CorruptionModel(0.9, mode="damped"), np.random.default_rng(6_100 + d)
        )
        better += rie.mse(h, rie.linear_mmse_baseline(y, 0.9)) < rie.mse(h, y)
    assert better == 10


def test_mse_identities():
    h, _ = _draw(30, 256, 0.0, 121, 0)
    assert rie.mse(h, h) == 0.0
    against_zero = rie.mse(h, np.zeros_like(h))
    assert abs(against_zero - 1.0 / 256) / (1.0 / 256) < 0.10
    with pytest.raises(ValueError):
        rie.mse(h, h[:, :-1])
