"""Singular-value cleaning pipeline: decomposition, local resolvent, cleaning."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eiprecode import channel, rie, rmt
from eiprecode.channel import CorruptionModel, SystemDims


def _corrupt(h, model, seed):
    # h under model, with the error drawn from a fresh generator
    dims = SystemDims(*h.shape)
    return channel.corrupt(h, model, channel.gen_error(dims, model, np.random.default_rng(seed)))


def _draw(u, a, level, seed_h, seed_e):
    h = channel.gen_channel(SystemDims(u, a), np.random.default_rng(seed_h))
    return h, _corrupt(h, CorruptionModel(level, mode="additive"), seed_e)


def _reference_clean(x, eta_hat):
    """The cleaner in its BSCA form: eigh of [[0, X], [X^H, 0]], clean each
    positive eigenvalue with the scalar rule, give its negative partner the
    negated value, and read the cleaned channel off the upper-right block."""
    u, a = x.shape
    q = u / a
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


def _per_point_local_stieltjes(spectrum, x, epsilon):
    # the leave-one-out mean written out for one point: drop the nearest entry
    rest = np.delete(spectrum, np.argmin(np.abs(spectrum - x)))
    return np.mean(1.0 / (rest - (x + 1j * epsilon)))


_HALF = np.sort(np.random.default_rng(127).uniform(0.1, 3.0, 40))


@pytest.mark.parametrize(
    "spectrum",
    [
        np.concatenate([_HALF, -_HALF]),
        np.array([-2.0, -1.0, -1.0, 0.5, 1.0, 1.0, 1.0, 2.5, 2.5]),  # repeated entries
    ],
    ids=["symmetrized", "repeated"],
)
def test_local_stieltjes_array_matches_the_per_point_form(spectrum):
    eps = rmt.default_epsilon(spectrum.size)
    exact = spectrum[::2]
    between = 0.5 * (spectrum[:-1] + spectrum[1:]) + 1e-3
    for points in (exact, between, np.append(spectrum.max() + 1.0, spectrum.min() - 0.7)):
        real, imag = rie.local_stieltjes(spectrum, points, eps)
        want = np.array([_per_point_local_stieltjes(spectrum, x, eps) for x in points])
        assert real.shape == imag.shape == points.shape
        assert np.max(np.abs(real - want.real)) < 1e-13
        assert np.max(np.abs(imag - want.imag)) < 1e-13
    for x in (exact[0], between[0]):
        got = rie.local_stieltjes(spectrum, x, eps)
        assert type(got) is tuple and all(type(v) is float for v in got)
        want = _per_point_local_stieltjes(spectrum, x, eps)
        assert abs(got[0] - want.real) < 1e-13 and abs(got[1] - want.imag) < 1e-13


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


def test_shrink_maps_a_zero_singular_value_to_zero():
    # y = 0 is a null direction; the rule's (1 - q) / y term is never formed
    assert rie.shrink_eigenvalue(0.0, 0.5, 0.5, 1.0) == 0.0


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
        hc = rie.clean_channel(y, CorruptionModel(0.5)).matrix
        clean_e = np.sort(np.linalg.eigvalsh(hc @ hc.conj().T))
        dev_shrunk.append(np.mean((clean_e - true_e) ** 2))
        dev_raw.append(np.mean((noisy_e - true_e) ** 2))
    assert np.mean(dev_shrunk) < np.mean(dev_raw)


def test_shrink_eigenvalue_is_the_cleaners_rule_bit_for_bit():
    # the scalar rule and the cleaner's array pass share one formula, so each
    # kept value comes out with the same bits
    _, y = _draw(20, 128, 0.5, 8_900, 8_901)
    model = CorruptionModel(0.5)
    out = rie.clean_channel(y, model)
    s = np.sqrt(np.maximum(channel.gram_eig(y).values, 0.0))
    h = -rie.local_stieltjes(np.concatenate([s, -s]), s, rmt.default_epsilon(20 + 128))[0]
    q, alpha = SystemDims(20, 128).q, model.alpha()
    for k in range(s.size):
        xi = rie.shrink_eigenvalue(s[k], h[k], q, alpha)
        assert xi * xi == out.values[k], k


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
    out = rie.clean_channel(h, CorruptionModel(0.0)).matrix
    assert np.max(np.abs(out - h)) < 1e-10


def test_clean_channel_validation():
    h, _ = _draw(4, 8, 0.0, 115, 0)
    with pytest.raises(ValueError):
        rie.clean_channel(h, CorruptionModel(1.0))
    with pytest.raises(ValueError):
        rie.clean_channel(h, CorruptionModel(-0.1))
    with pytest.raises(ValueError):
        rie.clean_channel(h, CorruptionModel(0.3, "multiplicative"))
    # c follows the CorruptionModel rule, so a NaN or negative c fails by name
    # instead of cleaning into a NaN matrix
    for c in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="c must be positive"):
            rie.clean_channel(h, CorruptionModel(0.3, c=c))


@pytest.mark.parametrize("mode, c", [("additive", 1.0), ("damped", 1.0), ("damped", 2.0)])
def test_clean_channel_at_eta_zero_returns_the_observation_exactly(mode, c):
    # alpha 0 with every value kept: the cleaner is the identity, and the
    # observation comes back to the bit instead of through U U^H X
    y = _draw(12, 64, 0.0, 113, 0)[0]
    out = rie.clean_channel(y, CorruptionModel(0.0, mode, c))
    obs = channel.gram_eig(y)
    assert np.array_equal(out.matrix, y)
    assert np.array_equal(out.values, obs.values) and np.array_equal(out.vectors, obs.vectors)


def _first_local_stieltjes(spectrum, x, epsilon):
    # local_stieltjes as first written, through rmt.empirical_stieltjes
    lam = np.asarray(spectrum, dtype=float).ravel()
    x = np.asarray(x, dtype=float)
    z = x + 1j * epsilon
    g = rmt.empirical_stieltjes(lam, z)
    drop = lam[np.argmin(np.abs(lam - x[..., None]), axis=-1)]
    g = (lam.size * g - 1.0 / (drop - z)) / max(lam.size - 1, 1)
    return rmt._scalar_or_array(g.real), rmt._scalar_or_array(g.imag)


def _first_clean(y, model):
    """clean_channel as first written: the clamp through np.clip, the
    resolvent through _first_local_stieltjes, and U diag(xi/s) U^H X even
    where alpha is 0."""
    obs = channel.gram_eig(y)
    u, a = obs.matrix.shape
    q, alpha = u / a, model.alpha()
    x = model.additive_gram_eig(obs)
    sv = np.sqrt(np.maximum(x.values, 0.0))
    kept = sv > 1e-7 * sv.max()
    s = sv[kept]
    xi, ratio = np.zeros_like(sv), np.zeros_like(sv)
    if s.size:
        h = -_first_local_stieltjes(np.concatenate([s, -s]), s, rmt.default_epsilon(u + a))[0]
        xi[kept] = np.clip(s - alpha * alpha * ((1.0 - q) / s + 2.0 * q * h), 0.0, s)
        ratio[kept] = xi[kept] / s
    left = x.vectors
    return ((left * ratio) @ left.conj().T) @ x.matrix, xi * xi


@settings(max_examples=60, deadline=None)
@given(
    x=_observations(),
    eta_hat=st.floats(1e-6, 0.95, exclude_max=True),
    mode=st.sampled_from(("additive", "damped")),
    c=st.sampled_from((0.5, 1.0, 2.0)),
)
def test_clean_channel_is_the_first_written_rule_to_the_bit(x, eta_hat, mode, c):
    model = CorruptionModel(eta_hat, mode, c)
    out = rie.clean_channel(x, model)
    matrix, values = _first_clean(x, model)
    assert np.array_equal(out.matrix, matrix) and np.array_equal(out.values, values)
    s = np.sqrt(np.maximum(channel.gram_eig(x).values, 0.0))
    lam, eps = np.concatenate([s, -s]), rmt.default_epsilon(sum(x.shape))
    for point in (s, s[0], s[-1] + 0.5):
        got = rie.local_stieltjes(lam, point, eps)
        want = _first_local_stieltjes(lam, point, eps)
        assert all(np.array_equal(g, w) and type(g) is type(w) for g, w in zip(got, want))


@pytest.mark.parametrize("fn", [rie.clean_channel, rie.linear_mmse_baseline])
def test_csi_estimators_take_the_observation_and_one_corruption_model(fn):
    # eta, mode and c travel together in the CorruptionModel, as corrupt takes them
    assert list(inspect.signature(fn).parameters) == ["H_obs", "model"]


@pytest.mark.parametrize("mode", ["additive", "damped"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_clean_channel_rejects_non_finite(mode, bad):
    _, y = _draw(4, 8, 0.3, 123, 124)
    y[0, 3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        rie.clean_channel(y, CorruptionModel(0.3, mode))


@settings(max_examples=60, deadline=None)
@given(_observations(), _ETA_HAT)
def test_clean_channel_never_grows_the_spectral_norm(y, eta_hat):
    hc = rie.clean_channel(y, CorruptionModel(eta_hat)).matrix
    assert np.linalg.norm(hc, 2) <= np.linalg.norm(y, 2) * (1.0 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(_observations(), _ETA_HAT)
def test_clean_channel_preserves_kept_eigenvectors(y, eta_hat):
    left, s, vh = np.linalg.svd(y, full_matrices=False)
    hc = rie.clean_channel(y, CorruptionModel(eta_hat)).matrix
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
    x = CorruptionModel(eta_hat, mode).additive_form(y)
    hc = rie.clean_channel(y, CorruptionModel(eta_hat, mode)).matrix
    assert np.max(np.abs(hc - _reference_clean(x, eta_hat))) < 1e-10


@pytest.mark.parametrize("mode", ["additive", "damped"])
@pytest.mark.parametrize(
    "dims", [(20, 128), (30, 256), (128, 256)], ids=["20x128", "30x256", "128x256"]
)
def test_clean_channel_matches_the_bsca_reference_at_paper_sizes(dims, mode):
    for eta in (0.1, 0.3, 0.5, 0.9):
        _, y = _draw(*dims, eta, 131, 132)
        x = CorruptionModel(eta, mode).additive_form(y)
        hc = rie.clean_channel(y, CorruptionModel(eta, mode)).matrix
        ref = _reference_clean(x, eta)
        assert np.max(np.abs(hc - ref)) < 1e-10, eta
        assert np.linalg.norm(hc - ref) <= 1e-12 * np.linalg.norm(ref), eta


def test_clean_channel_matches_the_bsca_reference_on_rank_deficient_inputs():
    rng = np.random.default_rng(125)
    rank_two = _draw(4, 10, 0.0, 126, 0)[0]
    rank_two[2:] = rng.standard_normal((2, 2)) @ rank_two[:2]
    for x in (_RANK_ONE, rank_two, np.zeros((2, 5), dtype=complex)):
        for eta_hat in (0.0, 0.3, 0.9):
            hc = rie.clean_channel(x, CorruptionModel(eta_hat)).matrix
            assert np.max(np.abs(hc - _reference_clean(x, eta_hat))) < 1e-10
    # the null directions of the rank-two input map to 0
    s = np.linalg.svd(rie.clean_channel(rank_two, CorruptionModel(0.3)).matrix, compute_uv=False)
    assert np.max(s[2:]) < 1e-12


def _rotated(spectrum, antennas, seed):
    # U diag(spectrum) V^H with Haar-like U (square) and V (thin)
    rng = np.random.default_rng(seed)
    n = len(spectrum)

    def haar(m):
        return np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0]

    return (haar(n) * spectrum) @ haar(antennas)[:n]


def test_clean_channel_null_tolerance_is_1e_7_of_the_largest_singular_value():
    # the Gram resolves singular values to about 1.5e-8 of the largest, so a
    # 1e-8 direction is a null direction and maps to 0 even at eta 0, while a
    # 1e-6 direction is kept as it is
    null = rie.clean_channel(_rotated([1.0, 1e-8], 6, 133), CorruptionModel(0.0)).matrix
    assert np.linalg.svd(null, compute_uv=False)[1] < 1e-12
    x = _rotated([1.0, 1e-6], 6, 134)
    kept = rie.clean_channel(x, CorruptionModel(0.0)).matrix
    assert np.max(np.abs(kept - x)) < 1e-12
    assert np.linalg.svd(kept, compute_uv=False)[1] == pytest.approx(1e-6, rel=1e-6)


def test_clean_channel_wins_at_mid_error_level():
    wins = 0
    for d in range(20):
        h, y = _draw(20, 256, 0.5, 7_000 + d, 7_500 + d)
        hc = rie.clean_channel(y, CorruptionModel(0.5)).matrix
        wins += rie.mse(h, hc) <= rie.mse(h, y)
    assert wins == 20, wins


def test_clean_channel_wins_at_low_error_level():
    wins = 0
    for d in range(20):
        h, y = _draw(20, 256, 0.1, 7_000 + d, 7_500 + d)
        hc = rie.clean_channel(y, CorruptionModel(0.1)).matrix
        wins += rie.mse(h, hc) <= rie.mse(h, y)
    assert wins >= 10, wins


def test_clean_channel_reaches_oracle_floor_factor():
    ratios = []
    for d in range(20):
        h, y = _draw(20, 256, 0.5, 7_000 + d, 7_500 + d)
        hc = rie.clean_channel(y, CorruptionModel(0.5)).matrix
        ratios.append(rie.mse(h, hc) / (0.5 / 256))
    assert np.mean(ratios) <= 1.5, np.mean(ratios)


# ---------------------------------------------------------------------------
# baselines and error metric


def test_linear_mmse_baseline_identity_and_validation():
    h, _ = _draw(4, 8, 0.0, 119, 0)
    assert np.array_equal(rie.linear_mmse_baseline(h, CorruptionModel(0.0, "damped")), h)
    with pytest.raises(ValueError):
        rie.linear_mmse_baseline(h, CorruptionModel(1.0, "damped"))


@pytest.mark.parametrize("mode", ["additive", "damped"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_linear_mmse_baseline_rejects_non_finite(mode, bad):
    _, y = _draw(4, 8, 0.3, 127, 128)
    y[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        rie.linear_mmse_baseline(y, CorruptionModel(0.3, mode))


def test_linear_mmse_baseline_hits_oracle_error():
    devs = []
    for d in range(30):
        h = channel.gen_channel(SystemDims(30, 256), np.random.default_rng(5_000 + d))
        y = _corrupt(h, CorruptionModel(0.5, mode="damped"), 6_000 + d)
        devs.append(rie.mse(h, rie.linear_mmse_baseline(y, CorruptionModel(0.5, "damped"))))
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
        y = _corrupt(h, CorruptionModel(eta, mode, c), 6_200 + d)
        devs.append(rie.mse(h, rie.linear_mmse_baseline(y, CorruptionModel(eta, mode, c))))
    target = eta * c / (1.0 - eta + eta * c) / 128
    assert np.mean(devs) == pytest.approx(target, rel=0.03)


def test_linear_mmse_baseline_beats_raw_at_high_level():
    better = 0
    for d in range(10):
        h = channel.gen_channel(SystemDims(20, 128), np.random.default_rng(5_100 + d))
        y = _corrupt(h, CorruptionModel(0.9, mode="damped"), 6_100 + d)
        shrunk = rie.linear_mmse_baseline(y, CorruptionModel(0.9, "damped"))
        better += rie.mse(h, shrunk) < rie.mse(h, y)
    assert better == 10


@settings(max_examples=200, deadline=None)
@given(
    u=st.integers(1, 30),
    a=st.integers(1, 256),
    exponent=st.integers(-100, 100),
    ratio=st.floats(0.01, 100.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_mse_is_the_mean_squared_modulus_to_rounding(u, a, exponent, ratio, seed):
    # the sum of squared real and imaginary parts against the mean of |d|^2
    rng = np.random.default_rng(seed)
    h = 10.0**exponent * (rng.standard_normal((u, a)) + 1j * rng.standard_normal((u, a)))
    h_hat = ratio * 10.0**exponent * (rng.standard_normal((u, a)) + 1j * rng.standard_normal((u, a)))
    ref = np.mean(np.abs(h - h_hat) ** 2)
    assert abs(rie.mse(h, h_hat) - ref) <= 2e-15 * ref
    assert rie.mse(h_hat, h_hat) == 0.0


def test_mse_identities():
    h, _ = _draw(30, 256, 0.0, 121, 0)
    assert rie.mse(h, h) == 0.0
    against_zero = rie.mse(h, np.zeros_like(h))
    assert abs(against_zero - 1.0 / 256) / (1.0 / 256) < 0.10
    with pytest.raises(ValueError):
        rie.mse(h, h[:, :-1])
