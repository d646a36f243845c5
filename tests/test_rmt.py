"""Oracle tests for the spectral-law module.

Closed-form values are frozen from hand derivations; empirical checks pool
several independent draws so the statistical tolerance is meaningful at the
stated matrix sizes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from eiprecode import channel, rie, rmt


def _chan(u, a, seed):
    return channel.gen_channel(channel.SystemDims(u, a), np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# Marchenko-Pastur resolvent


def test_mp_far_real_point_matches_large_z_expansion():
    g = rmt.mp_stieltjes(100.0, 0.5, eps=1e-9)
    assert abs(g - (-0.01)) < 2e-4
    # regression pin
    assert abs(g.real - (-0.01010152807510154)) < 1e-10


def test_mp_small_ratio_limit_is_point_mass_resolvent():
    # q -> 0 collapses the law onto a unit point mass, g(z) -> 1/(1-z)
    g = rmt.mp_stieltjes(2.0 + 0.001j, 1e-6)
    assert abs(g - (-1.0)) < 5e-3


def test_mp_real_axis_needs_explicit_epsilon():
    with pytest.raises(ValueError):
        rmt.mp_stieltjes(1.0, 0.25)


def test_mp_support_edges():
    # the MP density is positive just inside ((1 - sqrt q)^2, (1 + sqrt q)^2)
    # and vanishes just outside
    for q in (0.117, 0.25, 0.5):
        lo, hi = (1.0 - np.sqrt(q)) ** 2, (1.0 + np.sqrt(q)) ** 2
        inside = rmt.mp_stieltjes(np.array([lo + 1e-3, hi - 1e-3]), q, eps=1e-12).imag
        outside = rmt.mp_stieltjes(np.array([lo - 1e-3, hi + 1e-3]), q, eps=1e-12).imag
        assert np.all(inside > 1e-2) and np.all(outside < 1e-8)


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(-5.0, 5.0),
    y=st.floats(0.01, 5.0),
    q=st.floats(0.05, 0.95),
)
def test_mp_is_herglotz_in_upper_half_plane(x, y, q):
    g = rmt.mp_stieltjes(complex(x, y), q)
    assert g.imag > 0.0


def test_mp_asymptote_minus_one_over_z():
    for ang in (0.3, 1.2, 2.1, 2.9):
        z = 100.0 * np.exp(1j * ang)
        g = rmt.mp_stieltjes(z, 0.25)
        assert abs(g + 1.0 / z) < 3.0 / abs(z) ** 2


def test_mp_matches_pooled_empirical_gram_spectrum():
    # 5 independent 500x2000 draws, compared on a fixed upper-half-plane grid
    grid = [0.3 + 0.05j, 0.8 + 0.05j, 1.4 + 0.05j, 2.0 + 0.05j]
    pooled = np.zeros(len(grid), dtype=complex)
    draws = 5
    for d in range(draws):
        h = _chan(500, 2000, 95_000 + d)
        eigs = np.linalg.eigvalsh(h @ h.conj().T)
        pooled += np.array([rmt.empirical_stieltjes(eigs, z) for z in grid])
    pooled /= draws
    theory = np.array([rmt.mp_stieltjes(z, 0.25) for z in grid])
    assert np.max(np.abs(pooled - theory)) < 2e-2


# ---------------------------------------------------------------------------
# Symmetrized block spectrum: support, density, resolvent


def test_bsca_support_values():
    a, b, atom = rmt.bsca_support(0.5)
    assert abs(a - 0.29289321881345254) < 1e-9
    assert abs(b - 1.7071067811865475) < 1e-9
    assert abs(atom - 1.0 / 3.0) < 1e-9

    a, b, atom = rmt.bsca_support(0.25)
    assert abs(a - 0.5) < 1e-12
    assert abs(b - 1.5) < 1e-12
    assert abs(atom - 0.6) < 1e-12


def test_bsca_support_degenerate_ratio_limit():
    a, b, atom = rmt.bsca_support(1.0 - 1e-9)
    assert a < 1e-4
    assert abs(b - 2.0) < 1e-4
    assert atom < 1e-4


def test_bsca_support_rejects_ratio_outside_open_interval():
    for q in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            rmt.bsca_support(q)


def test_bsca_density_vanishes_at_edges_and_outside():
    q = 0.5
    a, b, _ = rmt.bsca_support(q)
    assert rmt.bsca_density(a, q) == 0.0
    assert rmt.bsca_density(b, q) == 0.0
    assert rmt.bsca_density(b + 0.5, q) == 0.0
    assert rmt.bsca_density(0.0, q) == 0.0


def test_bsca_density_is_even():
    q = 0.25
    for x in (0.6, 0.9, 1.3):
        assert abs(rmt.bsca_density(-x, q) - rmt.bsca_density(x, q)) < 1e-14


def test_bsca_density_continuous_mass():
    # continuous part carries 2q/(1+q); at q=1/2 that is 2/3
    q = 0.5
    a, b, _ = rmt.bsca_support(q)
    half, _ = quad(lambda x: rmt.bsca_density(x, q), a, b, limit=200)
    assert abs(2.0 * half - 2.0 / 3.0) < 1e-6


def test_bsca_resolvent_odd_reflection_symmetry():
    # g(-conj(z)) = -conj(g(z)) for any symmetric law
    q = 0.5
    for z in (0.4 + 0.05j, 1.1 + 0.2j, 2.5 + 1.0j):
        lhs = rmt.bsca_stieltjes(-np.conj(z), q)
        rhs = -np.conj(rmt.bsca_stieltjes(z, q))
        assert abs(lhs - rhs) < 1e-12


def test_bsca_resolvent_asymptote():
    z = 100.0 * np.exp(0.7j)
    g = rmt.bsca_stieltjes(z, 0.5)
    assert abs(g + 1.0 / z) < 1e-3


def test_bsca_resolvent_herglotz_on_grid():
    for q in (0.117, 0.5):
        for x in np.linspace(-1.8, 1.8, 13):
            g = rmt.bsca_stieltjes(complex(x, 0.05), q)
            assert g.imag > 0.0


# ---------------------------------------------------------------------------
# Resolvent chain between gram, squared-block, and block laws


def test_chain_matches_analytic_block_resolvent():
    q = 0.5
    # even point count keeps x = 0 (where z^2 lands on the real axis) off the grid
    for x in np.linspace(-1.9, 1.9, 12):
        z = complex(x, 0.05)
        g_gram = rmt.mp_stieltjes(z * z, q)
        g_b = rmt.stieltjes_B_from_D(rmt.stieltjes_D_from_gram(g_gram, z * z, q), z)
        assert abs(g_b - rmt.bsca_stieltjes(z, q)) < 1e-12


def test_chain_is_exact_on_a_shared_sample():
    # same-draw eigenvalues make the chain an algebraic identity
    u, a = 128, 256
    h = _chan(u, a, 42)
    gram_eigs = np.linalg.eigvalsh(h @ h.conj().T)
    b_eigs = np.linalg.eigvalsh(channel.build_bsca(h))
    q = u / a
    worst = 0.0
    for x in np.linspace(-1.9, 1.9, 20):
        z = complex(x, 0.05)
        g_gram = rmt.empirical_stieltjes(gram_eigs, z * z)
        g_b = rmt.stieltjes_B_from_D(rmt.stieltjes_D_from_gram(g_gram, z * z, q), z)
        direct = rmt.empirical_stieltjes(b_eigs, z)
        worst = max(worst, abs(g_b - direct))
    assert worst < 1e-10


def test_block_resolvent_matches_pooled_empirical_sample():
    u, a, draws = 128, 256, 20
    q = u / a
    grid = np.linspace(-1.9, 1.9, 20) + 0.05j
    pooled = np.zeros(len(grid), dtype=complex)
    for d in range(draws):
        h = _chan(u, a, 90_000 + d)
        eigs = np.linalg.eigvalsh(channel.build_bsca(h))
        pooled += np.array([rmt.empirical_stieltjes(eigs, z) for z in grid])
    pooled /= draws
    theory = np.array([rmt.bsca_stieltjes(z, q) for z in grid])
    assert np.max(np.abs(pooled - theory)) < 2e-2


# ---------------------------------------------------------------------------
# Noisy gram resolvent


def test_noisy_gram_reduces_to_mp_when_noise_free():
    for z in (0.5 + 0.1j, 1.5 + 0.05j, -1.0 + 0.2j):
        g = rmt.noisy_gram_stieltjes(z, 0.25, 0.0)
        assert abs(g - rmt.mp_stieltjes(z, 0.25)) < 1e-8


def test_noisy_gram_is_a_scaled_mp_law():
    # H + alpha*E is equal in law to sqrt(1+alpha^2) * H for iid Gaussians
    for q, alpha in ((0.117, 1.0), (0.25, 0.5), (0.5, 2.0)):
        s = 1.0 + alpha * alpha
        for z in (0.8 + 0.1j, 2.4 + 0.05j, 5.0 + 0.3j):
            g = rmt.noisy_gram_stieltjes(z, q, alpha)
            assert abs(g - rmt.mp_stieltjes(z / s, q) / s) < 1e-10


def test_noisy_gram_frozen_point_outside_support():
    g = rmt.noisy_gram_stieltjes(-1.0, 0.5, 1.0, eps=1e-9)
    assert abs(g.real - 0.4142135623730951) < 1e-9


def test_noisy_gram_asymptote():
    z = 1e3 * np.exp(0.4j)
    g = rmt.noisy_gram_stieltjes(z, 0.25, 1.0)
    assert abs(g + 1.0 / z) < 1e-4


def test_noisy_gram_matches_pooled_empirical_sample():
    u, a, draws = 30, 256, 100
    q = u / a
    z = 3.0 + 0.3j
    pooled = 0.0 + 0.0j
    for d in range(draws):
        h = _chan(u, a, 97_000 + d)
        e = _chan(u, a, 98_000 + d)
        y = h + 1.0 * e
        eigs = np.linalg.eigvalsh(y @ y.conj().T)
        pooled += rmt.empirical_stieltjes(eigs, z)
    pooled /= draws
    assert abs(pooled - rmt.noisy_gram_stieltjes(z, q, 1.0)) < 2e-2


# ---------------------------------------------------------------------------
# Auxiliary R-transforms


def test_r_aux_noise_free_reduction():
    for w in (0.01, 0.05, 0.1):
        base = rmt.r_transform_aux(w, 0.25)
        noisy = rmt.r_transform_noisy_aux(w, 0.25, 0.0)
        assert abs(noisy - base) < 1e-12


def test_r_aux_free_additivity():
    # R of the corrupted block is R of the channel plus a dilated copy
    q = 0.25
    for alpha in (0.5, 1.0, 2.0):
        for w in (0.01, 0.03, 0.08):
            lhs = rmt.r_transform_noisy_aux(w, q, alpha)
            rhs = rmt.r_transform_aux(w, q) + alpha * rmt.r_transform_aux(alpha * w, q)
            assert abs(lhs - rhs) < 1e-8


def test_r_aux_small_w_series_fits_even_cumulants():
    ws = np.array([0.008, 0.012, 0.016, 0.022, 0.03])
    for q in (0.25, 0.5):
        vals = np.array([rmt.r_transform_aux(w, q) / w for w in ws])
        k2, k4, k6 = np.polynomial.polynomial.polyfit(ws**2, vals, 2)
        assert abs(k2 - 1.0) < 1e-6
        assert abs(k4 - (q - 1.0)) < 1e-4
        assert abs(k6 - (q - 1.0) * (q - 2.0)) < 1e-2
        # the even series must reproduce the gram cumulants (1, q, q^2)
        g1 = k2
        g2 = k4 + 1.0
        g3 = k6 + 3.0 * k4 + 1.0
        assert abs(g1 - 1.0) < 1e-6
        assert abs(g2 - q) < 1e-3
        assert abs(g3 - q * q) < 1e-2


# ---------------------------------------------------------------------------
# Empirical resolvent helper


def test_empirical_stieltjes_two_atom_value():
    g = rmt.empirical_stieltjes(np.array([1.0, 3.0]), 2.0 + 1.0j)
    assert abs(g - 0.5j) < 1e-14


def test_empirical_stieltjes_point_mass():
    g = rmt.empirical_stieltjes(np.full(5, 2.5), 1.0 + 1.0j)
    assert abs(g - 1.0 / (2.5 - (1.0 + 1.0j))) < 1e-14


def test_empirical_stieltjes_real_argument_needs_epsilon():
    eigs = np.array([0.5, 1.5, 2.5])
    with pytest.raises(ValueError):
        rmt.empirical_stieltjes(eigs, 1.0)
    g = rmt.empirical_stieltjes(eigs, 1.0, eps=0.05)
    assert g.imag > 0.0


@settings(max_examples=80, deadline=None)
@given(
    eigs=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=12),
    x=st.floats(-12.0, 12.0),
    y=st.floats(1e-3, 4.0),
)
def test_empirical_stieltjes_is_herglotz(eigs, x, y):
    g = rmt.empirical_stieltjes(np.array(eigs), complex(x, y))
    assert g.imag > 0.0


# ---------------------------------------------------------------------------
# Return convention: a scalar in gives a Python scalar out, an array an array

_Z = [0.5 + 0.1j, 1.5 + 0.2j, 3.0 + 1.0j]
_X = [0.2, 1.0, 1.4]
_SCALAR_RULE = {
    "mp_stieltjes": (lambda z: rmt.mp_stieltjes(z, 0.25), _Z, complex),
    "bsca_density": (lambda x: rmt.bsca_density(x, 0.25), _X, float),
    "stieltjes_D_from_gram": (lambda z: rmt.stieltjes_D_from_gram(1.0 / z, z, 0.25), _Z, complex),
    "stieltjes_B_from_D": (lambda z: rmt.stieltjes_B_from_D(z * z, z), _Z, complex),
    "empirical_stieltjes": (lambda z: rmt.empirical_stieltjes([0.5, 1.0, 2.0], z), _Z, complex),
    "r_transform_aux": (lambda w: rmt.r_transform_aux(w, 0.25), [0.3, 0.7, 1.1], float),
    "local_stieltjes": (lambda x: rie.local_stieltjes([-1.0, 0.5, 2.0], x, 0.1), _X, float),
}


@pytest.mark.parametrize("name", sorted(_SCALAR_RULE))
def test_scalar_argument_returns_a_python_scalar_and_an_array_an_array(name):
    fn, points, kind = _SCALAR_RULE[name]

    def parts(result):  # local_stieltjes returns (real part, imaginary part)
        return result if isinstance(result, tuple) else (result,)

    arrays = parts(fn(np.array(points)))
    for arr in arrays:
        assert isinstance(arr, np.ndarray) and arr.shape == (len(points),)
    for i, p in enumerate(points):
        got = parts(fn(p))
        assert len(got) == len(arrays)
        for value, arr in zip(got, arrays):
            assert type(value) is kind
            # numpy's vector loops may round the last bit apart from a 0-d call
            assert value == pytest.approx(arr[i], rel=1e-14, abs=0.0)


# ---------------------------------------------------------------------------
# Moment / free-cumulant conversion


def test_free_cumulants_identity_moments():
    k = rmt.free_cumulants((1.0, 1.0, 1.0))
    assert np.allclose(k, (1.0, 0.0, 0.0), atol=1e-14)


def test_free_cumulants_of_mp_moments():
    q = 0.25
    mom = (1.0, 1.0 + q, 1.0 + 3.0 * q + q * q)
    k = rmt.free_cumulants(mom)
    assert np.allclose(k, (1.0, q, q * q), atol=1e-12)


def test_free_cumulants_centered_variance_passthrough():
    for v in (0.3, 1.0, 2.5):
        k = rmt.free_cumulants((0.0, v, 0.0))
        assert np.allclose(k, (0.0, v, 0.0), atol=1e-14)


def test_moments_from_cumulants_mp_pattern():
    q = 0.25
    m = rmt.moments_from_cumulants((1.0, q, q * q))
    assert np.allclose(m, (1.0, 1.25, 1.8125), atol=1e-14)


@settings(max_examples=100, deadline=None)
@given(
    k1=st.floats(-3.0, 3.0),
    k2=st.floats(-3.0, 3.0),
    k3=st.floats(-3.0, 3.0),
)
def test_cumulant_moment_round_trip(k1, k2, k3):
    back = rmt.free_cumulants(rmt.moments_from_cumulants((k1, k2, k3)))
    assert np.allclose(back, (k1, k2, k3), atol=1e-9, rtol=1e-9)


# ---------------------------------------------------------------------------
# Theory cumulants of the corrupted gram


def test_theory_cumulants_noise_free():
    q = 0.117
    for mode in ("gaussian_equivalent", "printed"):
        k = rmt.noisy_gram_cumulants_theory(0.0, q, mode=mode)
        assert np.allclose(k, (1.0, q, q * q), atol=1e-12)


def test_theory_cumulants_gaussian_equivalent_frozen():
    k = rmt.noisy_gram_cumulants_theory(0.5, 0.117, mode="gaussian_equivalent")
    # s = 1/(1-eta) = 2: pattern (s, s^2 q, s^3 q^2)
    assert np.allclose(k, (2.0, 0.468, 0.109512), atol=1e-9)


def test_theory_cumulants_printed_frozen():
    k = rmt.noisy_gram_cumulants_theory(0.5, 0.117, mode="printed")
    assert abs(k[0] - 2.0) < 1e-9
    assert abs(k[1] - 2.234) < 1e-3
    assert abs(k[2] - 0.729378) < 1e-3


@settings(max_examples=200, deadline=None)
@given(
    eta=st.floats(0.0, 0.999),
    q=st.floats(0.01, 0.99),
    c=st.floats(0.05, 5.0),
)
def test_theory_cumulants_match_the_published_forms(eta, q, c):
    # the polynomials in x reproduce both families as they are published
    s = 1.0 + c * eta / (1.0 - eta)
    d = 1.0 - eta
    published = {
        "gaussian_equivalent": (s, q * s ** 2, q ** 2 * s ** 3),
        "printed": (
            1.0 / d,
            (2.0 * d * eta * (1.0 - q) + q) / d ** 2,
            q * (3.0 * d * eta * (1.0 - q) + q) / d ** 3,
        ),
    }
    for mode, want in published.items():
        got = rmt.noisy_gram_cumulants_theory(eta, q, mode=mode, c=c)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14), mode
        # and it is np.polyval of the polynomials to the bit
        b, polys = rmt.noisy_gram_cumulant_polys(q, mode, c)
        x = 1.0 + b * eta / (1.0 - eta)
        assert got.tolist() == [np.polyval(p, x) for p in polys], mode


def test_theory_cumulants_validation():
    with pytest.raises(ValueError):
        rmt.noisy_gram_cumulants_theory(1.0, 0.5)
    with pytest.raises(ValueError):
        rmt.noisy_gram_cumulants_theory(0.5, 1.5)
    with pytest.raises(ValueError):
        rmt.noisy_gram_cumulants_theory(0.5, 0.5, mode="exactish")


def test_theory_cumulants_gaussian_equivalent_passes_mc_oracle():
    # tall, large system keeps the finite-size bias of the third cumulant
    # well under the 5% gate
    u, a, eta, draws = 100, 853, 0.5, 12
    q = u / a
    alpha = np.sqrt(eta / (1.0 - eta))
    acc = np.zeros(3)
    from eiprecode import eta as eta_mod

    for d in range(draws):
        h = _chan(u, a, 3000 + d)
        e = _chan(u, a, 4000 + d)
        y = h + alpha * e
        acc += np.array(rmt.free_cumulants(eta_mod.empirical_moments(y)))
    acc /= draws
    theory = np.array(rmt.noisy_gram_cumulants_theory(eta, q, mode="gaussian_equivalent"))
    rel = np.abs(acc - theory) / np.abs(theory)
    assert np.all(rel < 0.05), rel


def test_theory_cumulants_mc_oracle_at_working_size():
    # at 30x256 the first two cumulants stay inside 5%; the third carries a
    # visible finite-size bias and is only required inside 12%
    u, a, eta, draws = 30, 256, 0.5, 12
    q = u / a
    alpha = np.sqrt(eta / (1.0 - eta))
    acc = np.zeros(3)
    from eiprecode import eta as eta_mod

    for d in range(draws):
        h = _chan(u, a, 3000 + d)
        e = _chan(u, a, 4000 + d)
        y = h + alpha * e
        acc += np.array(rmt.free_cumulants(eta_mod.empirical_moments(y)))
    acc /= draws
    theory = np.array(rmt.noisy_gram_cumulants_theory(eta, q, mode="gaussian_equivalent"))
    rel = np.abs(acc - theory) / np.abs(theory)
    assert rel[0] < 0.05
    assert rel[1] < 0.05
    assert rel[2] < 0.12


def test_theory_cumulants_printed_fails_mc_oracle():
    # arbiter: the printed second cumulant sits far from every sample
    u, a, eta, draws = 100, 853, 0.5, 12
    q = u / a
    alpha = np.sqrt(eta / (1.0 - eta))
    acc = np.zeros(3)
    from eiprecode import eta as eta_mod

    for d in range(draws):
        h = _chan(u, a, 3000 + d)
        e = _chan(u, a, 4000 + d)
        y = h + alpha * e
        acc += np.array(rmt.free_cumulants(eta_mod.empirical_moments(y)))
    acc /= draws
    theory = np.array(rmt.noisy_gram_cumulants_theory(eta, q, mode="printed"))
    assert abs(acc[1] - theory[1]) / abs(theory[1]) > 0.5


# ---------------------------------------------------------------------------
# Misc


def test_default_epsilon_inverse_square_root():
    assert abs(rmt.default_epsilon(256) - 0.0625) < 1e-15
    assert abs(rmt.default_epsilon(286) - 286 ** (-0.5)) < 1e-15
