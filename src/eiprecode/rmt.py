"""Spectral transforms for rectangular Gaussian channel ensembles.

Conventions used throughout:

* Stieltjes transform of a spectral law rho:  g(z) = int rho(l)/(l - z) dl,
  so g(z) ~ -1/z as |z| -> infinity and imag(g) has the sign of imag(z)
  (Herglotz branch).
* q = U/A in (0, 1) is the aspect ratio of the U x A channel matrix whose
  entries are i.i.d. CN(0, 1/A); its Gram spectrum follows the
  Marchenko-Pastur law with ratio q and unit mean.
* The block symmetric channel augmentation (BSCA) of a U x A matrix H is the
  Hermitian (U+A) x (U+A) matrix [[0, H], [H^H, 0]]; its eigenvalues are the
  paired +/- singular values of H plus exactly A - U zeros.
* R-transforms follow the series convention R(w) = sum_{n>=0} kappa_{n+1} w^n
  (free cumulant generating function).  The auxiliary laws handled here are
  symmetric, so R is odd and identical under either Stieltjes sign convention.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "RootSelectionError",
    "default_epsilon",
    "mp_stieltjes",
    "bsca_support",
    "bsca_density",
    "bsca_stieltjes",
    "stieltjes_D_from_gram",
    "stieltjes_B_from_D",
    "empirical_stieltjes",
    "r_transform_aux",
    "r_transform_noisy_aux",
    "noisy_gram_stieltjes",
    "free_cumulants",
    "moments_from_cumulants",
    "noisy_gram_cumulant_polys",
    "noisy_gram_cumulants_theory",
]


class RootSelectionError(RuntimeError):
    """No candidate root satisfied the branch condition.

    Carries every candidate considered in ``candidates``.
    """

    def __init__(self, message: str, candidates):
        super().__init__(message)
        self.candidates = list(candidates)


def default_epsilon(dim: int) -> float:
    """Default imaginary offset for real-axis evaluation: dim**-0.5."""
    if dim <= 0:
        raise ValueError("dimension must be positive")
    return float(dim) ** -0.5


def _check_q(q: float) -> float:
    q = float(q)
    if not 0.0 < q < 1.0:
        raise ValueError(f"aspect ratio q must lie in (0, 1), got {q}")
    return q


def _offaxis(z, eps):
    """Shift real z into the complex plane by +i*eps; reject bare real z."""
    z = np.asarray(z, dtype=complex)
    on_axis = z.imag == 0.0
    if np.any(on_axis):
        if eps is None:
            raise ValueError(
                "real-axis evaluation requires an explicit eps "
                "(imaginary offset for the boundary limit)"
            )
        z = np.where(on_axis, z.real + 1j * float(eps), z)
    return z


def _scalar_or_array(out):
    """A 0-d result as its Python scalar, any other result as it is."""
    return out.item() if out.ndim == 0 else out


def mp_stieltjes(z, q: float, eps: float | None = None):
    """Stieltjes transform of the Marchenko-Pastur law with ratio q.

    The physical root of q*z*g^2 + (z + q - 1)*g + 1 = 0 in closed form:
    with a, b = (1 -+ sqrt(q))^2, the product of principal roots
    sqrt(z - a) * sqrt(z - b) is analytic off [a, b] and tends to z at
    infinity, so g = (1 - q - z + root) / (2 q z) is the Herglotz root with
    g ~ -1/z everywhere.  Where its numerator cancels, the equal form
    2 / (1 - q - z - root) is used instead.

    Parameters
    ----------
    z : complex or array_like
        Evaluation point(s).  Real values are only accepted together with
        an explicit ``eps`` and are interpreted as z + i*eps.
    q : float
        Aspect ratio in (0, 1).
    eps : float, optional
        Imaginary offset for real-axis boundary evaluation.

    Returns
    -------
    complex or ndarray of complex
    """
    q = _check_q(q)
    z = _offaxis(z, eps)
    r = np.sqrt(q)
    root = np.sqrt(z - (1.0 - r) ** 2) * np.sqrt(z - (1.0 + r) ** 2)
    # the two numerators multiply to 4 q z, so the larger one is stable
    n_plus = 1.0 - q - z + root
    n_minus = 1.0 - q - z - root
    out = np.where(
        np.abs(n_minus) > np.abs(n_plus), 2.0 / n_minus, n_plus / (2.0 * q * z)
    )
    return _scalar_or_array(out)


def bsca_support(q: float) -> tuple[float, float, float]:
    """Support (a, b) of the BSCA bulk and the mass of the zero atom.

    Returns (1 - sqrt(q), 1 + sqrt(q), (1 - q)/(1 + q)).  The continuous
    part of the spectrum lives on a <= |x| <= b.
    """
    q = _check_q(q)
    r = np.sqrt(q)
    return (1.0 - r, 1.0 + r, (1.0 - q) / (1.0 + q))


def bsca_density(x, q: float):
    """Continuous part of the limiting BSCA eigenvalue density.

    rho(x) = sqrt((b^2 - x^2)(x^2 - a^2)) / ((q + 1) * pi * |x|) on
    a <= |x| <= b and zero elsewhere; the zero atom of mass (1-q)/(1+q)
    is reported separately by :func:`bsca_support`.
    """
    a, b, _ = bsca_support(q)
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    inside = (ax > a) & (ax < b)
    out = np.zeros_like(ax)
    xs = ax[inside]
    out[inside] = np.sqrt((b * b - xs * xs) * (xs * xs - a * a)) / (
        (q + 1.0) * np.pi * xs
    )
    return _scalar_or_array(out)


def stieltjes_D_from_gram(g_gram, z, q: float):
    """Map a Gram-spectrum Stieltjes value to the two-block square spectrum.

    D = diag(H H^H, H^H H) dilutes the Gram law with the co-Gram copy and
    the zero atom:  g_D(z) = (2q/(q+1)) g_gram(z) + ((q-1)/(q+1))/z.
    Exact for matched empirical spectra, not only in the limit.
    """
    q = _check_q(q)
    z = np.asarray(z, dtype=complex)
    if np.any(z == 0):
        raise ValueError("z = 0 is a pole of the dilution identity")
    out = (2.0 * q / (q + 1.0)) * np.asarray(g_gram, dtype=complex) + (
        (q - 1.0) / (q + 1.0)
    ) / z
    return _scalar_or_array(out)


def stieltjes_B_from_D(g_D_at_z2, z):
    """BSCA Stieltjes from the squared-spectrum value: g_B(z) = z * g_D(z^2).

    ``g_D_at_z2`` must already be evaluated at z**2.
    """
    return _scalar_or_array(np.asarray(z, dtype=complex) * np.asarray(g_D_at_z2, dtype=complex))


def bsca_stieltjes(z, q: float, eps: float | None = None):
    """Analytic BSCA Stieltjes transform via the MP law and both dilutions."""
    z = _offaxis(z, eps)
    z2 = z * z
    g_gram = mp_stieltjes(z2, q, eps=None if np.all(z2.imag != 0) else 1e-12)
    return stieltjes_B_from_D(stieltjes_D_from_gram(g_gram, z2, q), z)


def empirical_stieltjes(eigs, z, eps: float | None = None):
    """Empirical Stieltjes transform mean(1/(eigs - z)) of a sample spectrum."""
    eigs = np.asarray(eigs, dtype=float).ravel()
    if eigs.size == 0:
        raise ValueError("empty eigenvalue list")
    z = _offaxis(z, eps)
    return _scalar_or_array(np.mean(1.0 / (eigs - z[..., None]), axis=-1))


# ---------------------------------------------------------------------------
# R-transform machinery for the symmetrized singular-value (auxiliary) laws


def r_transform_aux(w, q: float, variance: float = 1.0):
    """R-transform of the symmetrized singular-value law of a Gaussian U x A
    matrix with per-entry variance ``variance``/A.

    R(w) = (-1 + q v w^2 + sqrt(1 + v w^2 (4 - 2q) + q^2 v^2 w^4)) / (2 w)
    with v = variance.  Odd in w; Taylor series R = v w + v^2 (q - 1) w^3 + ...
    so kappa_2 = v and kappa_4 = v^2 (q - 1).
    """
    q = _check_q(q)
    v = float(variance)
    if v < 0:
        raise ValueError("variance must be nonnegative")
    w = np.asarray(w, dtype=complex) if np.iscomplexobj(w) else np.asarray(
        w, dtype=float
    )
    if np.any(w == 0):
        raise ValueError("w = 0 is a pole of the R-transform expression")
    w2 = w * w
    rad = 1.0 + v * w2 * (4.0 - 2.0 * q) + (q * v * w2) ** 2
    out = (-1.0 + q * v * w2 + np.sqrt(rad)) / (2.0 * w)
    return _scalar_or_array(out)


def r_transform_noisy_aux(w, q: float, alpha: float):
    """R-transform of the additive-noise auxiliary law.

    Sum of the clean auxiliary R-transform and the alpha-scaled noise copy:
    R(w) = R_aux(w; v=1) + R_aux(w; v=alpha^2)
         = (-2 + q (1 + alpha^2) w^2 + rad_1 + rad_2) / (2 w).
    Reduces exactly to the clean form at alpha = 0 and is additive by
    construction.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    return r_transform_aux(w, q, 1.0) + r_transform_aux(w, q, alpha * alpha)


# ---------------------------------------------------------------------------
# Noisy Gram spectrum


def noisy_gram_stieltjes(z, q: float, alpha: float, eps: float | None = None):
    """Stieltjes transform of the Gram spectrum of H + alpha*E.

    For i.i.d. Gaussian H and E (entry variance 1/A each), H + alpha*E is
    itself Gaussian with entry variance (1 + alpha^2)/A, so the limiting
    Gram law is the (1 + alpha^2)-scaled MP law and
    g(z) = g_MP(z / s) / s with s = 1 + alpha^2.  This closed form is exact.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    s = 1.0 + alpha * alpha
    z = _offaxis(z, eps)
    out = mp_stieltjes(z / s, q) / s
    sgn = np.sign(np.asarray(z).imag)
    if np.any(sgn * np.asarray(out).imag <= 0):
        raise RootSelectionError(
            "selected value violates the Herglotz branch condition",
            np.atleast_1d(out).tolist(),
        )
    return out


# ---------------------------------------------------------------------------
# Moments and free cumulants (degree 3)


def free_cumulants(m) -> np.ndarray:
    """First three free cumulants from the first three moments.

    kappa_1 = m1, kappa_2 = m2 - m1^2, kappa_3 = m3 - 3 m1 m2 + 2 m1^3.
    """
    m = np.asarray(m, dtype=float).ravel()
    if m.size < 3:
        raise ValueError("need the first three moments")
    return np.array(_free_cumulants(*m[:3].tolist()))


def _free_cumulants(m1: float, m2: float, m3: float) -> tuple[float, float, float]:
    """:func:`free_cumulants` on Python floats."""
    return (m1, m2 - m1 ** 2, m3 - 3.0 * m1 * m2 + 2.0 * m1 ** 3)


def moments_from_cumulants(k) -> np.ndarray:
    """Inverse of :func:`free_cumulants` at degree 3."""
    k = np.asarray(k, dtype=float).ravel()
    if k.size < 3:
        raise ValueError("need the first three cumulants")
    k1, k2, k3 = k[:3]
    m1 = k1
    m2 = k2 + k1 ** 2
    m3 = k3 + 3.0 * k1 * k2 + k1 ** 3
    return np.array([m1, m2, m3])


def noisy_gram_cumulant_polys(
    q: float, mode: str = "gaussian_equivalent", c: float = 1.0
) -> tuple[float, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Theory cumulants of the noisy Gram spectrum as polynomials in one scalar.

    Both families depend on eta only through x = 1 + b*eta/(1 - eta), so
    eta = (x - 1)/(x - 1 + b):

    * ``gaussian_equivalent``: the corrupted matrix is a variance-rescaled
      Gaussian matrix, exact for Gaussian entries.  b = c, x is the
      variance scale s, and the cumulants are (x, q x^2, q^2 x^3).
    * ``printed``: the form carrying explicit signal/noise cross terms.
      b = 1, x = 1/(1 - eta), and the cumulants are
      (x, 2(1-q)(x-1) + q x^2, q (3(1-q)(x^2-x) + q x^3)).
      Retained verbatim for comparison; the Monte-Carlo cumulant oracle in
      the test suite arbitrates which form matches sampled spectra.

    Returns (b, polys) where polys[k] holds the coefficients of
    kappa_{k+1}(x), highest power first (the :func:`numpy.polyval` order).
    """
    b, polys = _cumulant_polys(q, mode, c)
    return b, tuple(np.array(p) for p in polys)


def _cumulant_polys(q: float, mode: str, c: float) -> tuple[float, tuple]:
    """:func:`noisy_gram_cumulant_polys` with each polynomial a tuple of floats."""
    q = _check_q(q)
    if mode == "gaussian_equivalent":
        return float(c), ((1.0, 0.0), (q, 0.0, 0.0), (q * q, 0.0, 0.0, 0.0))
    if mode == "printed":
        p = 1.0 - q
        return 1.0, (
            (1.0, 0.0),
            (q, 2.0 * p, -2.0 * p),
            (q * q, 3.0 * q * p, -3.0 * q * p, 0.0),
        )
    raise ValueError(f"unknown mode {mode!r}")


def _horner(coeffs, x: float) -> float:
    """The polynomial ``coeffs`` (highest power first) at the float x.

    The arithmetic of :func:`numpy.polyval`, one multiply and one add per
    coefficient from y = 0, so the value is the same to the bit.
    """
    y = 0.0
    for coeff in coeffs:
        y = y * x + coeff
    return y


def noisy_gram_cumulants_theory(
    eta: float, q: float, mode: str = "gaussian_equivalent", c: float = 1.0
) -> np.ndarray:
    """Theoretical first three free cumulants of the noisy Gram spectrum.

    Evaluates the polynomials of :func:`noisy_gram_cumulant_polys` at
    x = 1 + b*eta/(1 - eta).  Both modes reduce to the clean MP cumulants
    (1, q, q^2) at eta = 0.
    """
    b, polys = _cumulant_polys(q, mode, c)
    eta = float(eta)
    if not 0.0 <= eta < 1.0:
        raise ValueError("eta must lie in [0, 1)")
    x = 1.0 + b * eta / (1.0 - eta)
    return np.array([_horner(p, x) for p in polys])
