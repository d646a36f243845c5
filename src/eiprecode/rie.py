"""Rotation-invariant cleaning of a noisy channel observation.

The paper studies the observation X through its Hermitian block
augmentation (BSCA) [[0, X], [X^H, 0]], whose nonzero eigenpairs are
(+/-s_k, [u_k; +/-v_k] / sqrt(2)) for the thin SVD X = U diag(s) V^H.  The
cleaner only changes the s_k, so it works on the thin SVD directly: it
replaces each singular value by the observable rectangular
rotation-invariant estimate (Troiani et al., arXiv:2203.07752;
Benaych-Georges, Bouchaud and Potters, arXiv:1901.05543)

    xi_k = s_k - a2 ((1 - q) / s_k + 2 q h(s_k)),   a2 = eta c / (1 - eta),

with h the leave-one-out Hilbert transform of the symmetrized singular
values {+/-s_j} (the nonzero BSCA spectrum), and returns U diag(xi) V^H.
Singular vectors are kept untouched, which is the defining property of the
estimator family.
"""

from __future__ import annotations

import numpy as np

# build_bsca is unused here; perfbench's traced run looks it up on this module
from .channel import CorruptionModel, SystemDims, build_bsca, normalize_observation  # noqa: F401
from .rmt import default_epsilon

__all__ = [
    "eig_bsca",
    "local_stieltjes",
    "shrink_eigenvalue",
    "reconstruct",
    "clean_channel",
    "linear_mmse_baseline",
    "mse",
]

# singular values at or below this fraction of the largest are null directions
_NULL_TOL = 1e-10


def eig_bsca(X: np.ndarray):
    """Positive half of the BSCA eigenpairs of X: its thin SVD (u, s, vh).

    s is in descending order; the BSCA eigenpair of +/-s_k is
    [u[:, k]; +/-vh[k].conj()] / sqrt(2).  Raises ValueError on a matrix that
    is not 2-D or has non-finite entries.
    """
    X = np.asarray(X)
    if X.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    if not np.isfinite(X).all():
        raise ValueError("observation has non-finite entries")
    return np.linalg.svd(X, full_matrices=False)


def local_stieltjes(spectrum, x: float, epsilon: float) -> tuple[float, float]:
    """Leave-one-out empirical Stieltjes transform of a spectrum at x + i*eps.

    Excludes the entry matching x (nearest entry when no exact match) and
    returns (real part, imaginary part) of mean(1/(lam - x - i eps)) over the
    remaining entries.  Minus the real part is the smoothed Hilbert transform
    h(x) that :func:`shrink_eigenvalue` takes; the imaginary part is a local
    density probe (no 1/pi factor applied).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    lam = np.asarray(spectrum, dtype=float).ravel()
    if lam.size == 0:
        raise ValueError("empty eigenvalue list")
    drop = int(np.argmin(np.abs(lam - x)))
    rest = np.delete(lam, drop)
    if rest.size == 0:
        return (0.0, 0.0)
    g = np.mean(1.0 / (rest - (x + 1j * epsilon)))
    return (float(g.real), float(g.imag))


def shrink_eigenvalue(y: float, h: float, q: float, alpha: float) -> float:
    """Clean one singular value of the observation.

    With a2 = alpha^2 (the noise-to-channel power ratio of the observation)
    and h the leave-one-out Hilbert transform of the symmetrized singular
    values {+/-y_j} at y:

        xi = y - a2 ((1 - q) / y + 2 q h)

    clamped into [0, y]: cleaning never flips or inflates a singular value,
    so alpha = 0 gives back y and a clamped value is exactly 0.0.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if y <= 0.0:
        return 0.0
    xi = y - alpha * alpha * ((1.0 - q) / y + 2.0 * q * h)
    return min(max(float(xi), 0.0), float(y))


def reconstruct(u: np.ndarray, xi, vh: np.ndarray) -> np.ndarray:
    """Cleaned channel u diag(xi) vh from cleaned singular values."""
    return (u * xi) @ vh


def clean_channel(
    H_obs: np.ndarray,
    eta_hat: float,
    q: float,
    mode: str = "additive",
    c: float = 1.0,
) -> np.ndarray:
    """Full cleaning pipeline: normalize, thin SVD, clean singular values,
    reconstruct.

    Each singular value y of the normalized observation becomes
    :func:`shrink_eigenvalue` of y, with alpha^2 = eta_hat c / (1 - eta_hat)
    and h = -Re :func:`local_stieltjes` of the nonzero BSCA spectrum
    {+/-y_j} at y, at the bandwidth :func:`~eiprecode.rmt.default_epsilon`
    (U + A).  Singular values at or below 1e-10 times the largest are left
    out of that spectrum and map to 0.  Singular vectors are kept.

    ``mode`` declares the corruption form of the observation: damped
    observations are divided by sqrt(1 - eta_hat) first (additive ones are
    already in the required form), so the estimand is the true channel.
    Non-finite input raises ValueError.
    """
    H_obs = np.asarray(H_obs, dtype=complex)
    u, a = H_obs.shape
    SystemDims(u, a)  # validates 0 < U < A
    if not 0.0 <= eta_hat < 1.0:
        raise ValueError("eta_hat must lie in [0, 1)")
    if mode not in ("additive", "damped"):
        raise ValueError(f"unknown mode {mode!r}")
    X = normalize_observation(H_obs, eta_hat) if mode == "damped" else H_obs
    alpha = float(np.sqrt(eta_hat * c / (1.0 - eta_hat)))
    left, sv, vh = eig_bsca(X)
    kept = sv[sv > _NULL_TOL * sv[0]]
    spectrum = np.concatenate([kept, -kept])
    epsilon = default_epsilon(u + a)
    xi = np.zeros_like(sv)
    for k, y in enumerate(kept):
        h = -local_stieltjes(spectrum, y, epsilon)[0]
        xi[k] = shrink_eigenvalue(y, h, q, alpha)
    return reconstruct(left, xi, vh)


def linear_mmse_baseline(
    H_obs: np.ndarray, eta: float, mode: str = "damped", c: float = 1.0
) -> np.ndarray:
    """Entrywise conditional mean E[H | H_obs] = k H_obs of the i.i.d. model.

    additive: k = 1 / (1 + alpha^2), alpha^2 = eta c / (1 - eta);
    damped:   k = sqrt(1 - eta) / (1 - eta + eta c).
    """
    model = CorruptionModel(eta, mode, c)
    if mode == "damped":
        # written so that c = 1 gives exactly sqrt(1 - eta)
        k = np.sqrt(1.0 - eta) / (1.0 + eta * (c - 1.0))
    else:
        k = 1.0 / (1.0 + model.alpha() ** 2)
    return k * np.asarray(H_obs)


def mse(H: np.ndarray, H_hat: np.ndarray) -> float:
    """Normalized reconstruction error (1/(U A)) * ||H - H_hat||_F^2."""
    H = np.asarray(H)
    H_hat = np.asarray(H_hat)
    if H.shape != H_hat.shape:
        raise ValueError(f"shape mismatch: {H.shape} vs {H_hat.shape}")
    diff = H - H_hat
    return float(np.mean(np.abs(diff) ** 2))
