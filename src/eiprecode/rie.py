"""Rotation-invariant cleaning of a noisy channel observation.

The paper studies the observation X through its Hermitian block
augmentation (BSCA) [[0, X], [X^H, 0]], whose nonzero eigenpairs are
(+/-s_k, [u_k; +/-v_k] / sqrt(2)) for the thin SVD X = U diag(s) V^H.  The
cleaner only changes the s_k and keeps the singular vectors, which is the
defining property of the estimator family: it replaces each singular value
by the observable rectangular rotation-invariant estimate (Troiani et al.,
arXiv:2203.07752; Benaych-Georges, Bouchaud and Potters, arXiv:1901.05543)

    xi_k = s_k - a2 ((1 - q) / s_k + 2 q h(s_k)),   a2 = eta c / (1 - eta),

with q = U/A and h the leave-one-out Hilbert transform of the symmetrized
singular values {+/-s_j} (the nonzero BSCA spectrum), all k in one array
pass.  V is never needed, because U diag(xi) V^H = U diag(xi/s) U^H X, so
the cleaner takes the thin SVD's left half, U and s, from the U x U Gram
X X^H = U diag(s^2) U^H with one Hermitian eigendecomposition, the
:class:`~eiprecode.channel.GramEig` a link trial shares with the estimator.
The cleaned channel's Gram is U diag(xi^2) U^H, so the cleaner hands the
precoder that decomposition with the channel.  The cleaner and the scalar
baseline take the observation and one
:class:`~eiprecode.channel.CorruptionModel`, as ``corrupt`` does.
"""

from __future__ import annotations

import numpy as np

# the cleaner calls none of build_bsca, eig_bsca, reconstruct and
# shrink_eigenvalue; they are kept for perfbench's traced run, which looks
# them up on this module
from .channel import CorruptionModel, GramEig, SystemDims, _finite_matrix, build_bsca, gram_eig  # noqa: F401
from .rmt import _scalar_or_array, default_epsilon

__all__ = [
    "eig_bsca",
    "local_stieltjes",
    "shrink_eigenvalue",
    "reconstruct",
    "clean_channel",
    "linear_mmse_baseline",
    "mse",
]

# singular values at or below this fraction of the largest are null directions;
# the Gram resolves s^2 only to about eps * s_max^2, so s to about 1.5e-8 s_max
_NULL_TOL = 1e-7


def eig_bsca(X: np.ndarray):
    """Positive half of the BSCA eigenpairs of X: its thin SVD (u, s, vh).

    s is in descending order; the BSCA eigenpair of +/-s_k is
    [u[:, k]; +/-vh[k].conj()] / sqrt(2).  Raises ValueError on a matrix that
    is not 2-D or has non-finite entries.
    """
    return np.linalg.svd(_finite_matrix(X), full_matrices=False)


def local_stieltjes(spectrum, x, epsilon: float):
    """Leave-one-out empirical Stieltjes transform of a spectrum at x + i*eps.

    For each point x, excludes the entry nearest x and returns (real part,
    imaginary part) of mean(1/(lam - x - i eps)) over the other n - 1
    entries, for all points in one broadcast: (n g(z) - 1/(lam_drop - z)) /
    (n - 1), g the full empirical transform mean(1/(lam - z)).  A scalar
    x gives two floats, an array two arrays.  Minus the real part is the
    smoothed Hilbert transform h(x); the imaginary part is a local density
    probe (no 1/pi factor applied).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    lam = np.asarray(spectrum, dtype=float).ravel()
    if lam.size == 0:
        raise ValueError("empty eigenvalue list")
    x = np.asarray(x, dtype=float)
    z = x + 1j * epsilon
    # one broadcast lam - z: its real part is lam - x to the bit, which finds
    # the entry to drop, and it is then inverted in place into the resolvent
    d = lam - z[..., None]
    drop = lam[np.argmin(np.abs(d.real), axis=-1)]
    g = np.divide(1.0, d, out=d).sum(axis=-1) / lam.size  # np.mean's division
    # a one-entry spectrum leaves nothing: n g - 1/(lam_drop - z) is exactly 0
    g = (lam.size * g - 1.0 / (drop - z)) / max(lam.size - 1, 1)
    return _scalar_or_array(g.real), _scalar_or_array(g.imag)


def shrink_eigenvalue(y: float, h: float, q: float, alpha: float) -> float:
    """Clean one singular value: the scalar form of :func:`clean_channel`'s rule.

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
    return float(_shrink(y, h, q, alpha))


def _shrink(s, h, q: float, alpha: float):
    # the rule of shrink_eigenvalue for positive s, scalar or array; the
    # clamp into [0, s] is np.clip's arithmetic without its wrapper
    return np.minimum(np.maximum(s - alpha * alpha * ((1.0 - q) / s + 2.0 * q * h), 0.0), s)


def reconstruct(u: np.ndarray, xi, vh: np.ndarray) -> np.ndarray:
    """Cleaned channel u diag(xi) vh from cleaned singular values."""
    return (u * xi) @ vh


def clean_channel(H_obs: np.ndarray | GramEig, model: CorruptionModel) -> GramEig:
    """Full cleaning pipeline: normalize, Gram eigendecomposition, clean
    singular values, reconstruct.

    ``H_obs`` is the observation or its :class:`~eiprecode.channel.GramEig`;
    a bare matrix is decomposed once.  ``model`` is the
    :class:`~eiprecode.channel.CorruptionModel` the observation is cleaned
    under, at the error level to clean at (eta-hat, or the true eta).  Its
    :meth:`~eiprecode.channel.CorruptionModel.additive_gram_eig` maps the
    observation to additive form first (a damped one is divided by
    sqrt(1 - eta)), so the estimand is the true channel.  The observation X
    in additive form has left singular vectors U, the Gram's eigenvectors,
    and singular values s = sqrt(w) from its Gram eigenvalues w.  All kept s
    go through the rule of :func:`shrink_eigenvalue` in one array pass, with
    q = U/A from the shape of ``H_obs`` (:class:`~eiprecode.channel.SystemDims`),
    alpha = ``model.alpha()`` and h = -Re :func:`local_stieltjes` of the
    nonzero BSCA spectrum {+/-s_j} at every s in one call, at the bandwidth
    :func:`~eiprecode.rmt.default_epsilon` (U + A).  The cleaned channel is
    U diag(xi) V^H = (U diag(xi/s) U^H) X, so V is never formed.  Singular
    values at or below 1e-7 times the largest, the resolution of the Gram,
    are left out of that spectrum and map to 0.

    Returns the cleaned channel as the GramEig (channel, xi^2, U), its Gram
    U diag(xi^2) U^H exactly, with no second decomposition.  At alpha 0
    with every singular value kept the cleaner is the identity, and it
    returns the additive-form observation's own GramEig, the matrix
    exactly.  Non-finite input raises ValueError; an all-zero input comes
    back as zeros.
    """
    obs = gram_eig(H_obs)
    u, a = obs.matrix.shape
    q = SystemDims(u, a).q  # validates 0 < U < A
    alpha = model.alpha()
    x = model.additive_gram_eig(obs)
    sv = np.sqrt(np.maximum(x.values, 0.0))
    kept = sv > _NULL_TOL * sv.max()
    if alpha == 0.0 and kept.all():
        return x  # nothing to shrink: the observation itself, to the bit
    s = sv[kept]
    xi = np.zeros_like(sv)
    ratio = np.zeros_like(sv)
    if s.size:
        h = -local_stieltjes(np.concatenate([s, -s]), s, default_epsilon(u + a))[0]
        xi[kept] = _shrink(s, h, q, alpha)
        ratio[kept] = xi[kept] / s
    left = x.vectors
    return GramEig(((left * ratio) @ left.conj().T) @ x.matrix, xi * xi, left)


def linear_mmse_baseline(H_obs: np.ndarray, model: CorruptionModel) -> np.ndarray:
    """Entrywise conditional mean E[H | H_obs] of the i.i.d. model.

    The observation in additive form under ``model``, X = H + alpha W with
    alpha^2 = eta c / (1 - eta), shrunk by 1 / (1 + alpha^2).  Input that is
    not 2-D or has non-finite entries raises ValueError.
    """
    return model.additive_form(H_obs) * (1.0 / (1.0 + model.alpha() ** 2))


def mse(H: np.ndarray, H_hat: np.ndarray) -> float:
    """Normalized reconstruction error (1/(U A)) * ||H - H_hat||_F^2."""
    H = np.asarray(H)
    H_hat = np.asarray(H_hat)
    if H.shape != H_hat.shape:
        raise ValueError(f"shape mismatch: {H.shape} vs {H_hat.shape}")
    # |d|^2 summed as the squares of d's real and imaginary parts, squared in
    # place in one float view, with numpy's pairwise sum
    diff = np.subtract(H, H_hat, order="C").reshape(-1)
    if np.iscomplexobj(diff):
        diff = diff.view(diff.real.dtype)
    np.multiply(diff, diff, out=diff)
    return float(diff.sum()) / H.size
