"""Channel generation, Gauss-Markov corruption, the BSCA embedding, and the
Gram eigendecomposition every spectral stage shares.

The true channel H is U x A with i.i.d. CN(0, 1/A) entries (U users,
A antennas, U < A).  Two corruption modes produce the observation:

* ``damped``:   H_obs = sqrt(1-eta) H + sqrt(eta) E,  E entries CN(0, c/A)
* ``additive``: H_obs = H + alpha E',  alpha = sqrt(eta c / (1-eta)),
  E' entries CN(0, 1/A)

The damped observation divided by sqrt(1-eta) equals the additive one in
law; with c = 1 the damped observation is equal in law to H itself, so eta
is blindly unidentifiable in that corner (see eta estimator docs).
:class:`CorruptionModel` holds eta, the mode and c as one object, which
``corrupt`` and the CSI estimators in :mod:`eiprecode.rie` take.  The
random error E is drawn by :func:`gen_error`, apart from the deterministic
mix in :func:`corrupt`: its law depends on the mode and c but never on eta,
so one draw serves every error level of a trial.  One
check, :func:`_finite_matrix`, rejects a matrix that is not 2-D or has
non-finite entries, wherever one enters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "SystemDims",
    "CorruptionModel",
    "GramEig",
    "gram_eig",
    "gen_channel",
    "gen_error",
    "corrupt",
    "build_bsca",
]


@dataclass(frozen=True)
class SystemDims:
    users: int
    antennas: int

    def __post_init__(self):
        if not (0 < self.users < self.antennas):
            raise ValueError(
                f"need 0 < users < antennas, got {self.users}, {self.antennas}"
            )

    @property
    def q(self) -> float:
        return self.users / self.antennas


@dataclass(frozen=True)
class CorruptionModel:
    """CSI error level and mode; c scales the corruption variance (default 1)."""

    eta: float
    mode: str = "additive"
    c: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.eta < 1.0:
            raise ValueError(f"eta must lie in [0, 1), got {self.eta}")
        if self.mode not in ("damped", "additive"):
            raise ValueError(f"mode must be 'damped' or 'additive', got {self.mode!r}")
        if not self.c > 0:
            raise ValueError(f"c must be positive, got {self.c}")

    def alpha(self) -> float:
        """Additive-form noise amplitude sqrt(eta c / (1 - eta))."""
        return float(np.sqrt(self.eta * self.c / (1.0 - self.eta)))

    def additive_form(self, H_obs: np.ndarray) -> np.ndarray:
        """The observation in additive form, whose estimand is the true channel.

        In either mode a matrix that is not 2-D or has non-finite entries
        raises ValueError first (:func:`_finite_matrix`).  An additive
        observation is already in that form and comes back as it is.  A
        damped one is divided by sqrt(1 - eta), a new array even at eta 0.
        """
        H_obs = _finite_matrix(H_obs)
        if self.mode == "additive":
            return H_obs
        return H_obs / np.sqrt(1.0 - self.eta)

    def additive_gram_eig(self, obs: GramEig) -> GramEig:
        """:meth:`additive_form` of a decomposed observation, with no new
        decomposition: dividing by sqrt(1 - eta) keeps the Gram's
        eigenvectors and divides its eigenvalues by 1 - eta."""
        if self.mode == "additive":
            return obs
        return GramEig(self.additive_form(obs.matrix), obs.values / (1.0 - self.eta), obs.vectors)


@dataclass(frozen=True, eq=False)
class GramEig:
    """A finite U x A matrix with the eigenpairs of its U x U Gram:
    ``matrix @ matrix^H = vectors @ diag(values) @ vectors^H``.

    One per trial serves every spectral stage: the estimator's moments are
    power sums of ``values``, the cleaner keeps ``vectors`` and returns the
    cleaned channel's own GramEig, and every precoder is
    diagonal in ``vectors`` and transmits through
    :attr:`antenna_vectors`.  The value order is free (:func:`gram_eig`
    gives eigh's ascending order); each value pairs with its column.
    """

    matrix: np.ndarray
    values: np.ndarray
    vectors: np.ndarray

    def scaled(self, k: float) -> GramEig:
        """The GramEig of ``k * matrix``, with no new decomposition."""
        return GramEig(k * self.matrix, (k * k) * self.values, self.vectors)

    @cached_property
    def antenna_vectors(self) -> np.ndarray:
        """W^H = matrix^H vectors (A x U): each eigendirection seen from the
        antennas.  Made on first use and kept, so every precoder built on
        this GramEig transmits through one copy."""
        w = self.vectors.conj().T @ self.matrix
        return np.conjugate(w, out=w).T

    @cached_property
    def antenna_weights(self) -> np.ndarray:
        """|W^H|^2, entry by entry (A x U, real): an antenna's power is its
        row times the squared per-direction gains."""
        w = self.antenna_vectors
        return w.real * w.real + w.imag * w.imag


def gram_eig(X) -> GramEig:
    """The GramEig of X: X itself if it is one, else one ``eigh`` of X X^H.

    Raises ValueError on a matrix that is not 2-D or has non-finite entries,
    before any decomposition.
    """
    if isinstance(X, GramEig):
        return X
    X = _finite_matrix(X)
    values, vectors = np.linalg.eigh(X @ X.conj().T)
    return GramEig(X, values, vectors)


def _finite_matrix(X) -> np.ndarray:
    """X as an array; ValueError unless it is 2-D with finite entries."""
    X = np.asarray(X)
    if X.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    if not np.isfinite(X).all():
        raise ValueError("matrix has non-finite entries")
    return X


def _cn_matrix(rows: int, cols: int, var: float, rng: np.random.Generator):
    # circularly symmetric complex Gaussian, per-entry variance var: the first
    # normal fill scaled into the real parts, the second into the imaginary
    # parts, the bits of sqrt(var/2) * (a + 1j*b) with no complex temporary
    scale = np.sqrt(var / 2.0)
    z = np.empty((rows, cols), dtype=complex)
    np.multiply(scale, rng.standard_normal((rows, cols)), out=z.real)
    np.multiply(scale, rng.standard_normal((rows, cols)), out=z.imag)
    return z


def gen_channel(dims: SystemDims, rng: np.random.Generator) -> np.ndarray:
    """Draw a U x A channel with i.i.d. CN(0, 1/A) entries."""
    return _cn_matrix(dims.users, dims.antennas, 1.0 / dims.antennas, rng)


def gen_error(dims: SystemDims, model: CorruptionModel, rng: np.random.Generator) -> np.ndarray:
    """Draw the U x A corruption error E that :func:`corrupt` mixes in under
    ``model``: i.i.d. CN(0, c/A) entries in the damped mode, CN(0, 1/A) in
    the additive one.  ``model.eta`` is not read, so one draw serves every
    error level of the same mode and c."""
    var = model.c if model.mode == "damped" else 1.0
    return _cn_matrix(dims.users, dims.antennas, var / dims.antennas, rng)


def corrupt(H: np.ndarray, model: CorruptionModel, error: np.ndarray | None) -> np.ndarray:
    """The observation of H under ``model``, with the error E of
    :func:`gen_error`: sqrt(1-eta) H + sqrt(eta) E (damped) or
    H + alpha E (additive).  eta = 0 returns a copy of H and reads no error,
    so ``error`` may then be None."""
    if model.eta == 0.0:
        return H.copy()
    # the channel term is added into the scaled error in place; IEEE addition
    # commutes, so the bits are those of the written-out sum
    if model.mode == "damped":
        obs = np.sqrt(model.eta) * error
        obs += np.sqrt(1.0 - model.eta) * H
    else:
        obs = model.alpha() * error
        obs += H
    return obs


def build_bsca(X: np.ndarray) -> np.ndarray:
    """Hermitian block augmentation [[0, X], [X^H, 0]] of a finite U x A matrix."""
    X = _finite_matrix(X)
    u, a = X.shape
    if not u < a:
        raise ValueError(f"expected more columns than rows, got {u}x{a}")
    n = u + a
    B = np.zeros((n, n), dtype=complex)
    B[:u, u:] = X
    B[u:, :u] = X.conj().T
    return B
