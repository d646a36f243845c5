"""Channel generation, Gauss-Markov corruption, and the BSCA embedding.

The true channel H is U x A with i.i.d. CN(0, 1/A) entries (U users,
A antennas, U < A).  Two corruption modes produce the observation:

* ``damped``:   H_obs = sqrt(1-eta) H + sqrt(eta) E,  E entries CN(0, c/A)
* ``additive``: H_obs = H + alpha E',  alpha = sqrt(eta c / (1-eta)),
  E' entries CN(0, 1/A)

The damped observation divided by sqrt(1-eta) equals the additive one in
law; with c = 1 the damped observation is equal in law to H itself, so eta
is blindly unidentifiable in that corner (see eta estimator docs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SystemDims",
    "CorruptionModel",
    "gen_channel",
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

        An additive observation is already in that form and comes back as
        it is.  A damped one is divided by sqrt(1 - eta), or copied at
        eta 0; its non-finite entries raise ValueError before the divide
        touches them.
        """
        if self.mode == "additive":
            return H_obs
        if not np.isfinite(H_obs).all():
            raise ValueError("observation has non-finite entries")
        if self.eta == 0.0:
            return H_obs.copy()
        return H_obs / np.sqrt(1.0 - self.eta)


def _cn_matrix(rows: int, cols: int, var: float, rng: np.random.Generator):
    # circularly symmetric complex Gaussian, per-entry variance var
    scale = np.sqrt(var / 2.0)
    return scale * (
        rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    )


def gen_channel(dims: SystemDims, rng: np.random.Generator) -> np.ndarray:
    """Draw a U x A channel with i.i.d. CN(0, 1/A) entries."""
    return _cn_matrix(dims.users, dims.antennas, 1.0 / dims.antennas, rng)


def corrupt(
    H: np.ndarray, model: CorruptionModel, rng: np.random.Generator
) -> np.ndarray:
    """Apply the configured corruption; eta = 0 returns H unchanged."""
    if model.eta == 0.0:
        return H.copy()
    u, a = H.shape
    if model.mode == "damped":
        E = _cn_matrix(u, a, model.c / a, rng)
        return np.sqrt(1.0 - model.eta) * H + np.sqrt(model.eta) * E
    E = _cn_matrix(u, a, 1.0 / a, rng)
    return H + model.alpha() * E


def build_bsca(X: np.ndarray) -> np.ndarray:
    """Hermitian block augmentation [[0, X], [X^H, 0]] of a U x A matrix."""
    if X.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    u, a = X.shape
    if not u < a:
        raise ValueError(f"expected more columns than rows, got {u}x{a}")
    n = u + a
    B = np.zeros((n, n), dtype=complex)
    B[:u, u:] = X
    B[u:, :u] = X.conj().T
    return B
