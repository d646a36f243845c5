"""Blind estimation of the CSI error level from the noisy observation.

The estimator computes the first Gram-spectrum moments of the observation,
converts them to free cumulants, and fits the error level eta by least
squares against the theoretical cumulant curves (see
:func:`eiprecode.rmt.noisy_gram_cumulant_polys`).  Those curves are
polynomials in one scalar x of eta, so the fit is closed form: the global
minimum over the admissible eta range is at an end point or at a real root
of the derivative of the objective polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rmt import (
    free_cumulants,
    noisy_gram_cumulant_polys,
    noisy_gram_cumulants_theory,
)

__all__ = [
    "EstimatorConfig",
    "EtaEstimate",
    "empirical_moments",
    "estimate_eta",
    "delta_eta",
    "default_order",
]

_ETA_FLOOR = 1e-6
_ETA_CEILING = 1.0 - 1e-3


@dataclass(frozen=True)
class EstimatorConfig:
    """Moment-matching settings.

    order: highest cumulant matched (1, 2 or 3); None applies the size
    policy of :func:`default_order`.
    mode: theory curve family ('gaussian_equivalent' or 'printed').
    c: corruption-variance scale assumed by the theory curves (positive;
    the printed family is drawn for c = 1 only, so it requires c = 1).
    data_mode: declared corruption mode of the observation; only used to
    flag the damped-c=1 identifiability boundary on the estimate.
    """

    order: int | None = None
    mode: str = "gaussian_equivalent"
    c: float = 1.0
    data_mode: str = "additive"

    def __post_init__(self):
        if self.order is not None and self.order not in (1, 2, 3):
            raise ValueError("order must be 1, 2, 3 or None")
        if self.mode not in ("gaussian_equivalent", "printed"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.data_mode not in ("additive", "damped"):
            raise ValueError(f"unknown data_mode {self.data_mode!r}")
        if not self.c > 0:
            raise ValueError("c must be positive")
        if self.mode == "printed" and self.c != 1.0:
            raise ValueError(f"mode 'printed' assumes c = 1, got c = {self.c}")


@dataclass(frozen=True)
class EtaEstimate:
    eta_hat: float
    alpha_hat: float
    objective_value: float
    identifiable: bool
    order: int
    mode: str
    kappa_hat: tuple = field(default=())


def default_order(users: int, antennas: int) -> int:
    """Order policy: 1 for small problems (U*A < 1e4), 3 otherwise."""
    return 1 if users * antennas < 10_000 else 3


def empirical_moments(H_obs: np.ndarray) -> np.ndarray:
    """First three Gram-spectrum moments m_k = (1/U) tr((H H^H)^k).

    Computed from the eigenvalues of the U x U Gram matrix; never forms
    matrix powers beyond the Gram itself.
    """
    H_obs = np.asarray(H_obs)
    if H_obs.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    gram = H_obs @ H_obs.conj().T
    lam = np.linalg.eigvalsh(gram)
    return np.array([np.mean(lam), np.mean(lam ** 2), np.mean(lam ** 3)])


def estimate_eta(H_obs: np.ndarray, q: float, cfg: EstimatorConfig | None = None) -> EtaEstimate:
    """Fit the CSI error level by cumulant matching on the Gram spectrum."""
    if cfg is None:
        cfg = EstimatorConfig()
    H_obs = np.asarray(H_obs)
    u, a = H_obs.shape
    if not np.isfinite(H_obs).all():
        raise ValueError("observation has non-finite entries")
    if not np.any(H_obs):
        raise ValueError("observation is identically zero")
    order = cfg.order if cfg.order is not None else default_order(u, a)
    kappa_hat = free_cumulants(empirical_moments(H_obs))

    # least-squares objective sum_k (kappa_hat_k - kappa_k(x))^2 as one
    # polynomial in x; eta = (x - 1)/(x - 1 + b) is increasing in x
    b, polys = noisy_gram_cumulant_polys(q, cfg.mode, cfg.c)
    objective = np.zeros(1)
    for k_hat, poly in zip(kappa_hat[:order], polys):
        resid = np.polysub([k_hat], poly)
        objective = np.polyadd(objective, np.polymul(resid, resid))
    x_lo, x_hi = (1.0 + b * e / (1.0 - e) for e in (_ETA_FLOOR, _ETA_CEILING))
    # the real part of every root is a candidate: a spurious one costs an
    # evaluation, while a real root is never lost to a rounding-level
    # imaginary part
    crit = np.roots(np.polyder(objective)).real
    crit = crit[(crit > x_lo) & (crit < x_hi)]
    xs = np.concatenate(([x_lo, x_hi], crit))
    etas = np.concatenate(
        ([_ETA_FLOOR, _ETA_CEILING], (crit - 1.0) / (crit - 1.0 + b))
    )
    eta_hat = float(etas[np.argmin(np.polyval(objective, xs))])
    theory = noisy_gram_cumulants_theory(eta_hat, q, mode=cfg.mode, c=cfg.c)
    diff = kappa_hat[:order] - theory[:order]
    alpha_hat = float(np.sqrt(eta_hat * cfg.c / (1.0 - eta_hat)))
    s_hat = 1.0 + alpha_hat ** 2
    # damped corruption with c = 1 leaves the observed scale at 1 in law, so
    # a fitted scale indistinguishable from 1 carries no eta information
    identifiable = not (
        cfg.data_mode == "damped"
        and cfg.c == 1.0
        and abs(s_hat - 1.0) < 2.0 / np.sqrt(u * a)
    )
    return EtaEstimate(
        eta_hat=eta_hat,
        alpha_hat=alpha_hat,
        objective_value=float(np.dot(diff, diff)),
        identifiable=identifiable,
        order=order,
        mode=cfg.mode,
        kappa_hat=tuple(kappa_hat),
    )


def delta_eta(true_eta: float, est: EtaEstimate | float) -> float:
    """Absolute estimation error |eta - eta_hat|."""
    eta_hat = est.eta_hat if isinstance(est, EtaEstimate) else float(est)
    return abs(float(true_eta) - eta_hat)
