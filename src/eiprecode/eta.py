"""Blind estimation of the CSI error level from the noisy observation.

The estimator computes the first Gram-spectrum moments of the observation,
converts them to free cumulants, and fits the error level eta by matching
against the theoretical cumulant curves (see
:func:`eiprecode.rmt.noisy_gram_cumulants_theory`).  The fit is a 1-D
bracketed search: a coarse grid locates the basin, golden-section refines it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rmt import free_cumulants, noisy_gram_cumulants_theory

__all__ = [
    "EstimatorConfig",
    "EtaEstimate",
    "RefinementError",
    "empirical_moments",
    "estimate_eta",
    "delta_eta",
    "default_order",
]

_ETA_CEILING = 1.0 - 1e-3


@dataclass(frozen=True)
class EstimatorConfig:
    """Moment-matching settings.

    order: highest cumulant matched (1, 2 or 3); None applies the size
    policy of :func:`default_order`.
    mode: theory curve family ('gaussian_equivalent' or 'printed').
    c: corruption-variance scale assumed by the theory curves.
    data_mode: declared corruption mode of the observation; only used to
    flag the damped-c=1 identifiability boundary on the estimate.
    """

    order: int | None = None
    mode: str = "gaussian_equivalent"
    c: float = 1.0
    data_mode: str = "additive"
    grid_points: int = 200
    refine_tol: float = 1e-6

    def __post_init__(self):
        if self.order is not None and self.order not in (1, 2, 3):
            raise ValueError("order must be 1, 2, 3 or None")
        if self.mode not in ("gaussian_equivalent", "printed"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.data_mode not in ("additive", "damped"):
            raise ValueError(f"unknown data_mode {self.data_mode!r}")
        if self.grid_points < 3:
            raise ValueError("grid_points must be at least 3")


@dataclass(frozen=True)
class EtaEstimate:
    eta_hat: float
    alpha_hat: float
    objective_value: float
    identifiable: bool
    order: int
    mode: str
    kappa_hat: tuple = field(default=())


class RefinementError(RuntimeError):
    """Golden-section refinement failed; carries the coarse-grid argmin."""

    def __init__(self, message: str, coarse_argmin: float):
        super().__init__(message)
        self.coarse_argmin = coarse_argmin


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


def _objective(eta, kappa_hat, q, order, mode, c):
    theory = noisy_gram_cumulants_theory(eta, q, mode=mode, c=c)
    diff = kappa_hat[:order] - theory[:order]
    return float(np.dot(diff, diff))

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_section(f, a, b, tol, coarse_argmin, max_iter=200):
    """Golden-section minimization on [a, b] to interval width tol."""
    if b <= a:
        return coarse_argmin
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(max_iter):
        if b - a < tol:
            return 0.5 * (a + b)
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
    raise RefinementError(
        f"golden-section did not reach width {tol} in {max_iter} iterations",
        coarse_argmin,
    )


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

    def f(eta):
        return _objective(eta, kappa_hat, q, order, cfg.mode, cfg.c)

    lo, hi = 1e-6, _ETA_CEILING
    grid = np.linspace(lo, hi, cfg.grid_points)
    vals = np.array([f(e) for e in grid])
    k = int(np.argmin(vals))
    coarse = float(grid[k])
    left = float(grid[max(k - 1, 0)])
    right = float(grid[min(k + 1, len(grid) - 1)])
    eta_hat = _golden_section(f, left, right, cfg.refine_tol, coarse)
    if f(coarse) < f(eta_hat):
        eta_hat = coarse
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
        objective_value=float(f(eta_hat)),
        identifiable=identifiable,
        order=order,
        mode=cfg.mode,
        kappa_hat=tuple(kappa_hat),
    )


def delta_eta(true_eta: float, est: EtaEstimate | float) -> float:
    """Absolute estimation error |eta - eta_hat|."""
    eta_hat = est.eta_hat if isinstance(est, EtaEstimate) else float(est)
    return abs(float(true_eta) - eta_hat)
