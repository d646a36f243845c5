"""Blind estimation of the CSI error level from the noisy observation.

The estimator computes the first Gram-spectrum moments of the observation
from the eigenvalues of its U x U Gram (the decomposition a link trial
shares with the cleaner and the precoder), converts them to free
cumulants, and fits the error level eta by least squares against the
theoretical cumulant curves (see
:func:`eiprecode.rmt.noisy_gram_cumulant_polys`).  Those curves are
polynomials in one scalar x of eta, so the fit is closed form: the global
minimum over the admissible eta range is at an end point or at a real root
of the derivative of the objective polynomial.  At order 1 that root is
x = kappa_hat_1 itself, because both curve families have kappa_1(x) = x,
so the fit reads eta = (x - 1)/(x - 1 + b) off the first sampled cumulant
unless a range end scores lower; orders 2 and 3 take the real roots of
the derivative.  The fit runs on Python floats, with the arithmetic of the
NumPy polynomial routines, so it gives their result to the bit.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .channel import CorruptionModel, GramEig, SystemDims, gram_eig
from .rmt import _cumulant_polys, _free_cumulants, _horner, noisy_gram_cumulants_theory

__all__ = [
    "EstimatorConfig",
    "EtaEstimate",
    "empirical_moments",
    "estimate_eta",
]

_ETA_FLOOR = 1e-6
_ETA_CEILING = 1.0 - 1e-3


@dataclass(frozen=True)
class EstimatorConfig:
    """Moment-matching settings.

    order: highest cumulant matched (1, 2 or 3); None, the config
    schema's default, means 1.
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
        # the config layer's integer rule: an integral real is cast to int
        # (2.0 and numpy's 2 give 2), a bool is never a number
        order = 1 if self.order is None else self.order
        order = order.item() if isinstance(order, np.generic) else order
        if isinstance(order, bool) or not isinstance(order, numbers.Real) or order not in (1, 2, 3):
            raise ValueError(f"order must be 1, 2, 3 or None, got {self.order!r}")
        object.__setattr__(self, "order", int(order))
        if self.mode not in ("gaussian_equivalent", "printed"):
            raise ValueError(f"unknown mode {self.mode!r}")
        CorruptionModel(0.0, self.data_mode, self.c)  # owns the data_mode and c rules
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


def empirical_moments(H_obs: np.ndarray | GramEig) -> np.ndarray:
    """First three Gram-spectrum moments m_k = (1/U) sum_j w_j^k.

    The w_j are the eigenvalues of the U x U Gram H H^H, read off a
    :class:`~eiprecode.channel.GramEig` or, for a bare matrix, taken from
    :func:`~eiprecode.channel.gram_eig`.
    """
    return np.array(_moments(gram_eig(H_obs).values))


def _moments(w: np.ndarray) -> tuple[float, float, float]:
    """:func:`empirical_moments` of the Gram eigenvalues w, as Python floats.

    The sums of w, w ** 2 (numpy squares as w * w) and w ** 3, taken with
    the ndarray methods."""
    n = w.size
    return float(w.sum()) / n, float((w * w).sum()) / n, float((w ** 3).sum()) / n


def estimate_eta(H_obs: np.ndarray | GramEig, cfg: EstimatorConfig | None = None) -> EtaEstimate:
    """Fit the CSI error level by cumulant matching on the Gram spectrum (q = U/A).

    ``H_obs`` is the observation or its :class:`~eiprecode.channel.GramEig`;
    a bare matrix is decomposed once.  A non-finite or all-zero observation,
    or one without fewer users than antennas, raises ValueError.
    """
    if cfg is None:
        cfg = EstimatorConfig()
    obs = gram_eig(H_obs)
    u, a = obs.matrix.shape
    q = SystemDims(u, a).q  # validates 0 < U < A
    if not np.any(obs.matrix):
        raise ValueError("observation is identically zero")
    order = cfg.order
    kappa_hat = _free_cumulants(*_moments(obs.values))

    # least-squares objective sum_k (kappa_hat_k - kappa_k(x))^2 as one
    # polynomial in x, highest power first; eta = (x - 1)/(x - 1 + b) is
    # increasing in x
    b, polys = _cumulant_polys(q, cfg.mode, cfg.c)
    if order == 1:
        # kappa_1(x) = x in both families: the objective is (kappa_hat_1 - x)^2,
        # whose one stationary point is kappa_hat_1
        k1 = kappa_hat[0]
        objective = (1.0, -2.0 * k1, k1 * k1)
        crit = [k1]
    else:
        # each square added at the low-power end
        objective = np.zeros(2 * order + 1)
        for k_hat, poly in zip(kappa_hat[:order], polys):
            resid = np.zeros(len(poly))
            resid[-1] = k_hat
            resid -= poly
            square = np.convolve(resid, resid)
            objective[objective.size - square.size :] += square
        # the real part of every root is a candidate: a spurious one costs an
        # evaluation, while a real root is never lost to a rounding-level
        # imaginary part
        slope = objective[:-1] * np.arange(objective.size - 1, 0, -1)
        crit = np.roots(slope).real.tolist()
        objective = objective.tolist()
    x_lo, x_hi = (1.0 + b * e / (1.0 - e) for e in (_ETA_FLOOR, _ETA_CEILING))
    # the range ends first, so the first minimum is the argmin's
    xs = [x_lo, x_hi] + [x for x in crit if x_lo < x < x_hi]
    etas = [_ETA_FLOOR, _ETA_CEILING] + [(x - 1.0) / (x - 1.0 + b) for x in xs[2:]]
    scores = [_horner(objective, x) for x in xs]
    eta_hat = etas[scores.index(min(scores))]
    theory = noisy_gram_cumulants_theory(eta_hat, q, mode=cfg.mode, c=cfg.c)
    diff = np.subtract(kappa_hat[:order], theory[:order])
    alpha_hat = CorruptionModel(eta_hat, cfg.data_mode, cfg.c).alpha()
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
        kappa_hat=kappa_hat,
    )
