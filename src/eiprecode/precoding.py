"""Uniform quantization, Bussgang linearization, and linear precoders.

Quantizer layout for B bits and step D, applied to the real and imaginary
components separately:

* labels     l_j = D (j - (2^B - 1)/2),  j = 0 .. 2^B - 1
* thresholds t_l = D (l - 2^(B-1)),      l = 1 .. 2^B - 1

so the thresholds are the midpoints between consecutive labels and a zero
input maps up (to +D/2).  The ``auto`` step rule scales the
Gaussian-distortion-minimizing unit-variance step by the per-component
input deviation.

Precoders return a matrix P with tr(P P^H) = P_total exactly and a
receiver scaling beta minimizing the linearized symbol error
E||s - beta(H F P s + H d + n)||^2 in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import optimize
from scipy.special import erf

__all__ = [
    "PRECODERS",
    "QuantizerSpec",
    "BussgangModel",
    "PrecodeOutput",
    "optimal_step",
    "quantize",
    "quantized_power",
    "bussgang_gain",
    "bussgang_model",
    "measure_distortion",
    "wf_precode",
    "wfq_precode",
    "precode",
    "transmit",
]

PRECODERS = ("WF", "WFQ", "MRT", "ZF", "QCE")

_MAX_BITS = 12


@dataclass(frozen=True)
class QuantizerSpec:
    """Uniform quantizer: bit depth plus a concrete or 'auto' step."""

    bits: int
    step: float | str = "auto"

    def __post_init__(self):
        if not (1 <= int(self.bits) <= _MAX_BITS):
            raise ValueError(f"bits must lie in [1, {_MAX_BITS}], got {self.bits}")
        if isinstance(self.step, str):
            if self.step != "auto":
                raise ValueError(f"step must be positive or 'auto', got {self.step!r}")
        elif self.step <= 0:
            raise ValueError(f"step must be positive, got {self.step}")

    @property
    def is_auto(self) -> bool:
        return isinstance(self.step, str)

    def step_for(self, input_variance):
        """The step for a per-component input variance (scalar or array):
        the fixed step, or optimal_step(bits) * sqrt(variance) per entry."""
        if not self.is_auto:
            return self.step
        return optimal_step(self.bits) * np.sqrt(input_variance)

    def labels(self) -> np.ndarray:
        if self.is_auto:
            raise ValueError("labels undefined for an auto step; take step_for(variance)")
        j = np.arange(2 ** self.bits)
        return self.step * (j - (2 ** self.bits - 1) / 2.0)

    def thresholds(self) -> np.ndarray:
        if self.is_auto:
            raise ValueError("thresholds undefined for an auto step; take step_for(variance)")
        l = np.arange(1, 2 ** self.bits)
        return self.step * (l - 2 ** (self.bits - 1))


@lru_cache(maxsize=None)
def optimal_step(bits: int) -> float:
    """Distortion-minimizing uniform step for a unit-variance Gaussian input.

    For real x ~ N(0, 1) the distortion is E(Q(x) - x)^2 = 1 - 2F + P/2, with
    F and P the Bussgang gain and output power of a CN(0, 2) input, whose
    components are unit-variance (Max, IRE Trans. IT 1960; Jacobsson et al.,
    IEEE Trans. Commun. 2017).
    """
    if not (1 <= bits <= _MAX_BITS):
        raise ValueError(f"bits must lie in [1, {_MAX_BITS}], got {bits}")

    def distortion(step):
        spec = QuantizerSpec(bits, step)
        return 1.0 - 2.0 * bussgang_gain(spec, 2.0) + quantized_power(spec, 2.0) / 2.0

    res = optimize.minimize_scalar(
        distortion, bounds=(1e-4, 3.0), method="bounded", options={"xatol": 1e-8}
    )
    return float(res.x)


def _quantize_real(v: np.ndarray, bits: int, step) -> np.ndarray:
    n = 2 ** bits
    idx = np.floor(v / step) + n // 2
    idx = np.clip(idx, 0, n - 1)
    return step * (idx - (n - 1) / 2.0)


def quantize(x: np.ndarray, spec: QuantizerSpec, input_variance=None) -> np.ndarray:
    """Quantize the real and imaginary parts of x on the label grid.

    ``input_variance`` (per real component) materializes an auto step; for
    matrix inputs it may be a per-row array so every antenna gets its own
    step.  Saturating inputs clamp to the outermost labels; zero maps up.
    """
    x = np.asarray(x, dtype=complex)
    if spec.is_auto:
        if input_variance is None:
            raise ValueError("auto-step quantization needs input_variance")
        step = spec.step_for(np.asarray(input_variance, dtype=float))
        if step.ndim == 1 and x.ndim == 2:
            step = step[:, None]
        if np.any(step <= 0):
            step = np.where(step <= 0, 1.0, step)  # dead antennas: grid is moot
    else:
        step = spec.step
    return _quantize_real(x.real, spec.bits, step) + 1j * _quantize_real(
        x.imag, spec.bits, step
    )


def _live_variances(sigma_u2):
    """Validated CN input variances, a mask of the nonzero ones, and the
    variances with zeros replaced by 1 so the formulas stay finite."""
    s = np.asarray(sigma_u2, dtype=float)
    if np.any(s < 0):
        raise ValueError("sigma_u2 must be nonnegative")
    live = s != 0
    return live, np.where(live, s, 1.0)


def bussgang_gain(spec: QuantizerSpec, sigma_u2):
    """Linear (Bussgang) gain of the quantizer for a CN(0, sigma_u2) input.

    F = (D / sqrt(pi sigma_u2)) * sum_l exp(-D^2 (l - 2^(B-1))^2 / sigma_u2)
    over the threshold indices l = 1 .. 2^B - 1.  ``sigma_u2`` may be an
    array of per-antenna variances, evaluated in one broadcast; a scalar
    returns a float.  A zero-variance input is assigned gain 1 (no signal,
    no distortion).
    """
    live, v = _live_variances(sigma_u2)
    d = np.asarray(spec.step_for(v / 2.0))
    k = np.arange(1, 2 ** spec.bits) - 2 ** (spec.bits - 1)
    expo = np.exp(-(d[..., None] ** 2) * k ** 2 / v[..., None])
    gain = np.where(live, d / np.sqrt(np.pi * v) * np.sum(expo, axis=-1), 1.0)
    return float(gain) if gain.ndim == 0 else gain


def quantized_power(spec: QuantizerSpec, sigma_u2):
    """E |Q(u)|^2 for a CN(0, sigma_u2) input (both components pooled);
    array input is evaluated per entry in one broadcast, as in
    :func:`bussgang_gain`, and a zero variance gives 0."""
    live, v = _live_variances(sigma_u2)
    n = 2 ** spec.bits
    d = np.asarray(spec.step_for(v / 2.0))[..., None]
    labels = d * (np.arange(n) - (n - 1) / 2.0)
    z = d * (np.arange(1, n) - n // 2) / (np.sqrt(v / 2.0)[..., None] * np.sqrt(2.0))
    # the outer cells run to -inf and +inf, where the CDF is exactly 0 and 1
    mass = np.diff(0.5 * (1.0 + erf(z)), prepend=0.0, append=1.0, axis=-1)
    power = np.where(live, 2.0 * np.sum(labels ** 2 * mass, axis=-1), 0.0)
    return float(power) if power.ndim == 0 else power


@dataclass(frozen=True)
class BussgangModel:
    """Per-antenna linearization of the quantized transmit chain."""

    gains: np.ndarray        # diagonal of the A x A gain matrix F
    sigma_d2: np.ndarray     # per-antenna distortion variances
    sigma_m2: np.ndarray     # per-antenna quantizer-input variances


def bussgang_model(P: np.ndarray, spec: QuantizerSpec, sigma2: float) -> BussgangModel:
    """Diagonal Bussgang gains and the distortion variances
    sigma_d2 = (1 - F_mm)(U sigma^2 + 1) for the precoder input covariance
    R_zz = P P^H (unit-energy symbols), with U the column count of P."""
    P = np.asarray(P)
    users = P.shape[1]
    sigma_m2 = np.einsum("ij,ij->i", P, P.conj()).real
    gains = bussgang_gain(spec, sigma_m2)
    sigma_d2 = (1.0 - gains) * (users * sigma2 + 1.0)
    return BussgangModel(gains=gains, sigma_d2=sigma_d2, sigma_m2=sigma_m2)


def measure_distortion(
    P: np.ndarray,
    spec: QuantizerSpec,
    rng: np.random.Generator,
    draws: int = 20000,
) -> np.ndarray:
    """Monte-Carlo per-antenna distortion power E|Q(u) - F u|^2 with
    Gaussian symbols; diagnostic companion to the closed-form sigma_d2."""
    P = np.asarray(P)
    a, u = P.shape
    s = (rng.standard_normal((u, draws)) + 1j * rng.standard_normal((u, draws))) / np.sqrt(2.0)
    z = P @ s
    sigma_m2 = np.einsum("ij,ij->i", P, P.conj()).real
    gains = bussgang_gain(spec, sigma_m2)
    q = quantize(z, spec, input_variance=sigma_m2 / 2.0)
    d = q - gains[:, None] * z
    return np.mean(np.abs(d) ** 2, axis=1)


@dataclass(frozen=True)
class PrecodeOutput:
    """Power-normalized precoding matrix plus receiver scaling."""

    P: np.ndarray
    beta: float
    kind: str
    p_total: float
    # read only by perfbench's wfq_precode observer; every precoder is closed form
    converged: bool = True
    residuals: tuple = field(default=())


def _normalize_power(P_raw: np.ndarray, p_total: float) -> np.ndarray:
    power = np.sum(np.abs(P_raw) ** 2)
    if power == 0:
        raise np.linalg.LinAlgError("zero precoding matrix")
    return P_raw * np.sqrt(p_total / power)


def _regularized(H_csi: np.ndarray, theta: float, p_total: float) -> np.ndarray:
    """H^H (H H^H + U theta I)^{-1}, scaled to tr(P P^H) = P_total."""
    users = H_csi.shape[0]
    gram = H_csi @ H_csi.conj().T + users * theta * np.eye(users)
    return _normalize_power(np.linalg.solve(gram, H_csi).conj().T, p_total)


def _receiver_beta(
    H_csi: np.ndarray, P: np.ndarray, sigma2: float, model: BussgangModel | None
) -> float:
    users = H_csi.shape[0]
    if model is None:
        HFP = H_csi @ P
        distortion = 0.0
    else:
        HFP = H_csi @ (model.gains[:, None] * P)
        distortion = float(
            np.einsum("um,m,um->", H_csi, model.sigma_d2, H_csi.conj()).real
        )
    num = float(np.trace(HFP).real)
    den = float(np.sum(np.abs(HFP) ** 2)) + distortion + users * sigma2
    if den <= 0:
        return 1.0
    return max(num / den, np.finfo(float).tiny)


def wf_precode(
    H_csi: np.ndarray, sigma2: float, p_total: float = 1.0
) -> PrecodeOutput:
    """Regularized (Wiener) precoder P ~ H^H (H H^H + U sigma^2 I)^{-1},
    scaled to tr(P P^H) = P_total."""
    H_csi = np.asarray(H_csi)
    P = _regularized(H_csi, sigma2, p_total)
    beta = _receiver_beta(H_csi, P, sigma2, None)
    return PrecodeOutput(P=P, beta=beta, kind="WF", p_total=float(p_total))


def wfq_precode(
    H_csi: np.ndarray, sigma2: float, p_total: float = 1.0, *, spec: QuantizerSpec
) -> tuple[PrecodeOutput, BussgangModel]:
    """Quantization-aware regularized precoder, in closed form.

    One regularized solve H^H (H H^H + U theta I)^{-1} at
    theta = sigma^2 + (1 - F_B)(U sigma^2 + 1), with F_B = bussgang_gain(spec, 1)
    and U the row count of ``H_csi``; ``beta`` comes from the
    Bussgang model of the normalized matrix.  This is exact, not a
    truncated fixed point: an auto step scales with each antenna's input
    deviation, so the quantizer is scale-invariant and every antenna has
    the same gain F_B whatever its power, hence the same distortion
    variance (1 - F_B)(U sigma^2 + 1), which no choice of P can move.
    The closed form counts every antenna as live; it differs from iterating
    on the antenna-average distortion only for CSI with an all-zero column
    (a dead antenna, distortion 0), which no CSI mode produces.  A fixed
    step breaks the scale invariance and raises ``ValueError``.
    """
    if not spec.is_auto:
        raise ValueError("wfq_precode needs an auto-step quantizer spec")
    H_csi = np.asarray(H_csi)
    users = H_csi.shape[0]
    gain = bussgang_gain(spec, 1.0)
    theta = sigma2 + (1.0 - gain) * (users * sigma2 + 1.0)
    P = _regularized(H_csi, theta, p_total)
    model = bussgang_model(P, spec, sigma2)
    beta = _receiver_beta(H_csi, P, sigma2, model)
    return PrecodeOutput(P=P, beta=beta, kind="WFQ", p_total=float(p_total)), model


def precode(
    kind: str,
    H_csi: np.ndarray,
    sigma2: float,
    p_total: float = 1.0,
    spec: QuantizerSpec | None = None,
) -> PrecodeOutput:
    """The precoder ``kind``, one of :data:`PRECODERS`, power-normalized.

    WF and WFQ are :func:`wf_precode` and :func:`wfq_precode`; WFQ with
    ``spec=None`` (ideal DACs) is WF.  MRT is the matched filter and ZF the
    zero-noise regularized precoder.  QCE stores the (normalized) regularized
    matrix that supplies the phases; the constant-envelope mapping itself
    happens in :func:`transmit`, where each antenna sample becomes
    sqrt(P_total/A) * exp(i * quantized phase), so per-symbol radiated power
    is exactly P_total.
    """
    if kind not in PRECODERS:
        raise ValueError(f"precoder must be one of {PRECODERS}, got {kind!r}")
    # WF and WFQ are looked up at call time, so a wrapper set on this module sees them
    if kind == "WF" or (kind == "WFQ" and spec is None):
        return wf_precode(H_csi, sigma2, p_total)
    if kind == "WFQ":
        return wfq_precode(H_csi, sigma2, p_total, spec=spec)[0]
    if kind == "QCE" and spec is None:
        raise ValueError("QCE needs a quantizer spec for the phase sectors")
    H_csi = np.asarray(H_csi)
    if kind == "MRT":
        P = _normalize_power(H_csi.conj().T, p_total)
    else:
        P = _regularized(H_csi, 0.0 if kind == "ZF" else sigma2, p_total)
    beta = _receiver_beta(H_csi, P, sigma2, None)
    return PrecodeOutput(P=P, beta=beta, kind=kind, p_total=float(p_total))


def transmit(
    pout: PrecodeOutput, s: np.ndarray, spec: QuantizerSpec | None = None
) -> np.ndarray:
    """Map symbol vectors to antenna samples through the configured DACs.

    ``spec=None`` bypasses quantization (ideal DACs).  For QCE outputs the
    antenna samples are constant-envelope with the phase rounded to one of
    2^B sectors.  Otherwise the precoded samples are quantized per antenna
    (auto steps from diag(P P^H)) and scaled by a deterministic scalar so the
    expected radiated power is P_total.
    """
    s = np.asarray(s, dtype=complex)
    x_lin = pout.P @ s
    if pout.kind == "QCE":
        if spec is None:
            raise ValueError("QCE transmit needs a quantizer spec")
        sectors = 2 ** spec.bits
        width = 2.0 * np.pi / sectors
        phase = np.round(np.angle(x_lin) / width) * width
        amp = np.sqrt(pout.p_total / pout.P.shape[0])
        return amp * np.exp(1j * phase)
    if spec is None:
        return x_lin
    sigma_m2 = np.einsum("ij,ij->i", pout.P, pout.P.conj()).real
    x = quantize(x_lin, spec, input_variance=sigma_m2 / 2.0)
    p_rad = float(np.sum(quantized_power(spec, sigma_m2)))
    if p_rad > 0:
        x = x * np.sqrt(pout.p_total / p_rad)
    return x
