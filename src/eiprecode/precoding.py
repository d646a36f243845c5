"""Uniform quantization, Bussgang linearization, and linear precoders.

Quantizer layout for B bits and step D, applied to the real and imaginary
components separately:

* labels     l_j = D (j - (2^B - 1)/2),  j = 0 .. 2^B - 1
* thresholds t_l = D (l - 2^(B-1)),      l = 1 .. 2^B - 1

so the thresholds are the midpoints between consecutive labels and a zero
input maps up (to +D/2).  The ``auto`` step rule scales the
Gaussian-distortion-minimizing unit-variance step by the per-component
input deviation, which makes the quantizer scale-invariant: for a
CN(0, sigma^2) input the Bussgang gain is F_B = bussgang_gain(spec, 1) and
the output power is P_B sigma^2 with P_B = quantized_power(spec, 1),
whatever sigma^2.  The quantized precoding chain runs on these two
constants of the bit depth: WFQ's regularizer and receiver scaling use F_B,
and transmit's renormalization uses P_B.

The total transmit power is fixed at 1, the unit the SNR is defined in:
precoders return a matrix P with tr(P P^H) = 1 and a receiver scaling beta
minimizing the linearized symbol error E||s - beta(H F P s + H d + n)||^2
in closed form.  Every precoder is diagonal in the eigenbasis of the CSI
Gram H H^H = E diag(lam) E^H: P = W^H diag(g) E^H with W^H = H^H E and
per-direction gains g.  So it runs on the CSI's
:class:`~eiprecode.channel.GramEig`, one per trial for every SNR point, and
is kept in that form: :func:`precode` makes only the U gains, and
:func:`transmit` sends W^H ((E g)^H s) through the DACs, with the antenna
variances |W^H|^2 g^2, from the two A x U products the GramEig makes once.
Every line of :func:`transmit` takes a leading point axis: the outputs of
an SNR sweep on one GramEig go through the products, the quantizer and
the rescale in one pass, with their gains stacked to (S, U), and a lone
output is the S = 1 case of the same lines.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .channel import GramEig, gram_eig

__all__ = [
    "PRECODERS",
    "QuantizerSpec",
    "PrecodeOutput",
    "optimal_step",
    "quantize",
    "quantized_power",
    "bussgang_gain",
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
        # a NaN fails the range, and a fractional depth would break the odd label grid
        if not 1 <= self.bits <= _MAX_BITS or self.bits != int(self.bits):
            raise ValueError(f"bits must be an integer in [1, {_MAX_BITS}], got {self.bits}")
        if isinstance(self.step, str):
            if self.step != "auto":
                raise ValueError(f"step must be positive or 'auto', got {self.step!r}")
        elif not 0 < self.step < np.inf:
            raise ValueError(f"step must be positive and finite, got {self.step}")

    @property
    def is_auto(self) -> bool:
        return isinstance(self.step, str)

    def step_for(self, input_variance):
        """The step for a per-component input variance (scalar or array):
        the fixed step, or optimal_step(bits) * sqrt(variance) per entry."""
        if not self.is_auto:
            return self.step
        return optimal_step(self.bits) * np.sqrt(input_variance)


@lru_cache(maxsize=None)
def optimal_step(bits: int) -> float:
    """Distortion-minimizing uniform step for a unit-variance Gaussian input.

    For real x ~ N(0, 1) the distortion is E(Q(x) - x)^2 = 1 - 2F + P/2, with
    F and P the Bussgang gain and output power of a CN(0, 2) input, whose
    components are unit-variance (Max, IRE Trans. IT 1960; Jacobsson et al.,
    IEEE Trans. Commun. 2017).  The step comes from a golden-section search
    of these closed forms over (1e-4, 3), to a bracket 1e-12 relative wide.
    """
    if not (1 <= bits <= _MAX_BITS):
        raise ValueError(f"bits must lie in [1, {_MAX_BITS}], got {bits}")

    def distortion(step):
        spec = QuantizerSpec(bits, step)
        return 1.0 - 2.0 * bussgang_gain(spec, 2.0) + quantized_power(spec, 2.0) / 2.0

    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 1e-4, 3.0
    while hi - lo > 1e-12 * lo:
        left, right = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
        if distortion(left) <= distortion(right):
            hi = right
        else:
            lo = left
    return (lo + hi) / 2.0


def quantize(x: np.ndarray, spec: QuantizerSpec, input_variance=None) -> np.ndarray:
    """Quantize the real and imaginary parts of x on the label grid.

    ``input_variance`` (per real component) materializes an auto step; for
    matrix inputs it may be a per-row array so every antenna gets its own
    step.  Saturating inputs clamp to the outermost labels; zero maps up.
    x is left unchanged: the result is a new array.
    """
    return _quantize_in_place(np.array(x, dtype=complex), spec, input_variance)


def _quantize_in_place(x: np.ndarray, spec: QuantizerSpec, input_variance) -> np.ndarray:
    """:func:`quantize`, overwriting and returning the complex array x."""
    if spec.is_auto:
        if input_variance is None:
            raise ValueError("auto-step quantization needs input_variance")
        step = spec.step_for(np.asarray(input_variance, dtype=float))
        if step.ndim == 1 and x.ndim == 2:
            step = step[:, None]
        if np.any(step <= 0):
            step = np.where(step <= 0, 1.0, step)  # dead antennas: grid is moot
        step = step[..., None]  # one step for a sample's I and Q
    else:
        step = spec.step
    n = 2 ** spec.bits
    # (..., sample, I/Q): each sample's real and imaginary parts side by side,
    # a view of x, so every operation below writes into x
    q = x[..., None].view(float)
    q /= step
    np.floor(q, out=q)
    # cell index k in [-n/2, n/2 - 1], whose label is (k + 1/2) steps
    np.clip(q, -(n // 2), n // 2 - 1, out=q)
    q += 0.5
    q *= step
    return x


def _variance(sigma_u2) -> float:
    """A validated CN input variance: a nonnegative scalar, as a float."""
    if np.ndim(sigma_u2) != 0:
        raise TypeError("sigma_u2 must be a scalar variance")
    v = float(sigma_u2)
    if not v >= 0:
        raise ValueError(f"sigma_u2 must be nonnegative, got {v}")
    return v


# closed forms memoized per (spec, variance); bounded, because optimal_step's
# search passes a fresh fixed-step spec at every evaluation
_CONSTANTS_CACHE_SIZE = 64


def bussgang_gain(spec: QuantizerSpec, sigma_u2: float) -> float:
    """Linear (Bussgang) gain of the quantizer for a CN(0, sigma_u2) input.

    F = (D / sqrt(pi sigma_u2)) * sum_l exp(-D^2 (l - 2^(B-1))^2 / sigma_u2)
    over the threshold indices l = 1 .. 2^B - 1.  A zero-variance input is
    assigned gain 1 (no signal, no distortion).
    """
    return _bussgang_gain(spec, _variance(sigma_u2))


@lru_cache(maxsize=_CONSTANTS_CACHE_SIZE)
def _bussgang_gain(spec: QuantizerSpec, v: float) -> float:
    if v == 0:
        return 1.0
    d = spec.step_for(v / 2.0)
    k = np.arange(1, 2 ** spec.bits) - 2 ** (spec.bits - 1)
    return float(d / np.sqrt(np.pi * v) * np.sum(np.exp(-(d ** 2) * k ** 2 / v)))


def quantized_power(spec: QuantizerSpec, sigma_u2: float) -> float:
    """E |Q(u)|^2 for a CN(0, sigma_u2) input (both components pooled); a
    zero variance gives 0."""
    return _quantized_power(spec, _variance(sigma_u2))


@lru_cache(maxsize=_CONSTANTS_CACHE_SIZE)
def _quantized_power(spec: QuantizerSpec, v: float) -> float:
    if v == 0:
        return 0.0
    n = 2 ** spec.bits
    d = spec.step_for(v / 2.0)
    labels = d * (np.arange(n) - (n - 1) / 2.0)
    z = d * (np.arange(1, n) - n // 2) / (np.sqrt(v / 2.0) * np.sqrt(2.0))
    # the outer cells run to -inf and +inf, where the CDF is exactly 0 and 1
    cdf = 0.5 * (1.0 + np.array([math.erf(t) for t in z]))
    mass = np.diff(cdf, prepend=0.0, append=1.0)
    return float(2.0 * np.sum(labels ** 2 * mass))


@dataclass(frozen=True)
class PrecodeOutput:
    """A power-normalized precoder in the eigenbasis of its CSI Gram, plus
    the receiver scaling: P = W^H diag(gains) E^H for the CSI's
    ``csi.vectors`` E and ``csi.antenna_vectors`` W^H."""

    csi: GramEig
    gains: np.ndarray
    beta: float
    kind: str
    # read only by perfbench's wfq_precode observer; every precoder is closed form
    converged: bool = True
    residuals: tuple = field(default=())

    @property
    def P(self) -> np.ndarray:
        """The A x U precoding matrix, made afresh on each read:
        (E diag(gains) E^H H)^H, one product over the A antennas, U×U by
        U×A."""
        E = self.csi.vectors
        return (((E * self.gains) @ E.conj().T) @ self.csi.matrix).conj().T


# a regularized Gram eigenvalue at most U eps times the largest is null to
# working precision (numpy's matrix_rank rule)
_EPS = np.finfo(float).eps


def _spectral(csi: GramEig, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The gains c d of P = c H^H E diag(d) E^H for H H^H = E diag(lam) E^H,
    scaled to tr(P P^H) = c^2 sum lam d^2 = 1, and the eigenvalues c lam d
    of the Hermitian U×U product H P = E diag(c lam d) E^H.

    Nothing A-sized is made.  A zero P raises ``LinAlgError``.
    """
    power = float(np.dot(csi.values, d * d))
    if not power > 0:
        raise np.linalg.LinAlgError("zero precoding matrix")
    cd = d * np.sqrt(1.0 / power)
    return cd, csi.values * cd


def _regularized(csi: GramEig, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_spectral` at d = 1/(lam + U theta): P = c H^H R^+ with
    R = H H^H + U theta I = E diag(lam + U theta) E^H.

    A direction whose eigenvalue of R is at most U eps times the largest
    (as for ZF on rank-deficient CSI) is null to working precision and gets
    d = 0: R^+ is the pseudo-inverse, so nothing is sent on it.  CSI with no
    direction left raises ``LinAlgError``, through :func:`_spectral`.
    """
    shifted = csi.values + csi.values.size * theta
    kept = shifted > shifted.size * _EPS * shifted.max()
    return _spectral(csi, np.divide(1.0, shifted, out=np.zeros_like(shifted), where=kept))


def _receiver_beta(
    csi: GramEig, hp: np.ndarray, sigma2: float, gain: float = 1.0, sigma_d2: float = 0.0
) -> float:
    """The beta minimizing E||s - beta(H F P s + H d + n)||^2 for the gain
    F = gain I and the distortion covariance sigma_d2 I, from the
    eigenvalues ``hp`` of the Hermitian H P, whose trace and squared norm
    are sum hp and sum hp^2, and ||H||_F^2 = sum lam; the defaults are
    ideal DACs."""
    hfp = gain * hp
    num = float(np.sum(hfp))
    distortion = sigma_d2 * float(np.sum(csi.values))
    den = float(np.dot(hfp, hfp)) + distortion + hp.size * sigma2
    if den <= 0:
        return 1.0
    return max(num / den, np.finfo(float).tiny)


def wf_precode(H_csi: np.ndarray | GramEig, sigma2: float) -> PrecodeOutput:
    """Regularized (Wiener) precoder P ~ H^H (H H^H + U sigma^2 I)^{-1},
    scaled to tr(P P^H) = 1; ``H_csi`` is the CSI or its GramEig."""
    csi = gram_eig(H_csi)
    gains, hp = _regularized(csi, sigma2)
    return PrecodeOutput(csi, gains, beta=_receiver_beta(csi, hp, sigma2), kind="WF")


def wfq_precode(
    H_csi: np.ndarray | GramEig, sigma2: float, *, spec: QuantizerSpec
) -> tuple[PrecodeOutput, float]:
    """Quantization-aware regularized precoder, in closed form; returns the
    output and the gain F_B = bussgang_gain(spec, 1).

    An auto step scales with each antenna's input deviation, so the
    quantizer is scale-invariant: every antenna has the gain F_B whatever
    its power, and the distortion variance
    sigma_d2 = (1 - F_B)(U sigma^2 + 1), with U the row count of the CSI,
    which no choice of P can move.  So the precoder is the regularized
    H^H (H H^H + U theta I)^{-1} at theta = sigma^2 + sigma_d2, a diagonal
    rescale in the eigenbasis of the CSI Gram (``H_csi`` is the CSI or its
    GramEig; a bare matrix is decomposed once), and ``beta`` uses the same
    F_B and sigma_d2.  Every antenna counts as live: only CSI with an
    all-zero column (a dead antenna, no input and no distortion), which no
    CSI mode produces, would differ.  A fixed step breaks the scale
    invariance and raises ``ValueError``.
    """
    if not spec.is_auto:
        raise ValueError("wfq_precode needs an auto-step quantizer spec")
    csi = gram_eig(H_csi)
    users = csi.values.size
    gain = bussgang_gain(spec, 1.0)
    sigma_d2 = (1.0 - gain) * (users * sigma2 + 1.0)
    gains, hp = _regularized(csi, sigma2 + sigma_d2)
    beta = _receiver_beta(csi, hp, sigma2, gain, sigma_d2)
    return PrecodeOutput(csi, gains, beta=beta, kind="WFQ"), gain


def precode(
    kind: str,
    H_csi: np.ndarray | GramEig,
    sigma2: float,
    *,
    spec: QuantizerSpec | None = None,
) -> PrecodeOutput:
    """The precoder ``kind``, one of :data:`PRECODERS`, power-normalized.

    ``H_csi`` is the CSI or its :class:`~eiprecode.channel.GramEig`; a bare
    matrix is decomposed once here.  WF and WFQ are :func:`wf_precode` and
    :func:`wfq_precode`; WFQ with ``spec=None`` (ideal DACs) is WF.  MRT is
    the matched filter and ZF the zero-noise regularized precoder.  QCE
    stores the (normalized) regularized matrix that supplies the phases;
    the constant-envelope mapping itself happens in :func:`transmit`, where
    each antenna sample becomes sqrt(1/A) * exp(i * quantized phase), so
    per-symbol radiated power is exactly 1.
    """
    if kind not in PRECODERS:
        raise ValueError(f"precoder must be one of {PRECODERS}, got {kind!r}")
    if kind == "QCE" and spec is None:
        raise ValueError("QCE needs a quantizer spec for the phase sectors")
    csi = gram_eig(H_csi)
    # WF and WFQ are looked up at call time, so a wrapper set on this module sees them
    if kind == "WF" or (kind == "WFQ" and spec is None):
        return wf_precode(csi, sigma2)
    if kind == "WFQ":
        return wfq_precode(csi, sigma2, spec=spec)[0]
    if kind == "MRT":
        gains, hp = _spectral(csi, np.ones_like(csi.values))
    else:
        gains, hp = _regularized(csi, 0.0 if kind == "ZF" else sigma2)
    return PrecodeOutput(csi, gains, beta=_receiver_beta(csi, hp, sigma2), kind=kind)


def transmit(
    pout: PrecodeOutput | Sequence[PrecodeOutput],
    s: np.ndarray,
    spec: QuantizerSpec | None = None,
) -> np.ndarray:
    """Map symbol vectors to antenna samples through the configured DACs.

    ``pout`` is one :class:`PrecodeOutput`, or a sequence of S of them on
    one :class:`~eiprecode.channel.GramEig` (an SNR sweep's precoders on
    one CSI), all of one kind, sent in one pass with their gains stacked to
    (S, U).  One output gives the samples of ``s``, (A, N) for (U, N)
    symbols and (A,) for a (U,) vector; a sequence stacks them on a
    leading point axis, (S, A, N) or (S, A).  Each point's samples equal
    its lone call bit for bit: numpy's batched matmul makes one BLAS call
    per point, the lone call's product, and the DAC works entry by entry.

    The precoded samples are P s = W^H ((E g)^H s), formed in the CSI
    eigenbasis with the gains g of each output.  ``spec=None`` bypasses
    quantization (ideal DACs).  For QCE outputs the antenna samples are
    constant-envelope with the phase rounded to one of 2^B sectors.
    Otherwise the precoded samples are quantized per antenna, at auto steps
    from the antenna variances diag(P P^H) = |W^H|^2 g^2, and scaled so the
    expected radiated power is 1.  An auto step makes
    E|Q(u)|^2 = P_B sigma_m2 on every antenna, with
    P_B = quantized_power(spec, 1), so the power is P_B tr(P P^H) = P_B and
    the scale is the constant sqrt(1 / P_B).  A fixed step breaks that and
    raises ``ValueError``, as do outputs on different GramEigs or of
    different kinds.  The DAC works in place on the one new block it
    returns.
    """
    stacked = not isinstance(pout, PrecodeOutput)
    pouts = tuple(pout) if stacked else (pout,)
    if not pouts:
        raise ValueError("transmit needs at least one precoder output")
    csi, kind = pouts[0].csi, pouts[0].kind
    if any(p.csi is not csi or p.kind != kind for p in pouts):
        raise ValueError("stacked precoder outputs must share one GramEig and one kind")
    if kind == "QCE" and spec is None:
        raise ValueError("QCE transmit needs a quantizer spec")
    if kind != "QCE" and spec is not None and not spec.is_auto:
        raise ValueError("transmit needs an auto-step quantizer spec")
    s = np.asarray(s, dtype=complex)
    vector = s.ndim == 1
    # every line below works on (S, ., N) blocks: a lone output is a stack
    # of one, and a symbol vector a (U, 1) block
    g = np.stack([p.gains for p in pouts])  # (S, U)
    # the points' U x U factors (E g)^H, the real gains scaling E's columns
    factors = (csi.vectors * g[:, None, :]).conj().transpose(0, 2, 1)
    x = csi.antenna_vectors @ (factors @ (s[:, None] if vector else s))
    if kind == "QCE":
        sectors = 2 ** spec.bits
        width = 2.0 * np.pi / sectors
        phase = np.round(np.angle(x) / width) * width
        np.multiply(phase, 1j, out=x)
        np.exp(x, out=x)
        x *= np.sqrt(1.0 / x.shape[1])
    elif spec is not None:
        sigma_m2 = csi.antenna_weights @ (g * g)[:, :, None]  # (S, A, 1)
        _quantize_in_place(x, spec, sigma_m2 / 2.0)
        x *= np.sqrt(1.0 / quantized_power(spec, 1.0))
    x = x if stacked else x[0]
    return x[..., 0] if vector else x
