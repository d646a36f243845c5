"""Coarsely quantized downlink precoding through the Bussgang lens.

Walks the quantizer itself (labels, optimal step sizes), verifies the
linear-plus-distortion decomposition of the quantized output against a
Monte-Carlo estimate, and runs the distortion-aware regularized precoder,
which is one regularized solve at a regularizer shifted by the distortion.
"""

import numpy as np

from eiprecode import (
    QuantizerSpec,
    SystemDims,
    bussgang_gain,
    bussgang_model,
    gen_channel,
    optimal_step,
    precode,
    quantize,
    transmit,
    wf_precode,
    wfq_precode,
)

# the quantizer: midrise labels, thresholds at the midpoints
spec = QuantizerSpec(bits=2, step=1.0)
labels = spec.step * (np.arange(4) - 1.5)
print(f"2-bit quantizer, step 1.0: labels {labels}, "
      f"thresholds {(labels[:-1] + labels[1:]) / 2}")
x = np.array([0.3 - 1.2j, 2.9 + 0.0j])
print(f"quantize({x}) = {quantize(x, spec)}")

print("\ndistortion-minimizing step per resolution (unit-variance components):")
for b in range(1, 7):
    print(f"  B = {b}: step = {optimal_step(b):.4f}, "
          f"linear gain F_B = {bussgang_gain(QuantizerSpec(b), 1.0):.4f}")

# Bussgang says: quantizer output = F * input + uncorrelated distortion
dims = SystemDims(users=16, antennas=64)
H = gen_channel(dims, np.random.default_rng(33))
sigma2 = 0.05
pout = wf_precode(H, sigma2)
qspec = QuantizerSpec(3)
model = bussgang_model(pout.P, qspec, sigma2)

rng = np.random.default_rng(34)
draws = 50_000
s = (rng.standard_normal((16, draws)) + 1j * rng.standard_normal((16, draws)))
s /= np.sqrt(2.0)
z = pout.P @ s
sigma_m2 = np.sum(np.abs(pout.P) ** 2, axis=1)
xq = quantize(z, qspec, input_variance=sigma_m2 / 2.0)
f_mc = np.real(np.sum(xq * z.conj(), axis=1) / draws) / sigma_m2
print(f"\nBussgang gains, antenna 0..3: model {np.round(model.gains[:4], 4)}")
print(f"                    sampled  {np.round(f_mc[:4], 4)}")
dist = xq - model.gains[:, None] * z
cross = np.abs(np.sum(dist * z.conj(), axis=1) / draws)
print(f"max |<distortion, input>| over antennas: {cross.max():.2e} "
      f"(uncorrelated by construction)")

# an auto step gives every antenna the same gain F_B, so the distortion
# aware precoder is one solve at theta = sigma^2 + (1 - F_B)(U sigma^2 + 1)
wspec = QuantizerSpec(4)
f_b = bussgang_gain(wspec, 1.0)
theta = sigma2 + (1.0 - f_b) * (dims.users * sigma2 + 1.0)
out, wmodel = wfq_precode(H, sigma2, spec=wspec)
print(f"\nregularized quantized precoder: F_B = {f_b:.6f}, "
      f"theta = {theta:.5f} against sigma^2 = {sigma2}")
print(f"model gains span [{wmodel.gains.min():.6f}, {wmodel.gains.max():.6f}]")
print(f"distortion variance per antenna (first 3): "
      f"{np.round(wmodel.sigma_d2[:3], 5)}")

# constant-envelope transmission: every antenna sample has the same modulus
qce = precode("QCE", H, sigma2, spec=QuantizerSpec(3))
sym = (rng.standard_normal((16, 5)) + 1j * rng.standard_normal((16, 5)))
sym /= np.sqrt(2.0)
xt = transmit(qce, sym, spec=QuantizerSpec(3))
print(f"\nconstant-envelope transmit: |x| in "
      f"[{np.abs(xt).min():.6f}, {np.abs(xt).max():.6f}] "
      f"(target {np.sqrt(1.0 / dims.antennas):.6f})")
