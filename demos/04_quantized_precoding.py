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

# Bussgang says: quantizer output = F * input + uncorrelated distortion, and
# an auto step gives every antenna the same gain F_B whatever its power
dims = SystemDims(users=16, antennas=64)
H = gen_channel(dims, np.random.default_rng(33))
sigma2 = 0.05
pout = wf_precode(H, sigma2)
qspec = QuantizerSpec(3)
f_3 = bussgang_gain(qspec, 1.0)

rng = np.random.default_rng(34)
draws = 50_000
s = (rng.standard_normal((16, draws)) + 1j * rng.standard_normal((16, draws)))
s /= np.sqrt(2.0)
z = pout.P @ s
sigma_m2 = np.sum(np.abs(pout.P) ** 2, axis=1)
xq = quantize(z, qspec, input_variance=sigma_m2 / 2.0)
f_mc = np.real(np.sum(xq * z.conj(), axis=1) / draws) / sigma_m2
print(f"\nBussgang gain F_B = {f_3:.4f}; sampled per antenna, 0..3: "
      f"{np.round(f_mc[:4], 4)}")
print(f"sampled gains span [{f_mc.min():.4f}, {f_mc.max():.4f}] over "
      f"{dims.antennas} antennas")
dist = xq - f_3 * z
cross = np.abs(np.sum(dist * z.conj(), axis=1) / draws)
print(f"max |<distortion, input>| over antennas: {cross.max():.2e} "
      f"(uncorrelated by construction)")

# so every antenna has the distortion variance (1 - F_B)(U sigma^2 + 1), and
# the distortion aware precoder is one solve at theta = sigma^2 + that
wspec = QuantizerSpec(4)
out, f_b = wfq_precode(H, sigma2, spec=wspec)
sigma_d2 = (1.0 - f_b) * (dims.users * sigma2 + 1.0)
print(f"\nregularized quantized precoder: F_B = {f_b:.6f}, "
      f"distortion variance {sigma_d2:.5f}, "
      f"theta = {sigma2 + sigma_d2:.5f} against sigma^2 = {sigma2}")

# constant-envelope transmission: every antenna sample has the same modulus
qce = precode("QCE", H, sigma2, spec=QuantizerSpec(3))
sym = (rng.standard_normal((16, 5)) + 1j * rng.standard_normal((16, 5)))
sym /= np.sqrt(2.0)
xt = transmit(qce, sym, spec=QuantizerSpec(3))
print(f"\nconstant-envelope transmit: |x| in "
      f"[{np.abs(xt).min():.6f}, {np.abs(xt).max():.6f}] "
      f"(target {np.sqrt(1.0 / dims.antennas):.6f})")
