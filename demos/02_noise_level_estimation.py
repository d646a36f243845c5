"""Blind estimation of the CSI corruption level.

Corrupts channels at several known levels, runs the moment-matching
estimator on the observation alone, and prints how close the blind
estimates land.  Also demonstrates the one genuinely unidentifiable case:
damped corruption with unit noise scale leaves the observed spectrum
identical in law to a clean channel.
"""

import numpy as np

from eiprecode import (
    CorruptionModel,
    EstimatorConfig,
    SystemDims,
    corrupt,
    estimate_eta,
    gen_channel,
    gen_error,
)

dims = SystemDims(users=30, antennas=256)
seeds = 20

print(f"system: {dims.users} x {dims.antennas}, additive corruption, "
      f"{seeds} seeds per level\n")
print(f"{'true eta':>9} {'mean est':>9} {'median |err|':>13} {'max |err|':>10}")
for eta in (0.1, 0.3, 0.5, 0.7):
    model = CorruptionModel(eta=eta, mode="additive", c=1.0)
    key = int(round(100 * eta))
    estimates = []
    for d in range(seeds):
        H = gen_channel(dims, np.random.default_rng((key, d, 0)))
        H_obs = corrupt(H, model, gen_error(dims, model, np.random.default_rng((key, d, 1))))
        estimates.append(estimate_eta(H_obs).eta_hat)
    err = np.abs(np.array(estimates) - eta)
    print(f"{eta:9.2f} {np.mean(estimates):9.4f} {np.median(err):13.4f} "
          f"{err.max():10.4f}")

# accuracy improves with the antenna count at a fixed user count
print("\nestimation error vs antenna count (eta = 0.5, median over 20 seeds):")
for antennas in (64, 128, 256, 512):
    d2 = SystemDims(30, antennas)
    model = CorruptionModel(eta=0.5, mode="additive", c=1.0)
    errs = []
    for d in range(seeds):
        H = gen_channel(d2, np.random.default_rng((antennas, d, 0)))
        H_obs = corrupt(H, model, gen_error(d2, model, np.random.default_rng((antennas, d, 1))))
        errs.append(abs(estimate_eta(H_obs).eta_hat - 0.5))
    print(f"  A = {antennas:4d}: median |err| = {np.median(errs):.4f}")

# damped corruption with c = 1 keeps the observation equal in law to a clean
# channel, so no spectral method can recover eta; the estimate flags it
model = CorruptionModel(eta=0.6, mode="damped", c=1.0)
H = gen_channel(dims, np.random.default_rng(91))
H_obs = corrupt(H, model, gen_error(dims, model, np.random.default_rng(92)))
cfg = EstimatorConfig(data_mode="damped", c=1.0)
est = estimate_eta(H_obs, cfg)
print(f"\ndamped corruption at c = 1, true eta = 0.6: "
      f"estimate {est.eta_hat:.4f}, identifiable = {est.identifiable}")
print("(the observed spectrum carries no trace of eta in this regime)")
