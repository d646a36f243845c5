"""Rotation-invariant CSI cleaning, and how close it gets to the oracle.

Runs the blind pipeline (estimate the corruption level, then replace the
singular values of the observation by the observable rectangular RIE)
against the raw observation and against the scalar conditional-mean
benchmark.  The cleaner beats the raw observation in every trial at every
level and lands on the eta/antennas floor, except for a small excess at
heavy corruption.  Against the oracle RIE, which reads the clean value
Re(u_k^H H v_k) off the true channel, it is exact mid-spectrum and biased
at the edges: the bottom singular values come out low and the top ones
high.
"""

import numpy as np

from eiprecode import (
    CorruptionModel,
    SystemDims,
    clean_channel,
    corrupt,
    estimate_eta,
    gen_channel,
    gen_error,
    gram_eig,
    linear_mmse_baseline,
    mse,
)

dims = SystemDims(users=20, antennas=256)
trials = 30

print(f"system: {dims.users} x {dims.antennas}, additive corruption, "
      f"{trials} blind trials per level\n")
print(f"{'eta':>5} {'mse(raw)':>10} {'mse(clean)':>11} {'mse(bayes)':>11} "
      f"{'floor':>10} {'wins':>5}")
for eta in (0.1, 0.3, 0.5, 0.9):
    model = CorruptionModel(eta=eta, mode="additive", c=1.0)
    key = int(round(100 * eta))
    raw, cleaned, bayes, wins = [], [], [], 0
    for t in range(trials):
        H = gen_channel(dims, np.random.default_rng((key, t, 0)))
        H_obs = corrupt(H, model, gen_error(dims, model, np.random.default_rng((key, t, 1))))
        eta_hat = estimate_eta(H_obs).eta_hat
        H_hat = clean_channel(H_obs, CorruptionModel(eta_hat)).matrix
        m_c = mse(H, H_hat)
        raw.append(mse(H, H_obs))
        cleaned.append(m_c)
        bayes.append(mse(H, linear_mmse_baseline(H_obs, model)))
        wins += m_c <= raw[-1]
    floor = eta / dims.antennas
    print(f"{eta:5.2f} {np.mean(raw):10.2e} {np.mean(cleaned):11.2e} "
          f"{np.mean(bayes):11.2e} {floor:10.2e} {wins:4d}/{trials}")

print("""
reading the table:
  - 'bayes' is the exact conditional mean (a scalar multiple of the raw
    observation); its error equals the floor eta/antennas, as it must.
  - the singular-value cleaner beats raw in every trial at every level and
    sits on the floor up to eta = 0.5; at eta = 0.9 it is a few percent
    above it.
  - at light corruption the correct action is a mild uniform shrink (by
    0.90 at eta = 0.1), and that is what the rule does.
""")

# one draw at light corruption: every singular value shrunk by about the
# conditional-mean factor
eta = 0.1
model = CorruptionModel(eta=eta, mode="additive", c=1.0)
H = gen_channel(dims, np.random.default_rng(1001))
H_obs = corrupt(H, model, gen_error(dims, model, np.random.default_rng(1002)))
eta_hat = estimate_eta(H_obs).eta_hat
H_hat = clean_channel(H_obs, CorruptionModel(eta_hat)).matrix
sv_obs = np.linalg.svd(H_obs, compute_uv=False)
sv_hat = np.linalg.svd(H_hat, compute_uv=False)
ratio = sv_hat / sv_obs
print(f"one draw at eta = {eta} (estimated {eta_hat:.3f}): singular-value "
      f"shrink ratios top {ratio[0]:.2f}, median {np.median(ratio):.2f}, "
      f"bottom {ratio[-1]:.2f} (conditional mean would use "
      f"{1.0 / (1.0 + model.alpha() ** 2):.2f} throughout)")

# against the oracle RIE on the observation's own singular vectors: the
# observable rule tracks it mid-spectrum and is biased at the spectrum edges
dims2 = SystemDims(users=20, antennas=128)
model2 = CorruptionModel(eta=0.3, mode="additive", c=1.0)
top, mid, bottom = [], [], []
for t in range(trials):
    H2 = gen_channel(dims2, np.random.default_rng((1003, t)))
    H2_obs = corrupt(H2, model2, gen_error(dims2, model2, np.random.default_rng((1004, t))))
    H2_hat = clean_channel(H2_obs, CorruptionModel(estimate_eta(H2_obs).eta_hat)).matrix
    U2, _, Vh2 = np.linalg.svd(H2_obs, full_matrices=False)
    oracle = np.real(np.einsum("ik,ij,kj->k", U2.conj(), H2, Vh2.conj()))
    cleaned = np.real(np.einsum("ik,ij,kj->k", U2.conj(), H2_hat, Vh2.conj()))
    r = cleaned / oracle
    top.append(r[0])
    mid.append(np.median(r))
    bottom.append(r[-1])
print(f"20 x 128, eta = 0.3, {trials} draws: cleaned / oracle singular value "
      f"top {np.mean(top):.2f}, median {np.mean(mid):.2f}, "
      f"bottom {np.mean(bottom):.2f}")

# the BSCA spectrum of the observation: its positive eigenvalues are the
# singular values s_k, which the cleaner reads off the U x U Gram X X^H as
# sqrt of its eigenvalues
sv = np.linalg.svd(H_obs, compute_uv=False)
gram_sv = np.sqrt(gram_eig(H_obs).values[::-1])
print(f"BSCA: {sv.size} positive eigenvalues in [{sv[-1]:.3f}, {sv[0]:.3f}], "
      f"the mirror values -s_k and {dims.antennas - dims.users} null "
      f"directions; the Gram gives the same s_k to "
      f"{np.max(np.abs(gram_sv - sv)) / sv[0]:.0e} of the largest")
