"""Link-level bit error rate under quantized precoding and imperfect CSI.

Runs the Monte-Carlo engine for three CSI modes at a few SNR points and
prints the resulting table with Wilson confidence bounds.  Two honest
findings from the test suite show up directly: raw noisy CSI tracks the
perfect-CSI curve at a fixed gap (the raw observation is proportional to
the conditional-mean channel estimate), and the singular-value-cleaned CSI
tracks the raw curve rather than opening a gap on it, because under an
i.i.d. channel the best rotation-invariant cleaner is close to a scalar
multiple of the observation, to which the power-normalized precoder is
nearly blind.
"""

from eiprecode import SimConfig, monte_carlo

BASE = dict(
    users=20,
    antennas=128,
    eta=(0.3,),
    bits=4,
    modulation="QPSK",
    trials=60,
    symbols_per_trial=100,
    min_errors=50,
    max_bits=240_000,
    seed=4242,
)

MODES = (
    ("perfect CSI, unquantized", dict(precoder="WF", csi="perfect", bits=None)),
    ("raw noisy CSI, 4-bit", dict(precoder="WFQ", csi="noisy_raw")),
    ("cleaned CSI, 4-bit", dict(precoder="WFQ", csi="ei_cleaned")),
)

print("20 users x 128 antennas, corruption level 0.3, QPSK\n")
print(f"{'CSI / precoder':<28} {'SNR':>5} {'BER':>9} {'95% interval':>22} {'bits':>9}")
SNRS = (0.0, 6.0, 12.0)
for label, kw in MODES:
    cfg = SimConfig(**{**BASE, **kw})
    # one call per CSI mode: each trial's channel and CSI serve all three SNRs
    for snr, agg in zip(SNRS, monte_carlo(cfg, [(0.3, snr) for snr in SNRS])):
        ci = f"[{agg.ber_lo:.2e}, {agg.ber_hi:.2e}]"
        print(f"{label:<28} {snr:5.0f} {agg.ber:9.2e} {ci:>22} {agg.bits:9d}")
    print()

print("""notes:
  - the cleaned-CSI curve falls with SNR alongside the raw one, with
    overlapping confidence intervals: cleaning removes most of the
    channel-estimate error, but under this channel model what it removes
    is close to a uniform scale, which the precoder normalizes away.
  - the raw-CSI curve improves monotonically and crosses 1e-3 a few dB
    behind the perfect-CSI reference (run the `ber` CLI subcommand with a
    finer SNR grid to locate the crossing).
""")
