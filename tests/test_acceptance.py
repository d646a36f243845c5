"""Acceptance criteria, one recorded verdict per clause.

Every test asserts its clause at the stated tolerance and registers a
PASS/FAIL line with measured numbers through the ``acceptance`` fixture, so
the terminal summary lists each clause explicitly.  Clauses the implemented
cleaning rule cannot meet are asserted unchanged and left to fail red; the
recorded line carries the measured value either way.
"""

import time

import numpy as np
import pytest
from numpy.random import default_rng

from eiprecode import precoding, rmt
from eiprecode.channel import (
    CorruptionModel,
    SystemDims,
    build_bsca,
    corrupt,
    gen_channel,
    gen_error,
)
from eiprecode.eta import EstimatorConfig, empirical_moments, estimate_eta
from eiprecode.experiments import run_experiment, threshold_crossing
from eiprecode.linksim import SimConfig, monte_carlo
from eiprecode.precoding import QuantizerSpec
from eiprecode.rie import clean_channel, mse


def _fmt_db(v) -> str:
    return "none" if v is None else f"{v:.2f} dB"


def _observe(H, model, seed):
    # H under model, with the error drawn from default_rng(seed)
    return corrupt(H, model, gen_error(SystemDims(*H.shape), model, default_rng(seed)))


# ---------------------------------------------------------------- A1 spectra

def test_a1_spectral_law(acceptance):
    cfg = SimConfig(users=128, antennas=256, trials=16, seed=9_000)
    res = run_experiment("spectrum_check", cfg, bins=50)
    head = res.summary["headline"]
    l1 = head["l1_distance"]
    runtime = res.summary["wall_time_s"]
    ok = l1 < 0.05 and head["zeros_ok"] is True and runtime < 10.0
    acceptance(
        "A1 augmented-spectrum law",
        ok,
        f"L1={l1:.4f} (<0.05), zeros/draw={head['zero_eigenvalues_per_draw']}"
        f" (expect 128), runtime={runtime:.1f}s (<10)",
    )
    assert l1 < 0.05
    assert head["zeros_ok"] is True
    assert runtime < 10.0


# -------------------------------------------------------------- A2 estimator

def test_a2_estimator_accuracy(acceptance):
    users, antennas, eta_true, n_seeds = 30, 256, 0.5, 200
    dims = SystemDims(users, antennas)
    model = CorruptionModel(eta=eta_true, mode="additive", c=1.0)

    # a sampled-spectrum oracle arbitrates which theory mode to fit with
    oracle = np.mean(
        [
            rmt.free_cumulants(
                empirical_moments(
                    _observe(gen_channel(dims, default_rng((9_010, d, 0))), model, (9_010, d, 1))
                )
            )
            for d in range(12)
        ],
        axis=0,
    )
    printed = rmt.noisy_gram_cumulants_theory(eta_true, dims.q, mode="printed")
    printed_dev = float(np.max(np.abs(printed - oracle) / np.abs(oracle)))
    mode = "printed" if printed_dev < 0.2 else "gaussian_equivalent"

    cfg = EstimatorConfig(order=3, mode=mode)
    t0 = time.perf_counter()
    hits = 0
    for d in range(n_seeds):
        H = gen_channel(dims, default_rng((9_020, d, 0)))
        H_obs = _observe(H, model, (9_020, d, 1))
        est = estimate_eta(H_obs, cfg)
        hits += abs(est.eta_hat - eta_true) < 0.05
    runtime = time.perf_counter() - t0
    frac = hits / n_seeds
    ok = frac >= 0.95 and runtime < 120.0
    acceptance(
        "A2 blind noise-level estimation",
        ok,
        f"P(|delta eta|<0.05)={frac:.3f} (>=0.95) over {n_seeds} seeds, "
        f"order=3, mode={mode} (printed-mode oracle deviation "
        f"{printed_dev:.2f}), runtime={runtime:.1f}s (<120)",
    )
    assert frac >= 0.95
    assert runtime < 120.0


# --------------------------------------------------------------- A3 cleaning

_A3_ETAS = (0.1, 0.5, 0.9)
_A3_ANTENNAS = (32, 64, 128, 256)
_A3_USERS = 20
_A3_TRIALS = 100


@pytest.fixture(scope="session")
def cleaning_grid():
    cells = {}
    t0 = time.perf_counter()
    for i, eta in enumerate(_A3_ETAS):
        model = CorruptionModel(eta=eta, mode="additive", c=1.0)
        for a in _A3_ANTENNAS:
            dims = SystemDims(_A3_USERS, a)
            wins = 0
            clean_sum = 0.0
            for t in range(_A3_TRIALS):
                H = gen_channel(dims, default_rng((9_030, i, a, t, 0)))
                H_obs = _observe(H, model, (9_030, i, a, t, 1))
                eta_hat = estimate_eta(H_obs).eta_hat
                m_clean = mse(H, clean_channel(H_obs, CorruptionModel(eta_hat)).matrix)
                wins += m_clean <= mse(H, H_obs)
                clean_sum += m_clean
            cells[(eta, a)] = (wins / _A3_TRIALS, clean_sum / _A3_TRIALS)
    return {"cells": cells, "runtime": time.perf_counter() - t0}


def test_a3_i_cleaning_beats_raw_per_cell(cleaning_grid, acceptance):
    cells = cleaning_grid["cells"]
    runtime = cleaning_grid["runtime"]
    worst_key = min(cells, key=lambda k: cells[k][0])
    worst = cells[worst_key][0]
    ok = all(v[0] >= 0.95 for v in cells.values()) and runtime < 300.0
    acceptance(
        "A3.i cleaned beats raw in >=95% of trials per cell",
        ok,
        f"worst cell eta={worst_key[0]}, antennas={worst_key[1]}: win "
        f"fraction {worst:.2f} (>=0.95), grid runtime={runtime:.0f}s (<300)",
    )
    assert all(v[0] >= 0.95 for v in cells.values()), (
        f"win fraction {worst:.2f} at eta={worst_key[0]}, "
        f"antennas={worst_key[1]}"
    )
    assert runtime < 300.0


def test_a3_ii_mse_nonincreasing_in_antennas(cleaning_grid, acceptance):
    cells = cleaning_grid["cells"]
    verdicts = {}
    for eta in _A3_ETAS:
        means = [cells[(eta, a)][1] for a in _A3_ANTENNAS]
        verdicts[eta] = all(
            means[i + 1] <= means[i] for i in range(len(means) - 1)
        )
    ok = all(verdicts.values())
    detail = ", ".join(
        f"eta={eta}: {'monotone' if v else 'violation'}"
        for eta, v in verdicts.items()
    )
    acceptance("A3.ii cleaned MSE nonincreasing in antennas", ok, detail)
    assert ok, detail


def test_a3_iii_mse_near_oracle_floor(cleaning_grid, acceptance):
    mean_mse = cleaning_grid["cells"][(0.5, 256)][1]
    floor = 0.5 / 256
    ratio = mean_mse / floor
    ok = mean_mse <= 1.5 * floor
    acceptance(
        "A3.iii cleaned MSE within 1.5x of the eta/antennas floor",
        ok,
        f"eta=0.5, antennas=256: mse={mean_mse:.3e}, floor={floor:.3e}, "
        f"ratio={ratio:.2f} (<=1.5)",
    )
    assert ok, f"ratio {ratio:.2f} exceeds 1.5"


# -------------------------------------------------------------- A4 BER gaps

_A4_SNRS = tuple(float(s) for s in range(-2, 16, 2))


def _link_cfg(**kw):
    base = dict(
        users=20,
        antennas=128,
        eta=(0.3,),
        corruption_mode="additive",
        modulation="QPSK",
        trials=250,
        symbols_per_trial=100,
        min_errors=100,
        max_bits=1_000_000,
        seed=9_040,
        threads=1,
    )
    base.update(kw)
    return SimConfig(**base)


@pytest.fixture(scope="session")
def ber_curves():
    modes = {
        "wf_perfect": dict(precoder="WF", csi="perfect", bits=None),
        "wfq_ei": dict(precoder="WFQ", csi="ei_cleaned", bits=4),
        "wfq_raw": dict(precoder="WFQ", csi="noisy_raw", bits=4),
    }
    curves = {}
    t0 = time.perf_counter()
    for name, kw in modes.items():
        cfg = _link_cfg(**kw)
        # one sweep call per CSI mode: each trial serves all nine SNR points
        curves[name] = [a.ber for a in monte_carlo(cfg, [(0.3, snr) for snr in _A4_SNRS])]
    return {"curves": curves, "runtime": time.perf_counter() - t0}


def test_a4_i_ei_within_6db_of_perfect(ber_curves, acceptance):
    curves = ber_curves["curves"]
    runtime = ber_curves["runtime"]
    wf = threshold_crossing(_A4_SNRS, curves["wf_perfect"], 1e-3)
    ei = threshold_crossing(_A4_SNRS, curves["wfq_ei"], 1e-3)
    gap = None if wf is None or ei is None else ei - wf
    ok = gap is not None and 3.0 <= gap <= 6.0 and runtime < 1200.0
    acceptance(
        "A4.i EI-cleaned WFQ within 3-6 dB of perfect-CSI WF at BER 1e-3",
        ok,
        f"perfect-WF crossing={_fmt_db(wf)}, EI-WFQ crossing={_fmt_db(ei)}, "
        f"gap={_fmt_db(gap)}, EI BER range "
        f"[{min(curves['wfq_ei']):.2e}, {max(curves['wfq_ei']):.2e}], "
        f"curves runtime={runtime:.0f}s (<1200)",
    )
    assert gap is not None, (
        "EI-cleaned curve never reaches BER 1e-3 on the -2..14 dB grid"
    )
    assert 3.0 <= gap <= 6.0, f"gap {gap:.2f} dB outside [3, 6]"
    assert runtime < 1200.0


def test_a4_ii_raw_at_least_10db_behind_ei(ber_curves, acceptance):
    curves = ber_curves["curves"]
    ei = threshold_crossing(_A4_SNRS, curves["wfq_ei"], 1e-3)
    raw = threshold_crossing(_A4_SNRS, curves["wfq_raw"], 1e-3)
    gap = None if ei is None or raw is None else raw - ei
    ok = gap is not None and gap >= 10.0
    acceptance(
        "A4.ii raw-CSI WFQ needs >=10 dB more than EI-cleaned at BER 1e-3",
        ok,
        f"EI crossing={_fmt_db(ei)}, raw crossing={_fmt_db(raw)}, "
        f"gap={_fmt_db(gap)}, raw BER range "
        f"[{min(curves['wfq_raw']):.2e}, {max(curves['wfq_raw']):.2e}]",
    )
    assert gap is not None, (
        "neither curve reaches BER 1e-3 on the -2..14 dB grid"
    )
    assert gap >= 10.0, f"gap {gap:.2f} dB below 10"


def test_a4_iii_ber_monotone_in_resolution(acceptance):
    t0 = time.perf_counter()
    bers = []
    for b in (1, 2, 3, 4):
        cfg = _link_cfg(
            precoder="WFQ", csi="perfect", bits=b, trials=100,
            max_bits=400_000, seed=99,
        )
        bers.append(monte_carlo(cfg, [(0.3, 10.0)])[0].ber)
    runtime = time.perf_counter() - t0
    ok = all(bers[i + 1] <= bers[i] for i in range(3)) and runtime < 1200.0
    detail = ", ".join(f"B={b}: {v:.2e}" for b, v in zip((1, 2, 3, 4), bers))
    acceptance(
        "A4.iii BER monotone in DAC resolution at 10 dB",
        ok,
        f"{detail}, runtime={runtime:.0f}s",
    )
    assert all(bers[i + 1] <= bers[i] for i in range(3)), detail
    assert runtime < 1200.0


# -------------------------------------------------------------- A5 eta sweep

_A5_ETAS = tuple(round(0.05 * k, 2) for k in range(1, 11))


@pytest.fixture(scope="session")
def eta_sweep():
    bers = {}
    t0 = time.perf_counter()
    for name, csi in (("ei", "ei_cleaned"), ("raw", "noisy_raw")):
        cfg = _link_cfg(
            precoder="WFQ", csi=csi, bits=4, trials=100, max_bits=400_000,
            seed=9_050,
        )
        # one sweep call per CSI mode: each trial serves all ten eta levels
        bers[name] = [a.ber for a in monte_carlo(cfg, [(eta, 5.0) for eta in _A5_ETAS])]
    return {"bers": bers, "runtime": time.perf_counter() - t0}


def test_a5_eta_sweep_ordering(eta_sweep, acceptance):
    ei = eta_sweep["bers"]["ei"]
    raw = eta_sweep["bers"]["raw"]
    runtime = eta_sweep["runtime"]
    ei_worst = max(b for e, b in zip(_A5_ETAS, ei) if e <= 0.4)
    raw_best = min(b for e, b in zip(_A5_ETAS, raw) if e >= 0.2)
    ei_ok = ei_worst <= 1e-3
    raw_ok = raw_best > 1e-3
    ok = ei_ok and raw_ok and runtime < 900.0
    acceptance(
        "A5 eta-sweep ordering at 5 dB",
        ok,
        f"EI max BER over eta<=0.4: {ei_worst:.2e} (need <=1e-3); raw min "
        f"BER over eta>=0.2: {raw_best:.2e} (need >1e-3); "
        f"runtime={runtime:.0f}s (<900)",
    )
    assert ei_ok, f"EI-cleaned BER {ei_worst:.2e} above 1e-3 for some eta<=0.4"
    assert raw_ok, f"raw-CSI BER {raw_best:.2e} at or below 1e-3 for some eta>=0.2"
    assert runtime < 900.0


# -------------------------------------------------------- A6 property suites

def test_a6_herglotz_and_asymptotes(acceptance):
    qs = (0.1171875, 0.25, 0.5, 0.78125)
    zs = [
        complex(x, y)
        for x in (-3.0, -0.5, 0.4, 1.1, 2.6)
        for y in (0.03, 0.4, 2.0)
    ]
    imags = []
    for q in qs:
        for z in zs:
            imags.append(complex(rmt.mp_stieltjes(z, q)).imag)
            imags.append(complex(rmt.bsca_stieltjes(z, q)).imag)
            imags.append(complex(rmt.noisy_gram_stieltjes(z, q, 0.8)).imag)
    zfar = complex(100.0, 7.0)
    asym = max(
        abs(rmt.mp_stieltjes(zfar, 0.5) + 1.0 / zfar),
        abs(rmt.bsca_stieltjes(zfar, 0.5) + 1.0 / zfar),
        abs(rmt.noisy_gram_stieltjes(zfar, 0.5, 1.0) + 1.0 / zfar),
    )
    ok = min(imags) > 0.0 and asym < 1e-3
    acceptance(
        "A6 Herglotz and asymptote checks on all transforms",
        ok,
        f"min Im g over {len(imags)} evaluations: {min(imags):.2e} (>0); "
        f"max |g+1/z| at |z|~100: {asym:.1e} (<1e-3)",
    )
    assert min(imags) > 0.0
    assert asym < 1e-3


def test_a6_spectral_identity_chains(acceptance):
    users, antennas, draws = 128, 256, 48
    q = users / antennas
    dims = SystemDims(users, antennas)

    # same-draw chain identity is algebraic, so it must hold to roundoff
    H = gen_channel(dims, default_rng(9_061))
    gram_eigs = np.linalg.eigvalsh(H @ H.conj().T)
    b_eigs = np.linalg.eigvalsh(build_bsca(H))
    chain_dev = 0.0
    for x in np.linspace(-1.9, 1.9, 16):
        z = complex(x, 0.05)
        g_gram = rmt.empirical_stieltjes(gram_eigs, z * z)
        g_b = rmt.stieltjes_B_from_D(
            rmt.stieltjes_D_from_gram(g_gram, z * z, q), z
        )
        chain_dev = max(chain_dev, abs(g_b - rmt.empirical_stieltjes(b_eigs, z)))

    # pooled draws against the analytic laws on the eps=0.05 grid
    gram_pool = []
    b_pool = []
    for d in range(draws):
        Hd = gen_channel(dims, default_rng((9_062, d)))
        gram_pool.append(np.linalg.eigvalsh(Hd @ Hd.conj().T))
        b_pool.append(np.linalg.eigvalsh(build_bsca(Hd)))
    gram_pool = np.concatenate(gram_pool)
    b_pool = np.concatenate(b_pool)
    gram_dev = max(
        abs(rmt.empirical_stieltjes(gram_pool, z) - rmt.mp_stieltjes(z, q))
        for z in np.array([0.35, 0.8, 1.3, 1.9]) + 0.05j
    )
    b_dev = max(
        abs(rmt.empirical_stieltjes(b_pool, z) - rmt.bsca_stieltjes(z, q))
        for z in np.array([-1.55, -0.9, 0.7, 1.45]) + 0.05j
    )
    ok = chain_dev < 1e-10 and gram_dev < 2e-2 and b_dev < 2e-2
    acceptance(
        "A6 spectral identity chains on eps=0.05 grids",
        ok,
        f"same-draw chain residual {chain_dev:.1e} (<1e-10), pooled gram "
        f"vs law {gram_dev:.1e} (<2e-2), pooled augmented vs law "
        f"{b_dev:.1e} (<2e-2)",
    )
    assert chain_dev < 1e-10
    assert gram_dev < 2e-2
    assert b_dev < 2e-2


def test_a6_addition_law(acceptance):
    # transform-level additivity of the corruption component, to roundoff
    ident_dev = 0.0
    for q in (0.25, 0.5):
        for alpha in (0.5, 1.0, 1.7):
            for w in (0.02, 0.1, 0.3):
                lhs = rmt.r_transform_noisy_aux(w, q, alpha)
                rhs = rmt.r_transform_aux(w, q) + alpha * rmt.r_transform_aux(
                    alpha * w, q
                )
                ident_dev = max(ident_dev, abs(lhs - rhs))

    # pooled sampled spectra against the convolved law
    users, antennas, draws = 30, 256, 100
    dims = SystemDims(users, antennas)
    model = CorruptionModel(eta=0.5, mode="additive", c=1.0)
    z = 3.0 + 0.3j
    pooled = 0.0j
    for d in range(draws):
        H_obs = _observe(gen_channel(dims, default_rng((9_063, d, 0))), model, (9_063, d, 1))
        eigs = np.linalg.eigvalsh(H_obs @ H_obs.conj().T)
        pooled += rmt.empirical_stieltjes(eigs, z)
    pooled /= draws
    law_dev = abs(pooled - rmt.noisy_gram_stieltjes(z, dims.q, model.alpha()))
    ok = ident_dev < 1e-8 and law_dev < 2e-2
    acceptance(
        "A6 addition law",
        ok,
        f"transform identity residual {ident_dev:.1e} (<1e-8), pooled "
        f"sample vs convolved law {law_dev:.1e} (<2e-2)",
    )
    assert ident_dev < 1e-8
    assert law_dev < 2e-2


def test_a6_free_poisson_cumulants(acceptance):
    worst = 0.0
    for q in (0.1171875, 0.25, 0.5, 0.78125):
        target = np.array([1.0, q, q * q])
        for mode in ("gaussian_equivalent", "printed"):
            clean = rmt.noisy_gram_cumulants_theory(0.0, q, mode=mode)
            worst = max(worst, float(np.max(np.abs(clean - target))))
        moments = rmt.moments_from_cumulants(target)
        back = rmt.free_cumulants(moments)
        worst = max(worst, float(np.max(np.abs(back - target))))
    ok = worst < 1e-12
    acceptance(
        "A6 free-Poisson cumulant identity",
        ok,
        f"max deviation {worst:.1e} (<1e-12)",
    )
    assert worst < 1e-12


def test_a6_bussgang_orthogonality(acceptance):
    dims = SystemDims(16, 64)
    H = gen_channel(dims, default_rng(9_064))
    pout = precoding.wf_precode(H, 0.05)
    spec = QuantizerSpec(3)
    rng = np.random.default_rng(9_065)
    draws = 100_000
    s = (
        rng.standard_normal((16, draws)) + 1j * rng.standard_normal((16, draws))
    ) / np.sqrt(2.0)
    z = pout.P @ s
    sigma_m2 = np.sum(np.abs(pout.P) ** 2, axis=1)
    x = precoding.quantize(z, spec, input_variance=sigma_m2 / 2.0)
    r_xz = (x @ z.conj().T) / draws
    r_zz = pout.P @ pout.P.conj().T
    gains = np.array([precoding.bussgang_gain(spec, sm) for sm in sigma_m2])
    resid = float(np.max(np.abs(r_xz - gains[:, None] * r_zz)))
    floor = float(np.min(np.abs(np.diag(r_xz))))
    f_mc = np.real(np.sum(x * z.conj(), axis=1) / draws) / sigma_m2
    gain_dev = float(np.max(np.abs(f_mc - gains) / gains))
    ok = resid < 0.05 * floor and gain_dev < 0.05
    acceptance(
        "A6 Bussgang orthogonality and diagonal gain",
        ok,
        f"max cross-covariance residual {resid:.2e} vs 5% of smallest "
        f"diagonal {0.05 * floor:.2e}; per-antenna gain deviation "
        f"{gain_dev:.3f} (<0.05)",
    )
    assert resid < 0.05 * floor
    assert gain_dev < 0.05


def test_a6_quantizer_properties_exhaustive(acceptance):
    # grid points are odd multiples of 0.0025, so they avoid every
    # threshold (multiples of the 0.5 step) and zero exactly
    grid = np.linspace(0.0, 4.0, 801)[1:] - 0.0025
    full = np.concatenate([-grid[::-1], grid])
    ok = True
    for bits in (1, 2, 3):
        spec = QuantizerSpec(bits, 0.5)
        once = precoding.quantize(full.astype(complex), spec)
        twice = precoding.quantize(once, spec)
        ok &= bool(np.array_equal(once, twice))
        ok &= bool(np.all(np.diff(once.real) >= 0))
        qp = precoding.quantize(grid.astype(complex), spec).real
        qm = precoding.quantize(-grid.astype(complex), spec).real
        ok &= bool(np.array_equal(qp, -qm))
    acceptance(
        "A6 quantizer idempotence, monotonicity, odd symmetry",
        bool(ok),
        f"exhaustive on {full.size}-point grid for 1-3 bit specs",
    )
    assert ok


def test_a6_bit_exact_across_thread_widths(acceptance):
    base = dict(
        users=6, antennas=24, symbols_per_trial=50, trials=16,
        precoder="WFQ", csi="ei_cleaned", bits=4, seed=9_070,
    )
    aggs = [
        monte_carlo(SimConfig(threads=t, **base), [(0.3, 5.0)])[0]
        for t in (1, 2, 4)
    ]
    ok = aggs[0] == aggs[1] == aggs[2]
    acceptance(
        "A6 bit-exact Monte-Carlo across parallelism widths",
        ok,
        f"threads 1/2/4 aggregates {'identical' if ok else 'diverged'}; "
        f"ber={aggs[0].ber:.3e}, bits={aggs[0].bits}",
    )
    assert ok
