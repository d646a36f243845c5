"""Experiment drivers, config resolution, and the command-line front end."""

import json
import re
import statistics
from dataclasses import asdict, replace

import numpy as np
import pytest
import yaml

from eiprecode import linksim, precoding
from eiprecode.cli import build_parser, main
from eiprecode.config import (
    ENV_SEED,
    ENV_THREADS,
    ConfigError,
    parse_config,
    parse_set_item,
)
from eiprecode.cli import _SUBCOMMANDS
from eiprecode.experiments import (
    EXPERIMENT_KINDS,
    ExperimentError,
    _round,
    _rounded,
    run_experiment,
    threshold_crossing,
)
from eiprecode.eta import estimate_eta
from eiprecode.linksim import SNR_DEFINITION, SimConfig, downlink_trial, estimate_csi
from eiprecode.rie import linear_mmse_baseline, mse
from eiprecode.rmt import bsca_density, bsca_support

# keeps any ambient environment from leaking into precedence tests
@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(ENV_SEED, raising=False)
    monkeypatch.delenv(ENV_THREADS, raising=False)


_FAST_LINK = dict(
    users=6, antennas=24, symbols_per_trial=50, trials=4, min_errors=1,
    max_bits=100_000,
)


# ---------------------------------------------------------------- thresholds

def test_threshold_crossing_log_interpolation():
    assert threshold_crossing((0.0, 10.0), (1e-2, 1e-4), 1e-3) == pytest.approx(
        5.0, abs=1e-12
    )


def test_threshold_crossing_exact_endpoint():
    assert threshold_crossing((2.0, 6.0), (1e-3, 1e-5), 1e-3) == 2.0


def test_threshold_crossing_flat_segment_at_target():
    assert threshold_crossing((2.0, 4.0), (1e-3, 1e-3), 1e-3) == 2.0
    assert threshold_crossing((2.0, 4.0), (1e-2, 1e-2), 1e-3) is None


def test_threshold_crossing_no_bracket_returns_none():
    assert threshold_crossing((0.0, 10.0), (1e-2, 2e-3), 1e-3) is None


def test_threshold_crossing_skips_nonpositive_pairs():
    xs = (0.0, 1.0, 2.0, 3.0)
    ys = (1e-2, -1.0, 1e-2, 1e-4)
    assert threshold_crossing(xs, ys, 1e-3) == pytest.approx(2.5, abs=1e-12)


def test_threshold_crossing_skips_nan():
    got = threshold_crossing((0.0, 1.0, 2.0), (np.nan, 1e-2, 1e-4), 1e-3)
    assert got == pytest.approx(1.5, abs=1e-12)


def test_threshold_crossing_shape_validation():
    with pytest.raises(ValueError):
        threshold_crossing((0.0, 1.0, 2.0), (1.0, 2.0), 1e-3)
    with pytest.raises(ValueError):
        threshold_crossing(np.ones((2, 2)), np.ones((2, 2)), 1e-3)


# ------------------------------------------------------------ spectrum_check

def test_spectrum_check_table_and_summary():
    cfg = SimConfig(users=16, antennas=32, trials=4, seed=1000)
    res = run_experiment("spectrum_check", cfg, bins=21)
    assert res.kind == "spectrum_check"
    assert res.header == ("bin_center", "empirical_density", "analytic_density")
    assert len(res.rows) == 21

    head = res.summary["headline"]
    assert head["zeros_ok"] is True
    assert head["zero_eigenvalues_per_draw"] == 16
    assert head["expected_zero_eigenvalues"] == 16
    a_edge, b_edge, atom = bsca_support(0.5)
    assert head["support"] == pytest.approx([a_edge, b_edge], rel=1e-9)
    assert head["zero_mass"] == pytest.approx(atom, rel=1e-9)
    assert head["l1_distance"] >= 0.0
    assert head["draws"] == 4 and head["bins"] == 21
    assert isinstance(res.summary["wall_time_s"], float)

    # third column is the analytic density evaluated at the bin center
    center, _, analytic = res.rows[15]
    assert a_edge < center < b_edge
    assert analytic == pytest.approx(bsca_density(center, 0.5), rel=1e-6)


def test_spectrum_check_rejects_degenerate_bins():
    cfg = SimConfig(users=8, antennas=16, trials=1)
    with pytest.raises(ExperimentError) as ei:
        run_experiment("spectrum_check", cfg, bins=1)
    assert "bins" in str(ei.value)


def test_spectrum_check_thread_count_does_not_change_rows():
    kw = dict(users=16, antennas=32, trials=4, seed=1000)
    r1 = run_experiment("spectrum_check", SimConfig(**kw), bins=15)
    r2 = run_experiment("spectrum_check", SimConfig(threads=2, **kw), bins=15)
    assert r1.rows == r2.rows
    assert r1.summary["headline"] == r2.summary["headline"]


# ------------------------------------------------------------------- eta_cdf

def test_eta_cdf_rows_and_headline():
    cfg = SimConfig(
        users=30, antennas=256, eta=(0.5,), trials=20, seed=2000,
        estimator_order=1,
    )
    res = run_experiment("eta_cdf", cfg)
    assert res.header == ("eta", "delta_eta", "cdf")
    assert len(res.rows) == 20
    assert all(r[0] == 0.5 for r in res.rows)
    deltas = [r[1] for r in res.rows]
    cdf = [r[2] for r in res.rows]
    assert deltas == sorted(deltas)
    assert all(cdf[i] < cdf[i + 1] for i in range(len(cdf) - 1))
    assert cdf[-1] == pytest.approx(1.0)

    head = res.summary["headline"]
    block = head["eta=0.5"]
    assert block["p95_delta_eta"] >= block["median_delta_eta"] >= 0.0
    assert 0.0 <= block["prob_delta_below_0.05"] <= 1.0
    assert block["identifiable_fraction"] == 1.0
    assert head["estimator_order"] == 1
    assert head["theory_mode"] == "gaussian_equivalent"


def test_eta_cdf_reports_auto_order():
    # with no order configured the headline names the order used
    for users, antennas in ((8, 32), (100, 128)):
        cfg = SimConfig(users=users, antennas=antennas, eta=(0.3,), trials=3, seed=2100)
        res = run_experiment("eta_cdf", cfg)
        assert res.summary["headline"]["estimator_order"] == 1


def test_eta_cdf_stacks_one_block_per_level():
    cfg = SimConfig(
        users=8, antennas=32, eta=(0.2, 0.6), trials=3, seed=2200,
        estimator_order=1,
    )
    res = run_experiment("eta_cdf", cfg)
    assert len(res.rows) == 6
    assert [r[0] for r in res.rows] == [0.2, 0.2, 0.2, 0.6, 0.6, 0.6]
    assert set(res.summary["headline"]) >= {"eta=0.2", "eta=0.6"}


# ----------------------------------------------------------- mse_vs_antennas

def test_mse_vs_antennas_requires_grid():
    with pytest.raises(ExperimentError) as ei:
        run_experiment("mse_vs_antennas", SimConfig(users=8, trials=2))
    assert "antennas_grid" in str(ei.value)


def test_mse_vs_antennas_requires_cleaning_csi():
    cfg = SimConfig(users=8, trials=2, antennas_grid=(32, 64), csi="noisy_raw")
    with pytest.raises(ExperimentError) as ei:
        run_experiment("mse_vs_antennas", cfg)
    assert "ei_cleaned" in str(ei.value)


def test_mse_vs_antennas_table():
    cfg = SimConfig(
        users=8, trials=5, eta=(0.5,), seed=3000,
        csi="ei_cleaned_known_eta", antennas_grid=(32, 64),
    )
    res = run_experiment("mse_vs_antennas", cfg)
    assert res.header == (
        "eta", "antennas", "mse_cleaned", "mse_noisy", "mse_scalar_mmse",
        "mmse_floor", "win_fraction", "trials", "seed",
    )
    assert len(res.rows) == 2
    for row, antennas in zip(res.rows, (32, 64)):
        assert row[0] == 0.5
        assert row[1] == antennas
        assert row[2] > 0.0 and row[3] > 0.0 and row[4] > 0.0
        assert row[5] == pytest.approx(0.5 / antennas, rel=1e-9)
        assert 0.0 <= row[6] <= 1.0
        assert row[7] == 5 and row[8] == 3000

    head = res.summary["headline"]
    block = head["eta=0.5"]
    assert len(block["mse_cleaned_by_antennas"]) == 2
    assert isinstance(block["nonincreasing_in_antennas"], bool)
    assert block["ratio_to_floor_last"] > 0.0
    assert head["csi"] == "ei_cleaned_known_eta"
    assert "rie_variant" not in head  # the cleaning rule has no variants


def test_mse_vs_antennas_scalar_column_is_the_conditional_mean():
    # damped error with c != 1: E[H | X] = sqrt(1-eta)/(1-eta+eta c) X, whose
    # per-entry error is (1/A) eta c / (1-eta+eta c); sqrt(1-eta) X is worse
    eta, c, antennas = 0.4, 2.0, 128
    cfg = SimConfig(
        users=20, trials=40, eta=eta, c=c, corruption_mode="damped", seed=3100,
        csi="ei_cleaned_known_eta", antennas_grid=(antennas,),
    )
    row = run_experiment("mse_vs_antennas", cfg).rows[0]
    assert row[4] == pytest.approx(eta * c / (1 - eta + eta * c) / antennas, rel=0.03)


@pytest.mark.parametrize("mode", ["damped", "additive"])
@pytest.mark.parametrize("c", [2.0, 0.5])
def test_mse_vs_antennas_floor_is_the_conditional_means_error(mode, c):
    # the floor is the scalar column's expectation, eta c / (1-eta+eta c) / A
    # in either mode, not eta/A: a cleaner at the floor reads a ratio near 1
    eta, antennas = 0.4, 128
    cfg = SimConfig(
        users=20, trials=20, eta=eta, c=c, corruption_mode=mode, seed=3300,
        csi="ei_cleaned_known_eta", antennas_grid=(antennas,),
    )
    res = run_experiment("mse_vs_antennas", cfg)
    row = res.rows[0]
    assert row[5] == pytest.approx(eta * c / (1 - eta + eta * c) / antennas, rel=1e-9)
    assert row[4] == pytest.approx(row[5], rel=0.03)
    assert 0.95 < res.summary["headline"]["eta=0.4"]["ratio_to_floor_last"] < 1.1


def test_clean_csi_at_eta_zero_keeps_the_observation_exactly():
    # the known-eta cleaner at eta 0 is the identity and returns the
    # observation itself, so every trial's cleaned error is exactly the raw 0
    cfg = SimConfig(
        corruption_mode="damped", c=2.0, csi="ei_cleaned_known_eta", eta=(0.0, 0.3),
        antennas_grid=(32, 64), trials=6, seed=3,
    )
    rows = run_experiment("mse_vs_antennas", cfg).rows
    for row in rows[:2]:
        assert row[2] == row[3] == 0.0 and row[6] == 1.0, row
    assert all(0.0 < row[2] < row[3] for row in rows[2:])


# ------------------------------------------------ one draw for every eta level

def _observation(cfg, dims, eta, t):
    """Trial t's channel and its observation at one level, written out as a
    run at that level alone draws them: H with CN(0, 1/A) entries from the
    stream (seed, t, 0); unless eta is 0, the error E with CN(0, v/A)
    entries, v = c damped and 1 additive, from the stream (seed, t, 1)."""
    def stream(purpose):
        return np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(t, purpose)))

    def cn(var, rng):
        shape = (dims.users, dims.antennas)
        return np.sqrt(var / 2.0) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    H = cn(1.0 / dims.antennas, stream(0))
    if eta == 0.0:
        return H, H.copy()
    if cfg.corruption_mode == "damped":
        E = cn(cfg.c / dims.antennas, stream(1))
        return H, np.sqrt(1.0 - eta) * H + np.sqrt(eta) * E
    E = cn(1.0 / dims.antennas, stream(1))
    return H, H + float(np.sqrt(eta * cfg.c / (1.0 - eta))) * E


def _clean_csi_reference(cfg):
    """The mse_vs_antennas rows and diagnostics, level by level."""
    rows, diagnostics = [], []
    for eta in cfg.eta:
        for dims in cfg.grid_dims:
            per_trial, eta_hats, flags = [], [], []
            for t in range(cfg.trials):
                H, H_obs = _observation(cfg, dims, eta, t)
                csi, eta_hat, identifiable = estimate_csi(cfg, eta, H_obs)
                scalar = linear_mmse_baseline(H_obs, cfg.corruption(eta))
                per_trial.append((mse(H, csi.matrix), mse(H, H_obs), mse(H, scalar)))
                eta_hats.append(eta_hat)
                flags += [] if identifiable is None else [identifiable]
            results = np.array(per_trial)
            floor = eta * cfg.c / ((1 - eta) + eta * cfg.c) / dims.antennas
            win = np.mean(results[:, 0] <= results[:, 1])
            rows.append((eta, dims.antennas, *results.mean(axis=0), floor, win,
                         cfg.trials, cfg.seed))
            diagnostics.append({
                "eta": eta,
                "antennas": dims.antennas,
                "eta_hat_mean": statistics.fmean(eta_hats),
                "eta_hat_std": statistics.pstdev(eta_hats),
                "identifiable_fraction": float(np.mean(flags)) if flags else None,
            })
    return _rounded(rows), _rounded(diagnostics)


def _eta_cdf_reference(cfg):
    rows = []
    for eta in cfg.eta:
        observations = [_observation(cfg, cfg.dims, eta, t)[1] for t in range(cfg.trials)]
        deltas = np.sort([abs(estimate_eta(y, cfg.estimator).eta_hat - eta) for y in observations])
        cdf = np.arange(1, len(deltas) + 1) / len(deltas)
        rows.extend((eta, d, p) for d, p in zip(deltas, cdf))
    return _rounded(rows)


_LEVELS = dict(users=4, antennas=16, antennas_grid=(8, 16), eta=(0.0, 0.3, 0.7), trials=3)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("mode, c", [("additive", 1.0), ("damped", 2.0)])
def test_every_level_sees_the_written_out_per_level_draws(mode, c, threads):
    # one draw of each trial serves every level; each level's rows are the
    # ones a draw at that level alone gives
    base = SimConfig(**_LEVELS, corruption_mode=mode, c=c, threads=threads, seed=3400)
    for csi in ("ei_cleaned", "ei_cleaned_known_eta"):
        cfg = replace(base, csi=csi)
        res = run_experiment("mse_vs_antennas", cfg)
        rows, diagnostics = _clean_csi_reference(cfg)
        assert list(res.rows) == rows, csi
        assert res.summary["diagnostics"] == diagnostics, csi
    assert list(run_experiment("eta_cdf", base).rows) == _eta_cdf_reference(base)


def test_clean_csi_and_estimate_eta_draw_each_trial_once(count_calls):
    # H and E are drawn once per trial (and grid size), and mixed once per level
    calls = count_calls(linksim, "gen_channel", "gen_error", "corrupt")
    cfg = SimConfig(**_LEVELS, csi="ei_cleaned", seed=3500)
    run_experiment("mse_vs_antennas", cfg)
    assert calls == {"gen_channel": 6, "gen_error": 6, "corrupt": 18}
    calls.update(gen_channel=0, gen_error=0, corrupt=0)
    run_experiment("eta_cdf", cfg)
    assert calls == {"gen_channel": 3, "gen_error": 3, "corrupt": 9}
    # no error is drawn when every level is 0
    calls.update(gen_channel=0, gen_error=0, corrupt=0)
    run_experiment("eta_cdf", replace(cfg, eta=(0.0,)))
    assert calls == {"gen_channel": 3, "gen_error": 0, "corrupt": 3}


def test_clean_csi_json_reports_the_eta_hat_diagnostics():
    cfg = SimConfig(**_LEVELS, corruption_mode="damped", seed=3600)
    for csi in ("ei_cleaned", "ei_cleaned_known_eta"):
        diag = json.loads(run_experiment("mse_vs_antennas", replace(cfg, csi=csi)).json_text())
        points = [(d["eta"], d["antennas"]) for d in diag["diagnostics"]]
        assert points == [(e, a) for e in cfg.eta for a in cfg.antennas_grid]
        for d in diag["diagnostics"]:
            if csi == "ei_cleaned":
                # damped corruption with c = 1: eta is blindly unidentifiable
                assert 0.0 <= d["identifiable_fraction"] < 1.0 and d["eta_hat_std"] >= 0.0
            else:
                assert d["eta_hat_mean"] == d["eta"] and d["eta_hat_std"] == 0.0
                assert d["identifiable_fraction"] is None


def test_every_family_sees_the_link_trials_observation():
    # one (seed, trial) draws one (H, H_obs), whichever family asks for it
    cfg = SimConfig(
        users=8, antennas=32, eta=(0.4,), trials=1, seed=3200, csi="ei_cleaned",
        antennas_grid=(32,), precoder="WF", bits=None, symbols_per_trial=10,
    )
    link = downlink_trial(cfg, 0)[0]
    head = run_experiment("eta_cdf", cfg).summary["headline"]
    assert head["eta=0.4"]["mean_eta_hat"] == _round(link.eta_hat)
    row = run_experiment("mse_vs_antennas", cfg).rows[0]
    assert row[2] == _round(link.mse_csi)


# ----------------------------------------------------------------- ber_vs_*

def test_ber_vs_snr_table_and_bypass_bits():
    cfg = SimConfig(
        csi="perfect", precoder="WF", bits=None, snr_db=(0.0, 8.0),
        seed=4000, **_FAST_LINK,
    )
    res = run_experiment("ber_vs_snr", cfg)
    assert res.header == (
        "snr_db", "precoder", "csi_mode", "bits", "ber", "ber_lo", "ber_hi",
        "trials", "seed",
    )
    assert len(res.rows) == 2
    for row, snr in zip(res.rows, (0.0, 8.0)):
        assert row[0] == snr
        assert row[1] == "WF"
        assert row[2] == "perfect"
        assert row[3] == "bypass"
        assert row[5] <= row[4] <= row[6]
        assert row[7] == 4
        assert row[8] == 4000
    head = res.summary["headline"]
    assert set(head) == {"eta", "snr_at_ber_1e-3", "unresolved_snr_db", "degenerate_csi_trials"}
    assert head["degenerate_csi_trials"] == 0
    assert head["eta"] == 0.3
    assert isinstance(head["unresolved_snr_db"], list)


def test_ber_vs_eta_prepends_level_column():
    cfg = SimConfig(
        csi="noisy_raw", precoder="WFQ", bits=4, eta=(0.1, 0.5),
        snr_db=(5.0,), seed=4100, **_FAST_LINK,
    )
    res = run_experiment("ber_vs_eta", cfg)
    assert res.header[0] == "eta"
    assert res.header[1:] == (
        "snr_db", "precoder", "csi_mode", "bits", "ber", "ber_lo", "ber_hi",
        "trials", "seed",
    )
    assert [r[0] for r in res.rows] == [0.1, 0.5]
    assert all(r[1] == 5.0 for r in res.rows)
    assert all(r[4] == 4 for r in res.rows)
    head = res.summary["headline"]
    assert set(head) == {"snr_db", "eta_at_ber_1e-3", "unresolved_eta", "degenerate_csi_trials"}
    assert head["snr_db"] == 5.0
    assert isinstance(head["unresolved_eta"], list)


def test_ber_json_reports_the_cleaned_csi_diagnostics():
    for csi, kind, axis in (
        ("ei_cleaned_known_eta", "ber_vs_snr", "snr_db"),
        ("noisy_raw", "ber_vs_eta", "eta"),
    ):
        cfg = SimConfig(
            csi=csi, eta=(0.2, 0.4), snr_db=(2.0, 6.0), seed=4200, **_FAST_LINK
        )
        res = run_experiment(kind, cfg)
        diag = json.loads(res.json_text())["diagnostics"]
        assert [d[axis] for d in diag] == list(getattr(cfg, axis))
        for d in diag:
            keys = ("eta_hat_mean", "eta_hat_std", "mse_cleaned_mean", "mse_raw_mean",
                    "identifiable_fraction")
            stats = [d[k] for k in keys]
            if csi == "noisy_raw":
                assert stats == [None] * 5
            else:
                # the known-eta mode cleans at the true eta in every trial,
                # and estimates nothing
                assert d["eta_hat_mean"] == 0.2 and d["eta_hat_std"] == 0
                assert 0 < d["mse_cleaned_mean"] < d["mse_raw_mean"]
                assert d["identifiable_fraction"] is None


def test_ber_json_reports_the_identifiable_fraction():
    # damped corruption with c = 1 keeps the observed scale at 1, so eta is
    # blindly unidentifiable there; additive corruption always identifies it
    for mode, check in (("damped", lambda f: f < 1.0), ("additive", lambda f: f == 1.0)):
        cfg = SimConfig(
            csi="ei_cleaned", corruption_mode=mode, eta=(0.2, 0.4), snr_db=(2.0, 6.0),
            seed=4300, **_FAST_LINK,
        )
        for kind in ("ber_vs_snr", "ber_vs_eta"):
            diag = json.loads(run_experiment(kind, cfg).json_text())["diagnostics"]
            fractions = [d["identifiable_fraction"] for d in diag]
            assert len(fractions) == 2 and all(check(f) for f in fractions), (mode, kind, fractions)
    # noisy_raw and the known-eta mode are checked with the other diagnostics
    cfg = SimConfig(csi="perfect", seed=4300, **_FAST_LINK)
    diag = json.loads(run_experiment("ber_vs_snr", cfg).json_text())["diagnostics"]
    assert diag[0]["identifiable_fraction"] is None


def test_unknown_experiment_kind():
    with pytest.raises(ExperimentError) as ei:
        run_experiment("spectra", SimConfig())
    assert "unknown experiment kind" in str(ei.value)


def _floats(v):
    if isinstance(v, (float, np.floating)):
        yield v
    elif isinstance(v, (list, tuple)):
        for x in v:
            yield from _floats(x)
    elif isinstance(v, dict):
        for x in v.values():
            yield from _floats(x)


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_every_float_of_a_result_is_rounded(kind):
    # the families return raw numbers and run_experiment rounds them once,
    # so a family that bypassed the boundary would leave 17-digit floats
    cfg = SimConfig(
        csi="ei_cleaned", eta=(0.2, 0.4), snr_db=(2.0, 6.0), antennas_grid=(32,),
        seed=5100, **_FAST_LINK,
    )
    res = run_experiment(kind, cfg)
    floats = list(_floats([res.rows, res.summary]))
    assert len(floats) > 3
    assert all(v == _round(v) for v in floats)


# -------------------------------------------------------------- file outputs

def test_result_files_and_csv_layout(tmp_path):
    cfg = SimConfig(users=8, antennas=16, trials=2, seed=5000)
    res = run_experiment("spectrum_check", cfg, bins=9)
    csv_path, json_path = res.write(tmp_path / "out")
    assert csv_path.name == "spectrum_check.csv"
    assert json_path.name == "spectrum_check.json"

    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("# eiprecode-")
    assert lines[0].endswith(" spectrum_check")
    assert lines[1] == f"# {SNR_DEFINITION}"
    assert lines[2].startswith("# config: ")
    assert "seed=5000" in lines[2] and "users=8" in lines[2]
    assert lines[3] == "bin_center,empirical_density,analytic_density"
    assert len(lines) == 4 + 9

    doc = json.loads(json_path.read_text())
    assert doc["experiment"] == "spectrum_check"
    assert doc["version"].startswith("eiprecode-")
    assert doc["seed"] == 5000
    assert doc["snr_definition"] == SNR_DEFINITION
    assert doc["config"]["antennas"] == 16
    assert "headline" in doc and "wall_time_s" in doc


def test_outputs_are_deterministic_for_a_fixed_config():
    cfg = SimConfig(users=8, antennas=16, trials=2, seed=5100)
    r1 = run_experiment("spectrum_check", cfg, bins=9)
    r2 = run_experiment("spectrum_check", cfg, bins=9)
    assert r1.csv_text() == r2.csv_text()
    d1 = json.loads(r1.json_text())
    d2 = json.loads(r2.json_text())
    d1.pop("wall_time_s")
    d2.pop("wall_time_s")
    assert d1 == d2


# ------------------------------------------------------------------- config

def test_parse_set_item_yaml_scalars():
    assert parse_set_item("seed=7") == ("seed", 7)
    assert parse_set_item("eta=[0.1, 0.2]") == ("eta", [0.1, 0.2])
    assert parse_set_item("bits=bypass") == ("bits", "bypass")
    assert parse_set_item("c=1.5") == ("c", 1.5)


@pytest.mark.parametrize(
    "raw", ["0.3", "1e-3", "bypass", "null", "yes", "0x10", ".inf", "[1, 2]", "012", "~"]
)
def test_parse_set_item_reads_a_value_as_yaml_safe_load_does(raw):
    # YAML 1.1 scalars: 1e-3 is a string, yes is True, 012 is octal
    assert parse_set_item(f"c={raw}") == ("c", yaml.safe_load(raw))


@pytest.mark.parametrize("raw", ["[1, 2", "!!python/object/apply:os.getcwd []", "\t"])
def test_parse_set_item_rejects_what_yaml_safe_load_rejects(raw):
    with pytest.raises(yaml.YAMLError):
        yaml.safe_load(raw)
    with pytest.raises(ConfigError, match="unparseable value"):
        parse_set_item(f"c={raw}")


def test_parse_set_item_rejects_malformed():
    with pytest.raises(ConfigError):
        parse_set_item("seed")
    with pytest.raises(ConfigError):
        parse_set_item("=7")


def test_parse_set_item_rejects_an_unparseable_value():
    with pytest.raises(ConfigError, match="'eta': unparseable value"):
        parse_set_item("eta=[0.1")


def test_parse_config_defaults():
    cfg, extras = parse_config()
    assert cfg == SimConfig()
    assert extras == {}


def test_parse_config_layers_and_precedence(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(
        yaml.safe_dump({"users": 8, "antennas": 16, "seed": 11, "threads": 2})
    )
    cfg, extras = parse_config(
        path=path,
        overrides=("seed=33", "bins=12", "seed=44"),
        env={ENV_SEED: "22", ENV_THREADS: "3"},
    )
    assert cfg.users == 8 and cfg.antennas == 16
    # a later override beats an earlier one beats environment beats file
    assert cfg.seed == 44
    # nothing above the environment touches threads
    assert cfg.threads == 3
    assert extras == {"bins": 12}


def test_parse_config_file_must_be_valid_yaml_and_may_be_empty(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("users: [20\n")
    with pytest.raises(ConfigError, match="not valid YAML"):
        parse_config(path=bad, env={})
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    assert parse_config(path=empty, env={}) == (SimConfig(), {})


def test_parse_config_env_layer():
    cfg, _ = parse_config(env={ENV_SEED: "9", ENV_THREADS: ""})
    assert cfg.seed == 9
    assert cfg.threads == 1
    with pytest.raises(ConfigError) as ei:
        parse_config(env={ENV_SEED: "many"})
    assert ENV_SEED in str(ei.value)


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError) as ei:
        parse_config(overrides=("sneed=3",))
    assert "unknown config key 'sneed'" in str(ei.value)


def test_parse_config_type_errors_name_the_field():
    with pytest.raises(ConfigError) as ei:
        parse_config(overrides=("users=3.5",))
    assert "'users'" in str(ei.value)
    with pytest.raises(ConfigError):
        parse_config(overrides=("users=true",))
    with pytest.raises(ConfigError):
        parse_config(overrides=("precoder=[1]",))


def test_parse_config_scalars_become_tuples():
    cfg, _ = parse_config(
        overrides=("eta=0.25", "snr_db=4", "antennas_grid=[32, 64]")
    )
    assert cfg.eta == (0.25,)
    assert cfg.snr_db == (4.0,)
    assert cfg.antennas_grid == (32, 64)


def test_parse_config_bits_bypass_means_unquantized():
    cfg, _ = parse_config(overrides=("bits=bypass", "precoder=WF"))
    assert cfg.bits is None


def test_parse_config_invalid_value_is_a_config_error():
    with pytest.raises(ConfigError):
        parse_config(overrides=("users=0",))


def test_parse_config_missing_file():
    with pytest.raises(ConfigError) as ei:
        parse_config(path="/nonexistent/cfg.yaml")
    assert "not found" in str(ei.value)


def test_parse_config_file_must_be_a_mapping(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError):
        parse_config(path=path)


# ---------------------------------------------------------------------- CLI

def _run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "command,kind",
    [
        ("spectra", "spectrum_check"),
        ("estimate-eta", "eta_cdf"),
        ("clean-csi", "mse_vs_antennas"),
        ("ber", "ber_vs_snr"),
        ("sweep", "ber_vs_eta"),
    ],
)
def test_cli_subcommands_map_to_experiments(command, kind, capsys):
    # clean-csi has no antennas_grid by default, and a dry run rejects that
    grid = ["--set", "antennas_grid=[32, 64]"] if command == "clean-csi" else []
    code, out, err = _run_cli([command, "--dry-run", *grid], capsys)
    assert code == 0, err
    assert json.loads(out)["experiment"] == kind
    assert tuple(k for k, _ in _SUBCOMMANDS.values()) == EXPERIMENT_KINDS


def test_cli_dry_run_prints_plan_without_writing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = _run_cli(
        ["ber", "--dry-run", "--seed", "7", "--set", "trials=3"], capsys
    )
    assert code == 0
    plan = json.loads(out)
    assert plan["experiment"] == "ber_vs_snr"
    assert plan["out"] == "eiprecode-out"
    assert plan["config"]["seed"] == 7
    assert plan["config"]["trials"] == 3
    assert not (tmp_path / "eiprecode-out").exists()
    assert err == ""


def test_cli_spectra_writes_tables(tmp_path, capsys):
    out = tmp_path / "o"
    code, text, _ = _run_cli(
        [
            "spectra", "--out", str(out), "--seed", "5", "--bins", "11",
            "--set", "users=8", "--set", "antennas=16", "--set", "trials=2",
        ],
        capsys,
    )
    assert code == 0
    csv_path = out / "spectrum_check.csv"
    json_path = out / "spectrum_check.json"
    assert csv_path.exists() and json_path.exists()

    lines = text.splitlines()
    assert lines[0] == f"wrote {csv_path}"
    assert lines[1] == f"wrote {json_path}"
    assert lines[2].startswith("headline: ")
    headline = json.loads(lines[2][len("headline: "):])
    assert headline["zeros_ok"] is True

    doc = json.loads(json_path.read_text())
    assert doc["seed"] == 5
    assert doc["config"]["trials"] == 2


def test_cli_env_and_flag_precedence(tmp_path, monkeypatch, capsys):
    cfgfile = tmp_path / "cfg.yaml"
    cfgfile.write_text("seed: 11\nthreads: 2\n")
    monkeypatch.setenv(ENV_SEED, "22")
    monkeypatch.setenv(ENV_THREADS, "3")
    code, out, _ = _run_cli(
        ["sweep", "--dry-run", "--config", str(cfgfile), "--set", "seed=33"],
        capsys,
    )
    assert code == 0
    plan = json.loads(out)
    assert plan["config"]["seed"] == 33
    assert plan["config"]["threads"] == 3


def test_cli_env_seed_applies(monkeypatch, capsys):
    monkeypatch.setenv(ENV_SEED, "22")
    code, out, _ = _run_cli(["ber", "--dry-run"], capsys)
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 22


@pytest.mark.parametrize(
    "command,flag,value,other",
    [
        ("ber", "seed", "5", "3"),
        ("ber", "threads", "2", "3"),
        ("ber", "trials", "9", "4"),
        ("ber", "precoder", "zf", "MRT"),
        ("sweep", "csi", "noisy_raw", "perfect"),
        ("sweep", "bits", "bypass", "2"),
        ("spectra", "bins", "12", "20"),
    ],
)
def test_cli_flag_is_its_set_item_placed_last(command, flag, value, other, capsys):
    def plan(*argv):
        code, out, err = _run_cli([command, "--dry-run", *argv], capsys)
        assert code == 0, err
        return json.loads(out)

    flagged = plan(f"--{flag}", value)
    assert flagged == plan("--set", f"{flag}={value}")
    assert flagged != plan()
    # the flag wins over a --set item of its key, before or after it
    assert plan("--set", f"{flag}={other}", f"--{flag}", value) == flagged
    assert plan(f"--{flag}", value, "--set", f"{flag}={other}") == flagged


# (argv, the config key its error names)
_REJECTED_PLANS = [
    (["spectra", "--bins", "1"], "bins"),
    (["spectra", "--set", "bins=-4"], "bins"),
    (["ber", "--set", "bins=3"], "bins"),
    (["estimate-eta", "--set", "bins=50"], "bins"),
    (["clean-csi"], "antennas_grid"),
    (["clean-csi", "--set", "csi=perfect", "--set", "antennas_grid=[32, 64]"], "csi"),
]


@pytest.mark.parametrize(
    "argv,key", _REJECTED_PLANS, ids=[f"argv{i}" for i in range(len(_REJECTED_PLANS))]
)
def test_cli_dry_run_rejects_what_the_run_rejects(argv, key, tmp_path, capsys):
    dry = _run_cli([*argv, "--dry-run"], capsys)
    run = _run_cli([*argv, "--set", "trials=1", "--out", str(tmp_path / "o")], capsys)
    assert dry[0] == run[0] == 2
    assert dry[1] == "" and dry[2] == run[2]
    assert key in dry[2]
    assert not (tmp_path / "o").exists()


def test_cli_calls_in_one_process_each_get_their_own_config(capsys):
    # the parser is built once per process; no --set list or flag value of
    # one call may reach the next
    def plan(*argv):
        code, out, err = _run_cli(["ber", "--dry-run", *argv], capsys)
        assert code == 0, err
        return json.loads(out)["config"]

    first = ("--set", "trials=3", "--set", "eta=[0.2]", "--seed", "5", "--bits", "2")
    second = ("--set", "snr_db=[1.0]", "--threads", "2")
    alone = {
        argv: asdict(parse_config(overrides=items)[0])
        for argv, items in (
            (first, ["trials=3", "eta=[0.2]", "seed=5", "bits=2"]),
            (second, ["snr_db=[1.0]", "threads=2"]),
        )
    }
    for argv in (first, second, first, second):
        assert plan(*argv) == json.loads(json.dumps(alone[argv])), argv


def test_cli_flag_beats_set(capsys):
    code, out, _ = _run_cli(
        ["ber", "--dry-run", "--seed", "44", "--set", "seed=33"], capsys
    )
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 44


def test_cli_trials_flag(capsys):
    code, out, _ = _run_cli(["ber", "--dry-run", "--trials", "9"], capsys)
    assert code == 0
    assert json.loads(out)["config"]["trials"] == 9


def test_cli_bits_flag_parses_bypass(capsys):
    code, out, _ = _run_cli(
        ["ber", "--dry-run", "--bits", "bypass", "--precoder", "WF",
         "--csi", "perfect"],
        capsys,
    )
    assert code == 0
    plan = json.loads(out)
    assert plan["config"]["bits"] is None
    assert plan["config"]["precoder"] == "WF"
    assert plan["config"]["csi"] == "perfect"


def test_cli_malformed_set_exits_2(capsys):
    code, _, err = _run_cli(["ber", "--set", "seed"], capsys)
    assert code == 2
    assert "config error" in err


def test_cli_unknown_key_exits_2(capsys):
    code, _, err = _run_cli(["ber", "--dry-run", "--set", "sneed=3"], capsys)
    assert code == 2
    assert "unknown config key" in err


def test_cli_bad_env_exits_2(monkeypatch, capsys):
    monkeypatch.setenv(ENV_SEED, "lots")
    code, _, err = _run_cli(["ber", "--dry-run"], capsys)
    assert code == 2
    assert ENV_SEED in err


def test_cli_missing_config_file_exits_2(tmp_path, capsys):
    code, _, err = _run_cli(
        ["ber", "--config", str(tmp_path / "nope.yaml")], capsys
    )
    assert code == 2
    assert "config error" in err


@pytest.mark.parametrize(
    "command,item,field",
    [
        ("ber", "c=0", "c"),
        ("ber", "c=-1", "c"),
        ("estimate-eta", "c=-2", "c"),
        ("ber", "estimator_order=5", "estimator_order"),
        ("clean-csi", "antennas_grid=[20]", "antennas_grid"),
        ("ber", "p_total=0", "p_total"),
        ("ber", "p_total=-1", "p_total"),
        ("ber", "p_total=.nan", "p_total"),
        ("ber", "p_total=.inf", "p_total"),
        ("ber", "min_errors=0", "min_errors"),
        ("ber", "max_bits=0", "max_bits"),
        ("ber", "eta=[]", "eta"),
        ("ber", "snr_db=[]", "snr_db"),
        ("sweep", "eta=[]", "eta"),
        ("estimate-eta", "eta=[]", "eta"),
        ("ber", "antennas_grid=[]", "antennas_grid"),
        ("clean-csi", "antennas_grid=[]", "antennas_grid"),
        ("ber", ("precoder=QCE", "bits=bypass"), "precoder/bits"),
        ("ber", "trials=.nan", "trials"),
        ("ber", "users=.inf", "users"),
        ("clean-csi", "antennas_grid=[32, .inf]", "antennas_grid"),
        ("ber", "snr_db=[.nan]", "snr_db"),
        ("ber", "c=.inf", "c"),
        # an int past the float range fails the bound, not math.isfinite
        pytest.param("ber", "seed=" + "9" * 400, "seed", id="ber-seed=400_nines-seed"),
        # null is a bad value here, not an unset one
        ("spectra", "bins=null", "bins"),
        ("spectra", "seed=-1", "seed"),
        # bins sizes the spectrum histogram and nothing else
        ("ber", "bins=3", "bins"),
    ],
)
def test_cli_out_of_range_value_exits_2(command, item, field, tmp_path, capsys):
    argv = [command, "--out", str(tmp_path / "o")]
    # the trial budget goes first, so that an item may override it
    for one in ("trials=2",) + ((item,) if isinstance(item, str) else item):
        argv += ["--set", one]
    code, out, err = _run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("config error")
    assert re.search(rf"\b{field}\b", err), err
    assert not (tmp_path / "o").exists()


def test_cli_incomplete_experiment_exits_2(tmp_path, capsys):
    code, _, err = _run_cli(
        ["clean-csi", "--out", str(tmp_path / "o"), "--set", "trials=2"],
        capsys,
    )
    assert code == 2
    assert "antennas_grid" in err


def test_cli_numerical_failure_exits_1(tmp_path, capsys, monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(precoding, "precode", singular)
    code, _, err = _run_cli(
        [
            "ber", "--out", str(tmp_path / "o"), "--precoder", "ZF",
            "--set", "trials=1", "--set", "symbols_per_trial=10",
            "--set", "snr_db=5",
        ],
        capsys,
    )
    assert code == 1
    assert "numerical failure" in err
    assert "LinAlgError" in err
    assert "Singular matrix" in err


@pytest.mark.parametrize("precoder", ["MRT", "WFQ"])
def test_cli_ber_survives_a_zero_csi(tmp_path, capsys, precoder):
    # cleaning at eta 0.99 shrinks every singular value of a 2 x 64
    # observation to 0; such a trial transmits nothing instead of ending
    # the run, and the JSON counts it
    code, _, err = _run_cli(
        [
            "ber", "--out", str(tmp_path / "o"), "--precoder", precoder,
            "--csi", "ei_cleaned_known_eta",
            "--set", "users=2", "--set", "antennas=64", "--set", "eta=0.99",
            "--set", "trials=8", "--set", "symbols_per_trial=10",
            "--set", "snr_db=5",
        ],
        capsys,
    )
    assert code == 0, err
    doc = json.loads((tmp_path / "o" / "ber_vs_snr.json").read_text())
    assert doc["headline"]["degenerate_csi_trials"] > 0


@pytest.mark.parametrize("command,axis", [("ber", "snr_db"), ("sweep", "eta")])
def test_cli_warns_on_stderr_where_eta_is_unidentifiable(tmp_path, capsys, command, axis):
    # damped corruption with c = 1 leaves eta blindly unidentifiable: one
    # stderr line per point, and stdout keeps its three lines
    fast = ["--set", "users=6", "--set", "antennas=24", "--set", "trials=4",
            "--set", "symbols_per_trial=50", "--csi", "ei_cleaned", "--seed", "4300"]
    out = tmp_path / "damped"
    code, text, err = _run_cli(
        [command, "--out", str(out), *fast, "--set", "corruption_mode=damped",
         "--set", "eta=[0.2, 0.4]", "--set", "snr_db=[2, 6]"],
        capsys,
    )
    assert code == 0, err
    assert len(text.splitlines()) == 3 and text.startswith("wrote ")
    json_name = "ber_vs_snr.json" if command == "ber" else "ber_vs_eta.json"
    diag = json.loads((out / json_name).read_text())["diagnostics"]
    want = [
        f"warning: eta not identifiable in {100.0 * (1.0 - d['identifiable_fraction']):.3g}% "
        f"of trials at {axis}={d[axis]:g}"
        for d in diag
    ]
    assert all(d["identifiable_fraction"] < 1.0 for d in diag)
    assert err.splitlines() == want
    # additive corruption always identifies eta: nothing on stderr
    code, text, err = _run_cli(
        [command, "--out", str(tmp_path / "additive"), *fast, "--set", "eta=[0.2, 0.4]",
         "--set", "snr_db=[2, 6]"],
        capsys,
    )
    assert code == 0 and err == ""
    assert len(text.splitlines()) == 3


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_cli_clean_csi_at_zero_eta_writes_null_ratio(tmp_path, capsys, recwarn):
    code, _, _ = _run_cli(
        [
            "clean-csi", "--out", str(tmp_path / "o"),
            "--set", "eta=[0.0]", "--set", "antennas_grid=[32,64]", "--set", "trials=2",
        ],
        capsys,
    )
    assert code == 0
    assert not recwarn.list, [str(w.message) for w in recwarn.list]
    text = (tmp_path / "o" / "mse_vs_antennas.json").read_text()
    doc = json.loads(text, parse_constant=_reject_constant)
    assert doc["headline"]["eta=0"]["ratio_to_floor_last"] is None


def test_cli_requires_a_subcommand():
    with pytest.raises(SystemExit) as ei:
        main([])
    assert ei.value.code == 2


def test_cli_reruns_reproduce_tables(tmp_path, capsys):
    argv = [
        "estimate-eta", "--seed", "6", "--set", "users=8",
        "--set", "antennas=32", "--set", "trials=3",
        "--set", "estimator_order=1",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert (a / "eta_cdf.csv").read_bytes() == (b / "eta_cdf.csv").read_bytes()
    da = json.loads((a / "eta_cdf.json").read_text())
    db = json.loads((b / "eta_cdf.json").read_text())
    da.pop("wall_time_s")
    db.pop("wall_time_s")
    assert da == db


def test_build_parser_round_trips_arguments():
    parser = build_parser()
    assert build_parser() is parser  # one parser per process, which main reuses
    args = parser.parse_args(["sweep", "--set", "eta=[0.1]"])
    assert args.command == "sweep"
    assert args.sets == ["eta=[0.1]"]
    args = parser.parse_args(["spectra", "--bins", "40"])
    assert args.bins == 40
