"""Experiment drivers, config resolution, and the command-line front end."""

import json
import re

import numpy as np
import pytest
import yaml

from eiprecode.cli import build_parser, main
from eiprecode.config import (
    ENV_SEED,
    ENV_THREADS,
    ConfigError,
    parse_config,
    parse_set_item,
)
from eiprecode.experiments import (
    ExperimentError,
    _round,
    run_experiment,
    threshold_crossing,
)
from eiprecode.linksim import SNR_DEFINITION, SimConfig, downlink_trial
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
    cfg = SimConfig(users=8, antennas=32, eta=(0.3,), trials=3, seed=2100)
    res = run_experiment("eta_cdf", cfg)
    assert res.summary["headline"]["estimator_order"] == "auto"


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


def test_every_family_sees_the_link_trials_observation():
    # one (seed, trial) draws one (H, H_obs), whichever family asks for it
    cfg = SimConfig(
        users=8, antennas=32, eta=(0.4,), trials=1, seed=3200, csi="ei_cleaned",
        antennas_grid=(32,), precoder="WF", bits=None, symbols_per_trial=10,
    )
    link = downlink_trial(cfg, 0)
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
    assert set(head) == {"eta", "snr_at_ber_1e-3", "unresolved_snr_db"}
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
    assert set(head) == {"snr_db", "eta_at_ber_1e-3", "unresolved_eta"}
    assert head["snr_db"] == 5.0
    assert isinstance(head["unresolved_eta"], list)


def test_unknown_experiment_kind():
    with pytest.raises(ExperimentError) as ei:
        run_experiment("spectra", SimConfig())
    assert "unknown experiment kind" in str(ei.value)


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


def test_parse_set_item_rejects_malformed():
    with pytest.raises(ConfigError):
        parse_set_item("seed")
    with pytest.raises(ConfigError):
        parse_set_item("=7")


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
        overrides=("seed=33", "bins=12"),
        env={ENV_SEED: "22", ENV_THREADS: "3"},
        flags={"seed": 44, "trials": None},
    )
    assert cfg.users == 8 and cfg.antennas == 16
    # flag beats --set beats environment beats file
    assert cfg.seed == 44
    # nothing above the environment touches threads
    assert cfg.threads == 3
    assert extras == {"bins": 12}


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
    code, out, _ = _run_cli([command, "--dry-run"], capsys)
    assert code == 0
    assert json.loads(out)["experiment"] == kind


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
    ],
)
def test_cli_out_of_range_value_exits_2(command, item, field, tmp_path, capsys):
    argv = [command, "--out", str(tmp_path / "o")]
    for one in ((item,) if isinstance(item, str) else item) + ("trials=2",):
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


def test_cli_numerical_failure_exits_1(tmp_path, capsys):
    # cleaning at eta 0.99 shrinks every singular value of a 2 x 64
    # observation to 0, and MRT cannot scale a zero matrix to P_total
    code, _, err = _run_cli(
        [
            "ber", "--out", str(tmp_path / "o"), "--precoder", "MRT",
            "--csi", "ei_cleaned_known_eta",
            "--set", "users=2", "--set", "antennas=64", "--set", "eta=0.99",
            "--set", "trials=1", "--set", "symbols_per_trial=10",
            "--set", "snr_db=5",
        ],
        capsys,
    )
    assert code == 1
    assert "numerical failure" in err
    assert "zero precoding matrix" in err


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
    args = parser.parse_args(["sweep", "--set", "eta=[0.1]"])
    assert args.command == "sweep"
    assert args.sets == ["eta=[0.1]"]
    args = parser.parse_args(["spectra", "--bins", "40"])
    assert args.bins == 40
