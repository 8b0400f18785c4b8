"""Experiment harness: spec parsing, sweep plumbing, CSV round trips,
byte-level determinism, aggregation, plot tables, and the CLI surface."""

import json
import os

import numpy as np
import pytest

from fdlink import ConfigError
from fdlink.cli import main
from fdlink.harness import (KNOWN_ALGORITHMS, RESULT_COLUMNS, ExperimentSpec,
                            emit_plot_data, read_results_csv, results_to_csv_text,
                            run_experiment, summarize, write_results_csv)

TINY_SPEC = {
    "config": {"subcarriers": 2, "antennas": 2, "streams": 1,
               "noise_var": "-30 dB", "max_iters": 15},
    "sweep": {"param": "kappa_db", "values": [-40.0, -20.0]},
    "algorithms": ["altqcp", "kappa0"],
    "n_trials": 2,
    "seed": 7,
}


@pytest.fixture(scope="module")
def tiny_rows():
    spec = ExperimentSpec.from_json(json.dumps(TINY_SPEC))
    rows, timings = run_experiment(spec)
    return spec, rows, timings


def test_spec_from_json_parses_levels():
    spec = ExperimentSpec.from_json(json.dumps(TINY_SPEC))
    assert spec.config["noise_var"] == pytest.approx(1e-3)
    assert spec.sweep_param == "kappa_db"
    assert spec.sweep_values == (-40.0, -20.0)
    assert spec.algorithms == ("altqcp", "kappa0")
    # accepts an already-parsed dict too
    again = ExperimentSpec.from_json(TINY_SPEC)
    assert again == spec


def test_spec_rejects_garbage():
    bad = dict(TINY_SPEC, algorithms=["altqcp", "magic"])
    with pytest.raises(ConfigError):
        ExperimentSpec.from_json(bad)
    bad = dict(TINY_SPEC, sweep={"param": "bandwidth", "values": [1]})
    with pytest.raises(ConfigError):
        ExperimentSpec.from_json(bad)
    bad = dict(TINY_SPEC, n_trials=0)
    with pytest.raises(ConfigError):
        ExperimentSpec.from_json(bad)
    bad = dict(TINY_SPEC, frobnicate=True)
    with pytest.raises(ConfigError):
        ExperimentSpec.from_json(bad)


def test_spec_hash_ignores_key_order():
    a = ExperimentSpec.from_json(TINY_SPEC)
    shuffled = {k: TINY_SPEC[k] for k in reversed(list(TINY_SPEC))}
    b = ExperimentSpec.from_json(shuffled)
    assert a.spec_hash() == b.spec_hash()
    c = ExperimentSpec.from_json(dict(TINY_SPEC, seed=8))
    assert a.spec_hash() != c.spec_hash()


def test_rows_schema_and_grouping(tiny_rows):
    spec, rows, timings = tiny_rows
    assert rows, "experiment produced no rows"
    for row in rows:
        assert tuple(row.keys()) == RESULT_COLUMNS
        assert row["algorithm"] in KNOWN_ALGORITHMS
        assert row["sweep_param"] == "kappa_db"
    # the channel draw depends on the trial, not on the swept impairment or
    # the algorithm: hashes must agree across both
    by_trial = {}
    for row in rows:
        by_trial.setdefault(row["trial"], set()).add(row["channel_hash"])
    for trial, hashes in by_trial.items():
        assert len(hashes) == 1, f"trial {trial} saw several channels"
    assert len(set(r["channel_hash"] for r in rows)) == spec.n_trials
    # scalar metrics carry iteration -1; traces are padded per group
    scalars = [r for r in rows if r["metric"] == "sum_rate"]
    assert all(r["iteration"] == -1 for r in scalars)
    lengths = {}
    for r in rows:
        if r["metric"] == "objective":
            key = (r["sweep_value"], r["algorithm"], r["trial"])
            lengths[key] = max(lengths.get(key, 0), r["iteration"])
    for (v, a, t), n in lengths.items():
        peers = [m for (vv, aa, _), m in lengths.items()
                 if vv == v and aa == a]
        assert len(set(peers)) == 1
    assert timings and all(t["seconds"] > 0 for t in timings)


def test_csv_round_trip_and_determinism(tiny_rows, tmp_path):
    spec, rows, _ = tiny_rows
    text = results_to_csv_text(rows, spec)
    assert text.startswith("# fdlink results")
    assert "\r\n" in text
    path = tmp_path / "results.csv"
    write_results_csv(rows, str(path), spec)
    back = read_results_csv(str(path))
    assert back == rows
    # a fresh run of the same spec is byte-identical
    rows2, _ = run_experiment(spec)
    assert results_to_csv_text(rows2, spec) == text


def test_worker_processes_do_not_change_results():
    # cells farmed out to worker processes give the same bytes as a serial run
    spec = ExperimentSpec.from_json(
        dict(TINY_SPEC, algorithms=["altqcp", "wmmse", "kappa0", "pth_low"]))
    serial, _ = run_experiment(spec, processes=1)
    pooled, _ = run_experiment(spec, processes=2)
    assert results_to_csv_text(pooled, spec) == results_to_csv_text(serial, spec)


def test_summarize_matches_manual_stats(tiny_rows):
    spec, rows, _ = tiny_rows
    del spec
    groups = summarize(rows)
    assert groups
    for g in groups:
        matching = [r["value"] for r in rows
                    if r["sweep_param"] == g["sweep_param"]
                    and r["sweep_value"] == g["sweep_value"]
                    and r["algorithm"] == g["algorithm"]
                    and r["metric"] == g["metric"]
                    and r["iteration"] == g["iteration"]]
        assert g["count"] == len(matching)
        assert g["mean"] == pytest.approx(np.mean(matching), abs=1e-12)
        assert g["std"] == pytest.approx(np.std(matching), abs=1e-12)
        assert g["min"] == pytest.approx(np.min(matching))
        assert g["max"] == pytest.approx(np.max(matching))
    with pytest.raises(ConfigError):
        summarize([])
    with pytest.raises(ConfigError):
        summarize(rows, by=("flavor",))


def test_plot_tables(tiny_rows):
    spec, rows, _ = tiny_rows
    aggregates = summarize(rows)
    cols, table = emit_plot_data(aggregates, "wcmse_vs_kappa")
    assert "kappa_db" in cols and "wc_mse_mean" in cols
    # one row per (sweep value, algorithm)
    assert len(table) == len(spec.sweep_values) * len(spec.algorithms)
    cols, table = emit_plot_data(aggregates, "convergence")
    assert "iteration" in cols and "objective_mean" in cols
    assert len(table) > 0
    with pytest.raises(ConfigError):
        emit_plot_data(aggregates, "sr_vs_power")   # wrong sweep param
    with pytest.raises(ConfigError):
        emit_plot_data(aggregates, "picasso")


def test_cli_run_summarize_plotdata(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(dict(TINY_SPEC, n_trials=1)))
    out_dir = str(tmp_path / "out")
    assert main(["run", "--spec", str(spec_path), "--out", out_dir]) == 0
    results = os.path.join(out_dir, "results.csv")
    assert os.path.exists(results)
    assert os.path.exists(os.path.join(out_dir, "timings.csv"))
    summary_path = str(tmp_path / "summary.csv")
    assert main(["summarize", "--results", results,
                 "--out", summary_path]) == 0
    assert os.path.exists(summary_path)
    plot_path = str(tmp_path / "plot.csv")
    assert main(["plotdata", "--results", results,
                 "--figure", "convergence", "--out", plot_path]) == 0
    assert os.path.exists(plot_path)


def test_cli_error_paths(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["run", "--spec", missing]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(TINY_SPEC, algorithms=["magic"])))
    assert main(["run", "--spec", str(bad)]) == 2
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(dict(TINY_SPEC, n_trials=1)))
    out_dir = str(tmp_path / "out")
    assert main(["run", "--spec", str(spec_path), "--out", out_dir]) == 0
    assert main(["plotdata", "--results",
                 os.path.join(out_dir, "results.csv"),
                 "--figure", "picasso"]) == 2


def test_cli_out_env_override(tmp_path, monkeypatch):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(dict(TINY_SPEC, n_trials=1)))
    env_dir = str(tmp_path / "from_env")
    monkeypatch.setenv("FDLINK_OUT", env_dir)
    assert main(["run", "--spec", str(spec_path)]) == 0
    assert os.path.exists(os.path.join(env_dir, "results.csv"))


def test_cli_seed_override_changes_hashes(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(dict(TINY_SPEC, n_trials=1)))
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    assert main(["run", "--spec", str(spec_path), "--out", a]) == 0
    assert main(["run", "--spec", str(spec_path), "--seed", "99",
                 "--out", b]) == 0
    rows_a = read_results_csv(os.path.join(a, "results.csv"))
    rows_b = read_results_csv(os.path.join(b, "results.csv"))
    assert rows_a[0]["channel_hash"] != rows_b[0]["channel_hash"]


def test_cli_validate_model_smoke():
    assert main(["validate-model", "--blocks", "4000", "--seed", "3"]) == 0
