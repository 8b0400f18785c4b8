"""Experiment harness: spec parsing, sweep plumbing, CSV round trips,
byte-level determinism, aggregation, plot tables, and the CLI surface."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from fdlink import (ChannelStats, ConfigError, SystemConfig, distortion,
                    worst_case_mse)
from fdlink.cli import main
from fdlink.harness import (KNOWN_ALGORITHMS, RESULT_COLUMNS, ExperimentSpec, _sort_rows,
                            emit_plot_data, read_results_csv, results_to_csv_text,
                            run_experiment, run_trial, summarize, write_results_csv)
from fdlink.model import PAIRS, identity_weights
from fdlink.util import as_count

TINY_SPEC = {
    "config": {"subcarriers": 2, "antennas": 2, "streams": 1,
               "noise_var": "-30 dB", "max_iters": 15},
    "sweep": {"param": "kappa_db", "values": [-40.0, -20.0]},
    "algorithms": ["altqcp", "kappa0"],
    "n_trials": 2,
    "seed": 7,
}


MALFORMED_SPECS = {
    "negative_radius": dict(TINY_SPEC, config=dict(TINY_SPEC["config"], csi_radius=-1)),
    "n_trials": dict(TINY_SPEC, n_trials="x"),
    "sweep_value": dict(TINY_SPEC, sweep={"param": "kappa_db", "values": ["a"]}),
    "rho": dict(TINY_SPEC, channel={"rho": "x dB"}),
    "antennas": dict(TINY_SPEC, config=dict(TINY_SPEC["config"], antennas="two")),
    "rel_tol": dict(TINY_SPEC, config=dict(TINY_SPEC["config"], rel_tol="1e-3")),
    "subcarriers": dict(TINY_SPEC, config=dict(TINY_SPEC["config"], subcarriers=0)),
    "K_sweep": dict(TINY_SPEC, sweep={"param": "K", "values": [2, 0]}),
    "fractional_n_trials": dict(TINY_SPEC, n_trials=1.5),
    "infinite_n_trials": dict(TINY_SPEC, n_trials=float("inf")),
    "fractional_seed": dict(TINY_SPEC, seed=7.5),
    "fractional_K_sweep": dict(TINY_SPEC, sweep={"param": "K", "values": [2, 2.5]}),
    "fractional_M_sweep": dict(TINY_SPEC, sweep={"param": "M", "values": [1.5]}),
    "fractional_subcarriers": dict(TINY_SPEC, config=dict(TINY_SPEC["config"], subcarriers=2.5)),
    "fractional_antennas": dict(TINY_SPEC, config=dict(TINY_SPEC["config"], antennas=2.5)),
    "fractional_streams": dict(TINY_SPEC, config=dict(TINY_SPEC["config"], streams=1.5)),
    "algorithms": dict(TINY_SPEC, algorithms="altqcp"),
    "nan_noise": dict(TINY_SPEC, config=dict(TINY_SPEC["config"], noise_var=float("nan"))),
    "infinite_beta": dict(TINY_SPEC, config=dict(TINY_SPEC["config"], beta=float("inf"))),
    "infinite_p_max": dict(TINY_SPEC, config=dict(TINY_SPEC["config"], p_max=float("inf"))),
    "nan_rate_weight": dict(TINY_SPEC, config=dict(TINY_SPEC["config"],
                                                   rate_weights=[float("nan"), 1])),
    "nan_radius": dict(TINY_SPEC, config=dict(TINY_SPEC["config"], csi_radius=float("nan"))),
    "nan_rho": dict(TINY_SPEC, channel={"rho": float("nan")}),
    "infinite_k_rician": dict(TINY_SPEC, channel={"k_rician": float("inf")}),
    "nan_kappa": dict(TINY_SPEC, config=dict(TINY_SPEC["config"], kappa=float("nan")),
                      sweep={"param": "pmax", "values": [1.0]}),
    "bool_max_iters": dict(TINY_SPEC, config=dict(TINY_SPEC["config"], max_iters=True)),
    "bool_rel_tol": dict(TINY_SPEC, config=dict(TINY_SPEC["config"], rel_tol=False)),
    "bool_subcarriers": dict(TINY_SPEC, config=dict(TINY_SPEC["config"], subcarriers=True)),
    "bool_n_trials": dict(TINY_SPEC, n_trials=True),
    "bool_seed": dict(TINY_SPEC, seed=False),
    "bool_sweep_value": dict(TINY_SPEC, sweep={"param": "kappa_db", "values": [True]}),
    "duplicate_sweep_value": dict(TINY_SPEC, sweep={"param": "kappa_db",
                                                    "values": [-30, -30.0]}),
    "no_algorithms": dict(TINY_SPEC, algorithms=[]),
    "duplicate_algorithm": dict(TINY_SPEC, algorithms=["altqcp", "kappa0", "altqcp"]),
    "M_sweep_per_direction_antennas": dict(
        TINY_SPEC, config=dict(TINY_SPEC["config"], tx_antennas=[2, 3], rx_antennas=[3, 2]),
        sweep={"param": "M", "values": [2, 4]}),
    "antennas_with_both_directions": dict(
        TINY_SPEC, config=dict(TINY_SPEC["config"], tx_antennas=[2, 3], rx_antennas=[3, 2])),
}


@pytest.fixture(scope="module")
def tiny_rows():
    # 30 iterations, not 15: every run stops at 15, while at 30 runs stop
    # after 15 to 22, so a group's traces differ in length
    spec = ExperimentSpec.from_json(json.dumps(
        dict(TINY_SPEC, config=dict(TINY_SPEC["config"], max_iters=30))))
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
    # values that fail to convert or to build a cell's config, channel
    # statistics or solver options, and a name string where a list belongs
    for bad in MALFORMED_SPECS.values():
        with pytest.raises(ConfigError):
            ExperimentSpec.from_json(bad)
    # the config itself holds the whole-number rule for its counts
    with pytest.raises(ConfigError):
        dataclasses.replace(SystemConfig.from_scalars(), streams=(1.5, 1))
    # JSON true/false would pass as the numbers 1/0, a repeated sweep value
    # or algorithm would run its cells twice and no algorithm none: the error
    # names the key or the value, and library callers meet the same rules
    with pytest.raises(ConfigError, match=r"config\.max_iters"):
        ExperimentSpec.from_json(MALFORMED_SPECS["bool_max_iters"])
    with pytest.raises(ConfigError, match=r"sweep\.values\[0\]"):
        ExperimentSpec.from_json(MALFORMED_SPECS["bool_sweep_value"])
    with pytest.raises(ConfigError, match="-30.0"):
        ExperimentSpec.from_json(MALFORMED_SPECS["duplicate_sweep_value"])
    with pytest.raises(ConfigError, match="'altqcp' appears more than once"):
        ExperimentSpec.from_json(MALFORMED_SPECS["duplicate_algorithm"])
    with pytest.raises(ConfigError, match="at least one algorithm"):
        ExperimentSpec.from_json(MALFORMED_SPECS["no_algorithms"])
    for bad in ({"n_trials": True}, {"seed": False}, {"sweep_values": (1, 1.0)},
                {"sweep_values": (True,)}, {"config": {"kappa": True}},
                {"config": {"p_max": True}}, {"config": {"rate_weights": [True, 1.0]}},
                {"channel": {"rho": True}}):
        with pytest.raises(ConfigError):
            ExperimentSpec(**bad)
    with pytest.raises(ConfigError):
        as_count(np.True_, "subcarriers")


SWEEP_BASE = {"config": {"subcarriers": 2, "antennas": 2, "streams": 1, "p_max": 1.0,
                         "noise_var": 1e-3, "kappa": 1e-3, "csi_radius": 0.05,
                         "max_iters": 5},
              "channel": {"rho": 0.02}}


@pytest.mark.parametrize("param, key, value, level", [
    ("kappa_db", "kappa", -25.0, 10.0 ** -2.5),
    ("zeta_db", "csi_radius", -20.0, 10.0 ** -2.0),
    ("sigma2_db", "noise_var", -40.0, 10.0 ** -4.0),
    ("pmax", "p_max", 2.0, 2.0),
    ("K", "subcarriers", 3.0, 3.0),
    ("M", "antennas", 3.0, 3.0),
])
def test_sweep_value_sets_its_config_key(param, key, value, level):
    # a cell's config and channel statistics are the base spec's with the
    # one key the sweep parameter names set to the value (a *_db value as a
    # dB level)
    spec = ExperimentSpec(**SWEEP_BASE, sweep_param=param, sweep_values=(value,))
    cfg = {k: v for k, v in SWEEP_BASE["config"].items()
           if k not in ("csi_radius", "max_iters")}
    radius = SWEEP_BASE["config"]["csi_radius"]
    if key == "csi_radius":
        radius = level
    else:
        cfg[key] = level
    want = SystemConfig.from_scalars(**cfg)
    got = spec.config_for(value)
    for f in dataclasses.fields(SystemConfig):
        assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name
    assert spec.channel_stats(value) == ChannelStats(rho=0.02, csi_radius=radius)
    assert spec.channel_stats() == ChannelStats(rho=0.02, csi_radius=0.05)


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
    # scalar metrics carry iteration -1; a trace holds the iterations that
    # ran, 0 through its run's iteration count, and nothing more
    scalars = [r for r in rows if r["metric"] == "sum_rate"]
    assert all(r["iteration"] == -1 for r in scalars)
    iterations = {(r["sweep_value"], r["trial"], r["algorithm"]): r["value"]
                  for r in rows if r["metric"] == "iterations"}
    traces = {}
    for r in rows:
        if r["metric"] == "objective":
            key = (r["sweep_value"], r["trial"], r["algorithm"])
            traces.setdefault(key, []).append(r["iteration"])
    assert traces.keys() == iterations.keys()
    for key, steps in traces.items():
        assert steps == list(range(int(iterations[key]) + 1)), key
    # the rows are run_trial's rows in canonical order
    cells = [row for value in spec.sweep_values for trial in range(spec.n_trials)
             for row in run_trial(spec, value, trial)[0]]
    assert rows == _sort_rows(cells)
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
    spec = ExperimentSpec.from_json(dict(
        TINY_SPEC, algorithms=["altqcp", "wmmse", "cutting_set", "kappa0", "pth_low"]))
    serial, _ = run_experiment(spec, processes=1)
    pooled, _ = run_experiment(spec, processes=2)
    assert results_to_csv_text(pooled, spec) == results_to_csv_text(serial, spec)


def _python(*args):
    """Runs a fresh interpreter that imports fdlink from this checkout."""
    import fdlink
    src = os.path.dirname(os.path.dirname(os.path.abspath(fdlink.__file__)))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=120)


def test_import_leaves_multiprocessing_unloaded():
    # only a run with more than one worker process loads the process pool
    proc = _python("-c", "import sys, fdlink, fdlink.cli; "
                   "print(sorted(m for m in sys.modules if m.startswith("
                   "('multiprocessing', 'concurrent.futures.process'))))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.fixture
def fake_pool(monkeypatch):
    """Replaces the process pool that run_experiment imports with one that
    records its max_workers and runs the cells in this process; returns the
    record."""
    import concurrent.futures
    made = []

    class FakePool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *columns):
            return map(fn, *columns)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return made


def test_jobs_capped_at_cell_count(tmp_path, fake_pool):
    # two (value, trial) cells never start more than two workers
    spec = dict(TINY_SPEC, n_trials=1, algorithms=["altqcp"])
    serial, _ = run_experiment(ExperimentSpec.from_json(spec))
    pooled, _ = run_experiment(ExperimentSpec.from_json(spec), processes=5000)
    assert fake_pool == [2]
    assert pooled == serial
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "out"),
                 "--jobs", "5000"]) == 0
    assert fake_pool == [2, 2]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exits_2(tmp_path, fake_pool, jobs):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(dict(TINY_SPEC, n_trials=1)))
    assert main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "out"),
                 "--jobs", jobs]) == 2
    assert fake_pool == []
    assert not os.path.exists(tmp_path / "out")


def test_zeta_sweep_sets_the_radius_of_every_error_set(monkeypatch):
    # the sweep value, not the config key, sets the radius the designers see
    import fdlink.harness as harness
    spec = ExperimentSpec.from_json(dict(
        TINY_SPEC, config=dict(TINY_SPEC["config"], csi_radius=0.5),
        sweep={"param": "zeta_db", "values": [-20.0, -10.0]},
        algorithms=["altqcp", "kappa0"], n_trials=1))
    seen = []
    build = harness.design_problem

    def design_problem(algorithm, channels, *args):
        seen.append(channels)
        return build(algorithm, channels, *args)

    monkeypatch.setattr(harness, "design_problem", design_problem)
    for value in spec.sweep_values:
        del seen[:]
        harness.run_trial(spec, value, 0)
        assert len(seen) == 2
        for channels in seen:
            for pair in PAIRS:
                radii = channels.csi_radius[pair]
                assert radii.shape == (spec.config["subcarriers"],)
                assert np.all(radii == 10.0 ** (value / 10.0))


def test_cell_makes_one_fleet_call(monkeypatch):
    # an eight-algorithm K=4 cell: one driver call for altqcp, hd, kappa0,
    # sc and the pth_* pair, one for wmmse, and one per cut after the
    # first, which is altqcp's design
    from fdlink import altqcp, baselines, harness, robust, wmmse
    spec = ExperimentSpec.from_json(dict(
        TINY_SPEC, config=dict(TINY_SPEC["config"], subcarriers=4),
        algorithms=list(KNOWN_ALGORITHMS)))
    fleets, cuts = [], []
    driver, cutting_set = altqcp.run_altqcp_scenarios, harness.run_cutting_set

    def counted(problems, *args, **kwargs):
        fleets.append(len(problems))
        return driver(problems, *args, **kwargs)

    def recorded(*args):
        design, report = cutting_set(*args)
        cuts.append(len(report.extras["cuts"]))
        return design, report

    for module in (altqcp, baselines, harness, robust, wmmse):
        monkeypatch.setattr(module, "run_altqcp_scenarios", counted)
    monkeypatch.setattr(harness, "run_cutting_set", recorded)
    harness.run_trial(spec, spec.sweep_values[0], 0)
    assert sorted(fleets[:2]) == [1, 6]
    assert fleets[2:] == [1] * (cuts[0] - 1)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_failing_fleet_names_the_first_failing_algorithm(tmp_path, capsys, jobs):
    # without noise, the weight block of a distortion-blind design (kappa0,
    # pth_*) meets an all-zero covariance in its rate and raises, and so does
    # the one wmmse-designer fleet holding them; its members are then rerun
    # one at a time, so the message names the algorithm a run of each alone,
    # in spec order, names first
    from fdlink import DualSearchError
    from fdlink.altqcp import fleet_key, run_altqcp_scenarios
    from fdlink.baselines import design_problem, evaluate_run
    from fdlink.channels import draw_channels, perturb_csi
    spec = {"config": {"subcarriers": 4, "antennas": 2, "streams": 1, "noise_var": 0},
            "sweep": {"param": "pmax", "values": [1.0]},
            "algorithms": ["wmmse", "hd", "kappa0", "pth_high"],
            "n_trials": 2, "seed": 7, "baseline_designer": "wmmse"}
    parsed = ExperimentSpec.from_json(spec)
    config, options = parsed.config_for(1.0), parsed.solver_options()
    true = draw_channels(config, parsed.channel_stats(1.0), [7, 11, 0])
    _, channels = perturb_csi(true, config, [7, 23, 0], mode="interior")
    problems = {alg: design_problem(alg, channels, config, "wmmse")
                for alg in parsed.algorithms}
    assert len({fleet_key(problem) for problem, _ in problems.values()}) == 1
    with pytest.raises(np.linalg.LinAlgError):
        run_altqcp_scenarios([problem for problem, _ in problems.values()], options)
    failed = []
    for alg, (problem, world) in problems.items():
        try:
            (design,), (run_rep,) = run_altqcp_scenarios([problem], options)
            evaluate_run(alg, design, run_rep, world, config)
        except (DualSearchError, np.linalg.LinAlgError):
            failed.append(alg)
    assert failed[0] == "kappa0"
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "out"),
                 "--jobs", jobs]) == 3
    assert f"trial=0 algorithm={failed[0]} " in capsys.readouterr().err


def _assert_rejected_before_output(tmp_path, capsys, spec, jobs="1"):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "out"),
                 "--jobs", jobs]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not os.path.exists(tmp_path / "out")


def test_blind_designs_return_without_noise():
    # noise_var 0 on the default link: the distortion-blind designs see an
    # all-zero design-view covariance, which their design runs never invert;
    # their rows come from the true model, whose distortion keeps it regular
    spec = ExperimentSpec.from_json(
        {"config": {"subcarriers": 4, "antennas": 2, "streams": 1, "noise_var": 0},
         "sweep": {"param": "pmax", "values": [1.0]},
         "algorithms": ["kappa0", "pth_high", "pth_low"], "n_trials": 2, "seed": 7})
    for trial in range(spec.n_trials):
        rows, _ = run_trial(spec, 1.0, trial)
        assert {row["algorithm"] for row in rows} == set(spec.algorithms)
        assert all(np.isfinite(row["value"]) for row in rows)


def test_negative_csi_radius_exits_2(tmp_path, capsys):
    _assert_rejected_before_output(tmp_path, capsys,
                                   MALFORMED_SPECS["negative_radius"], jobs="2")


def test_output_path_that_is_a_file_exits_2(tmp_path, capsys, monkeypatch):
    import fdlink.harness as harness
    spec_path, out = tmp_path / "spec.json", tmp_path / "out"
    spec_path.write_text(json.dumps(dict(TINY_SPEC, n_trials=1)))
    out.write_text("")
    calls = []
    inner = harness.run_trial
    monkeypatch.setattr(harness, "run_trial",
                        lambda *args: calls.append(args) or inner(*args))
    # the file itself, or a path below it; either is checked before the
    # sweep, so no cell runs
    for path in (out, out / "sub"):
        assert main(["run", "--spec", str(spec_path), "--out", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")
    assert calls == []


@pytest.mark.parametrize("case", sorted(set(MALFORMED_SPECS) - {"negative_radius"}))
def test_malformed_spec_exits_2(tmp_path, capsys, case):
    # caught while the spec is read: exit 2, a one-line error, no output
    _assert_rejected_before_output(tmp_path, capsys, MALFORMED_SPECS[case])


def test_cutting_set_row_reuses_certified_worst_case(monkeypatch):
    # the cut loop already certified the selected design with identity
    # weights, so the harness runs no oracle pass of its own for it
    import fdlink.harness as harness
    import fdlink.robust as robust
    spec = ExperimentSpec.from_json(dict(TINY_SPEC, algorithms=["cutting_set"]))
    passes, runs = [], []
    oracle, designer = robust._worst_cases, harness.run_cutting_set

    def counted(*args, **kwargs):
        passes.append(1)
        return oracle(*args, **kwargs)

    def recorded(channels, config, options):
        design, report = designer(channels, config, options)
        runs.append((design, report, channels, config))
        return design, report

    monkeypatch.setattr(robust, "_worst_cases", counted)
    monkeypatch.setattr(harness, "run_cutting_set", recorded)
    rows, _ = harness.run_trial(spec, spec.sweep_values[0], 0)
    (design, report, channels, config), = runs
    assert len(passes) == len(report.extras["cuts"])
    wc_row, = [r["value"] for r in rows if r["metric"] == "wc_mse"]
    assert wc_row == worst_case_mse(design, channels, config,
                                    identity_weights(config))


def test_cell_makes_one_oracle_pass(monkeypatch):
    # every design but the cut loop's is certified by one stacked build and
    # one stacked solve of the forms with a positive radius: the full-duplex
    # designs' four pairs and hd's two direct ones, K rows each; each cut
    # makes one more pass
    import fdlink.robust as robust
    spec = ExperimentSpec.from_json(dict(
        TINY_SPEC, algorithms=["altqcp", "wmmse", "cutting_set", "hd", "kappa0"]))
    calls = []
    for kernel in ("build_quadratic_form", "worst_case_error"):
        def counted(*args, _kernel=getattr(robust, kernel), _name=kernel):
            calls.append((_name, len(args[2])))
            return _kernel(*args)
        monkeypatch.setattr(robust, kernel, counted)
    monkeypatch.setattr(robust, "MAX_CUTS", 2)
    rows, _ = run_trial(spec, spec.sweep_values[0], 0)
    k = spec.config["subcarriers"]
    cut = [("build_quadratic_form", len(PAIRS)), ("worst_case_error", len(PAIRS) * k)]
    cell = [("build_quadratic_form", 3 * len(PAIRS) + 2),
            ("worst_case_error", (3 * len(PAIRS) + 2) * k)]
    assert calls == cell + cut * 2
    assert len([r for r in rows if r["metric"] == "wc_mse"]) == 5


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_failing_oracle_pass_names_the_first_failing_algorithm(tmp_path, capsys,
                                                               monkeypatch, jobs):
    # the solve fails on every stack but one full-duplex design's own 4 K
    # forms (worker processes fork, so they inherit the patch): the cell's
    # stacked pass fails, each design's pass then runs alone in spec order,
    # and hd's, with only its two direct pairs, is the first to fail
    import concurrent.futures
    import functools
    import multiprocessing

    import fdlink.robust as robust
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", functools.partial(
        concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))
    solve = robust.worst_case_error

    def failing(maps, offsets, radii):
        if len(radii) != len(PAIRS) * TINY_SPEC["config"]["subcarriers"]:
            raise np.linalg.LinAlgError("forced")
        return solve(maps, offsets, radii)

    monkeypatch.setattr(robust, "worst_case_error", failing)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(dict(TINY_SPEC, algorithms=["altqcp", "kappa0", "hd",
                                                                "sc"])))
    assert main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "out"),
                 "--jobs", jobs]) == 3
    assert "kappa_db=-40.0 trial=0 algorithm=hd seed=7: forced" in capsys.readouterr().err


def test_failed_oracle_pass_certifies_each_design_alone(monkeypatch):
    # when the cell's stacked pass fails, each design's pass alone gives the
    # same rows, bit for bit
    import fdlink.harness as harness
    spec = ExperimentSpec.from_json(dict(
        TINY_SPEC, algorithms=["altqcp", "wmmse", "cutting_set", "hd", "kappa0"]))
    stacked, _ = run_trial(spec, spec.sweep_values[0], 0)

    def failing(*args):
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(harness, "_worst_cases", failing)
    alone, _ = run_trial(spec, spec.sweep_values[0], 0)
    assert alone == stacked


def _padded(rows):
    """Reference padding, as results files held it before traces stopped at
    their last iteration: every objective trace extended to its (sweep value,
    algorithm) group's longest by repeating its final value; a new list, in
    canonical order."""
    traces = {}
    for row in rows:
        if row["metric"] != "objective":
            continue
        key = (row["sweep_value"], row["algorithm"], row["trial"])
        traces.setdefault(key, []).append(row)
    group_max = {}
    for (value, alg, _trial), items in traces.items():
        group_max[(value, alg)] = max(group_max.get((value, alg), 0), len(items))
    padded = []
    for (value, alg, trial), items in traces.items():
        items.sort(key=lambda r: r["iteration"])
        last = items[-1]
        for t in range(len(items), group_max[(value, alg)]):
            filler = dict(last)
            filler["iteration"] = t
            padded.append(filler)
    return _sort_rows(list(rows) + padded)


def test_summarize_matches_manual_stats(tiny_rows):
    spec, rows, _ = tiny_rows
    del spec
    groups = summarize(rows)
    assert groups
    padded = _padded(rows)
    for g in groups:
        matching = [r["value"] for r in padded
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


def test_summarize_extends_finished_traces():
    # trial 0 stops after one iteration, trial 1 after three: trial 0's
    # final value stands in at iterations 2 and 3
    base = {"sweep_param": "kappa_db", "sweep_value": -40.0, "algorithm": "altqcp",
            "metric": "objective", "channel_hash": "h"}
    rows = [dict(base, trial=trial, iteration=t, value=v)
            for trial, trace in ((0, [3.0, 2.0]), (1, [5.0, 4.0, 3.0, 1.0]))
            for t, v in enumerate(trace)]
    kept = [dict(r) for r in rows]
    means = {g["iteration"]: (g["mean"], g["count"]) for g in summarize(rows)}
    assert means == {0: (4.0, 2), 1: (3.0, 2), 2: (2.5, 2), 3: (1.5, 2)}
    # grouped without iteration, only the six iterations that ran count
    (total,) = summarize(rows, by=("algorithm", "metric"))
    assert (total["count"], total["mean"]) == (6, 3.0)
    assert rows == kept                    # the caller's rows are unchanged


def test_summarize_orders_groups_by_value():
    # numbers sort as numbers: iteration 2 before 10, and -60 dB before -20 dB
    base = {"sweep_param": "kappa_db", "algorithm": "altqcp", "metric": "objective",
            "channel_hash": "h", "trial": 0, "value": 1.0}
    rows = [dict(base, sweep_value=kappa, iteration=t)
            for kappa in (-20.0, -60.0) for t in range(11)]
    keys = [(g["sweep_value"], g["iteration"]) for g in summarize(rows)]
    assert keys == [(kappa, t) for kappa in (-60.0, -20.0) for t in range(11)]


def test_summarize_of_padded_rows_is_unchanged(tiny_rows):
    # rows padded the way older results files hold them aggregate to the
    # same bits, and so do rows in any order
    _, rows, _ = tiny_rows
    padded = _padded(rows)
    assert len(padded) > len(rows), "the spec should have traces to extend"
    expected = summarize(rows)
    assert summarize(padded) == expected
    assert summarize(rows[::-1]) == expected


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


MALFORMED_RESULTS = {      # one row after a valid header
    "bad_trial": "abc,kappa_db,-40.0,altqcp,objective,0,1.0,h",
    "short_row": "0,kappa_db,-40.0,altqcp",
    "long_row": "0,kappa_db,-40.0,altqcp,objective,0,1.0,h,extra",
}


@pytest.mark.parametrize("case", MALFORMED_RESULTS)
@pytest.mark.parametrize("command", ["summarize", "plotdata"])
def test_malformed_results_file_exits_2(tmp_path, capsys, command, case):
    # a row that does not convert or does not match the header is named by
    # file and line, not a traceback
    results = tmp_path / "results.csv"
    results.write_text(",".join(RESULT_COLUMNS) + "\n" + MALFORMED_RESULTS[case] + "\n")
    args = [command, "--results", str(results)]
    if command == "plotdata":
        args += ["--figure", "convergence"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{results}, line 2" in err


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


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_numerical_failure_names_the_cell(tmp_path, capsys, jobs):
    # no noise, ideal hardware and perfect CSI: the receiver step meets a
    # singular covariance; the message alone must say which cell to replay.
    # Two cells, so that --jobs 2 runs them in two worker processes.
    spec = {"config": {"subcarriers": 2, "antennas": 2, "streams": 1,
                       "noise_var": 0, "kappa": 0, "csi_radius": 0},
            "sweep": {"param": "pmax", "values": [1.0, 2.0]},
            "algorithms": ["altqcp"], "n_trials": 1, "seed": 3}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "out"),
                 "--jobs", jobs]) == 3
    err = capsys.readouterr().err
    for name in ("pmax=1.0", "trial=0", "algorithm=altqcp", "seed=3"):
        assert name in err


def test_single_antenna_threshold_spec_exits_0(tmp_path):
    # K = 1 and one antenna: the power budget and the cap bound the same
    # |v|^2, so only one of the capped step's two multipliers is determined
    spec = {"config": {"subcarriers": 1, "antennas": 1, "streams": 1, "noise_var": "-30 dB"},
            "sweep": {"param": "kappa_db", "values": [-60, -40, -20]},
            "algorithms": ["pth_high", "pth_low"], "n_trials": 5, "seed": 7}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "out")]) == 0


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


def test_module_entry_point_runs_cli():
    proc = _python("-m", "fdlink", "validate-model", "--blocks", "0")
    assert proc.returncode == 2
    assert "n_blocks must be at least 1" in proc.stderr


def test_cli_validate_model_rejects_negative_seed(capsys):
    # as run --seed -1 does: exit 2 with a one-line error, not a traceback
    assert main(["validate-model", "--seed", "-1", "--blocks", "200"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cli_validate_model_rejects_empty_and_nan(monkeypatch):
    assert main(["validate-model", "--blocks", "0"]) == 2
    assert main(["validate-model", "--blocks", "-5"]) == 2
    # a NaN covariance mismatch is a failed check, not a passing 0.0
    real = distortion.simulate_blocks

    def nan_covariance(*args, **kwargs):
        stats = real(*args, **kwargs)
        stats.nu_cov[1] = np.full_like(stats.nu_cov[1], np.nan)
        return stats

    monkeypatch.setattr(distortion, "simulate_blocks", nan_covariance)
    assert main(["validate-model", "--blocks", "200"]) == 3
