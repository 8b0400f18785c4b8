"""Experiment harness: declarative sweep specs, deterministic trial seeding,
long-format CSV results, aggregation, and plot-ready tables.

A run is: for every sweep value and trial, draw one channel realization
(shared verbatim by every algorithm in the trial, witnessed by a hash column),
design with each requested algorithm, evaluate under the true hardware model,
and append long-format rows. Scalar metrics use iteration -1; convergence
traces append one row per iteration that ran under metric "objective", so a
trace ends at its run's last iteration; summarize extends finished traces for
per-iteration aggregates. Wall-clock times go to a separate timings table so
the results file stays byte-identical across reruns of the same spec and seed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import inspect
import io
import json
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .altqcp import SolverOptions, fleet_key, run_altqcp_scenarios
from .baselines import BASELINE_MODES, DESIGNERS, design_problem, evaluate_run
from .channels import ChannelStats, draw_channels, perturb_csi
from .model import SystemConfig, identity_weights
from .robust import _worst_cases, run_cutting_set, worst_case_mse
from .util import _NUMERICAL_FAILURES, ConfigError, as_count, parse_level

RESULT_COLUMNS = ("trial", "sweep_param", "sweep_value", "algorithm",
                  "metric", "iteration", "value", "channel_hash")
TIMING_COLUMNS = ("trial", "sweep_param", "sweep_value", "algorithm", "seconds")

KNOWN_ALGORITHMS = DESIGNERS + ("cutting_set",) + BASELINE_MODES
# sweep parameter -> the config key its value sets; a *_db value is a dB level
SWEEP_PARAMS = {"kappa_db": "kappa", "zeta_db": "csi_radius", "sigma2_db": "noise_var",
                "pmax": "p_max", "K": "subcarriers", "M": "antennas"}

_SOLVER_CONFIG_KEYS = tuple(f.name for f in fields(SolverOptions))  # routed to SolverOptions
_CONFIG_KEYS = {*inspect.signature(SystemConfig.from_scalars).parameters,
                *_SOLVER_CONFIG_KEYS, "csi_radius"}
_LEVEL_CONFIG_KEYS = {"noise_var", "kappa", "beta", "csi_radius"}
_CHANNEL_KEYS = {"rho", "rho_si", "k_rician"}
_SPEC_KEYS = {"config", "channel", "sweep", "algorithms", "n_trials", "seed",
              "output", "baseline_designer"}


@contextlib.contextmanager
def _spec_values():
    """Report a spec value that fails to convert or to build as a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError) as err:
        raise ConfigError(f"malformed spec value: {err}") from err


def _leaves(value, key=""):
    """(dotted key, value) of every non-container value in a spec payload."""
    if isinstance(value, dict):
        for name, item in value.items():
            yield from _leaves(item, f"{key}.{name}" if key else str(name))
    elif isinstance(value, (list, tuple)):
        for n, item in enumerate(value):
            yield from _leaves(item, f"{key}[{n}]")
    else:
        yield key, value


@dataclass(frozen=True)
class ExperimentSpec:
    """Validated, hashable description of one experiment."""
    config: dict = field(default_factory=dict)
    channel: dict = field(default_factory=dict)
    sweep_param: str = "kappa_db"
    sweep_values: tuple = (-30.0,)
    algorithms: tuple = ("altqcp",)
    n_trials: int = 1
    seed: int = 0
    output: str = "results"
    baseline_designer: str = "altqcp"

    def __post_init__(self):
        # JSON true/false would pass as the numbers 1/0; checked before any
        # value is converted
        for key, value in _leaves(self._payload()):
            if isinstance(value, (bool, np.bool_)):
                raise ConfigError(f"spec key {key} takes no boolean, got {value!r}")
        unknown = set(self.config) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        unknown = set(self.channel) - _CHANNEL_KEYS
        if unknown:
            raise ConfigError(f"unknown channel keys: {sorted(unknown)}")
        if self.sweep_param not in SWEEP_PARAMS:
            raise ConfigError(
                f"unknown sweep param {self.sweep_param!r}; "
                f"expected one of {tuple(SWEEP_PARAMS)}")
        if self.sweep_param == "M" and {"tx_antennas", "rx_antennas"} & set(self.config):
            raise ConfigError("an M sweep sets antennas, which tx_antennas/rx_antennas override")
        if {"antennas", "tx_antennas", "rx_antennas"} <= set(self.config):
            raise ConfigError("antennas sizes nothing when tx_antennas and rx_antennas are set")
        if not self.sweep_values:
            raise ConfigError("sweep needs at least one value")
        if not self.algorithms:
            raise ConfigError("a spec needs at least one algorithm")
        for n, alg in enumerate(self.algorithms):
            if alg not in KNOWN_ALGORITHMS:
                raise ConfigError(
                    f"unknown algorithm {alg!r}; expected one of {KNOWN_ALGORITHMS}")
            if alg in self.algorithms[:n]:
                raise ConfigError(f"algorithm {alg!r} appears more than once")
        if self.baseline_designer not in DESIGNERS:
            raise ConfigError(f"baseline_designer must be one of {DESIGNERS}")
        with _spec_values():
            # level entries take linear numbers or strings with a dB suffix
            object.__setattr__(self, "config", {
                key: parse_level(value) if key in _LEVEL_CONFIG_KEYS else value
                for key, value in self.config.items()})
            object.__setattr__(self, "channel", {
                key: parse_level(value) if key in ("rho", "rho_si") else float(value)
                for key, value in self.channel.items()})
            object.__setattr__(self, "output", str(self.output))
            for name in ("n_trials", "seed"):
                object.__setattr__(self, name, as_count(getattr(self, name), name))
            if self.n_trials < 1:
                raise ConfigError("n_trials must be at least 1")
            if self.seed < 0:
                raise ConfigError("seed must be nonnegative")
            object.__setattr__(self, "sweep_values",
                               tuple(float(v) for v in self.sweep_values))
            for n, value in enumerate(self.sweep_values):
                if value in self.sweep_values[:n]:
                    raise ConfigError(f"sweep value {value!r} appears more than once")
            object.__setattr__(self, "algorithms", tuple(self.algorithms))
            # build what every cell builds, so a bad value stops the spec
            # here, before any output exists or any worker starts
            for value in self.sweep_values:
                self.config_for(value), self.channel_stats(value)
            self.solver_options()

    @classmethod
    def from_json(cls, source) -> "ExperimentSpec":
        """Build from a JSON string or an already-decoded dict. Level-valued
        entries (noise_var, kappa, beta, csi_radius, rho, rho_si) accept
        either linear numbers or strings with a dB suffix."""
        if isinstance(source, str):
            try:
                data = json.loads(source)
            except json.JSONDecodeError as err:
                raise ConfigError(f"spec is not valid JSON: {err}") from err
        else:
            data = dict(source)
        if not isinstance(data, dict):
            raise ConfigError("spec must be a JSON object")
        unknown = set(data) - _SPEC_KEYS
        if unknown:
            raise ConfigError(f"unknown spec keys: {sorted(unknown)}")
        sweep = data.get("sweep", {})
        if not isinstance(sweep, dict) or "param" not in sweep or "values" not in sweep:
            raise ConfigError('spec needs "sweep": {"param": ..., "values": [...]}')
        algorithms = data.get("algorithms", ["altqcp"])
        if not isinstance(sweep["values"], list) or not isinstance(algorithms, list):
            raise ConfigError('"sweep" "values" and "algorithms" must be lists')
        with _spec_values():
            return cls(config=dict(data.get("config", {})),
                       channel=dict(data.get("channel", {})),
                       sweep_param=str(sweep["param"]),
                       sweep_values=sweep["values"], algorithms=algorithms,
                       n_trials=data.get("n_trials", 1), seed=data.get("seed", 0),
                       output=data.get("output", "results"),
                       baseline_designer=str(data.get("baseline_designer", "altqcp")))

    def _payload(self) -> dict:
        """The spec in its JSON layout."""
        return {"config": self.config, "channel": self.channel,
                "sweep": {"param": self.sweep_param, "values": self.sweep_values},
                "algorithms": self.algorithms, "n_trials": self.n_trials,
                "seed": self.seed, "output": self.output,
                "baseline_designer": self.baseline_designer}

    def canonical_json(self) -> str:
        return json.dumps(self._payload(), sort_keys=True, separators=(",", ":"))

    def spec_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:12]

    def solver_options(self) -> SolverOptions:
        return SolverOptions(**{key: self.config[key] for key in _SOLVER_CONFIG_KEYS
                                if key in self.config})

    def _swept_config(self, sweep_value) -> dict:
        """The config section with the sweep value written into the key its
        parameter sets (a kappa sweep moves beta too, unless beta is pinned)."""
        value = float(sweep_value)
        if self.sweep_param.endswith("_db"):
            value = 10.0 ** (value / 10.0)
        return {**self.config, SWEEP_PARAMS[self.sweep_param]: value}

    def config_for(self, sweep_value: float) -> SystemConfig:
        return SystemConfig.from_scalars(**{
            key: value for key, value in self._swept_config(sweep_value).items()
            if key not in _SOLVER_CONFIG_KEYS and key != "csi_radius"})

    def channel_stats(self, sweep_value: float = None) -> ChannelStats:
        """The channel section plus the CSI error radius: the config key
        csi_radius, which a zeta_db sweep value sets."""
        config = self.config if sweep_value is None else self._swept_config(sweep_value)
        params = dict(self.channel)
        if "csi_radius" in config:
            params["csi_radius"] = config["csi_radius"]
        return ChannelStats(**params)


def run_trial(spec: ExperimentSpec, sweep_value: float, trial: int):
    """All result and timing rows for one (sweep value, trial) cell.

    Every algorithm but the cutting set is one driver problem
    (baselines.design_problem); the problems that share an altqcp.fleet_key
    are designed in one driver call and certified in one oracle pass, each
    charged an equal share of both; a failed call's designs are made or
    certified alone in spec order, so a failure names the algorithm a run of
    each alone would name first. baselines.evaluate_run finishes every run."""
    config = spec.config_for(sweep_value)
    true_channels = draw_channels(config, spec.channel_stats(sweep_value),
                                  [spec.seed, 11, trial])
    _, channels = perturb_csi(true_channels, config, [spec.seed, 23, trial],
                              mode="interior")
    chash = channels.hash_hex()
    options = spec.solver_options()
    rows, timings = [], []

    def add(algorithm, metric, iteration, value):
        rows.append({"trial": trial, "sweep_param": spec.sweep_param,
                     "sweep_value": float(sweep_value), "algorithm": algorithm,
                     "metric": metric, "iteration": iteration,
                     "value": float(value), "channel_hash": chash})

    problems = {alg: design_problem(alg, channels, config, spec.baseline_designer)
                for alg in spec.algorithms if alg != "cutting_set"}
    fleets, runs = {}, {}
    for alg, (problem, _) in problems.items():
        fleets.setdefault(fleet_key(problem), []).append(alg)
    for members in fleets.values():
        t0 = time.perf_counter()
        try:
            designs, reports = run_altqcp_scenarios([problems[alg][0] for alg in members],
                                                    options)
        except _NUMERICAL_FAILURES:
            continue                  # its members are designed alone below
        share = (time.perf_counter() - t0) / len(members)
        runs.update((alg, (d, r, share)) for alg, d, r in zip(members, designs, reports))
    certified, weights, t0 = {}, identity_weights(config), time.perf_counter()
    with contextlib.suppress(*_NUMERICAL_FAILURES):     # then each is certified alone below
        if runs:
            values = _worst_cases([d for d, _, _ in runs.values()],
                                  [problems[alg][1] for alg in runs], config, [weights] * len(runs))
            share = (time.perf_counter() - t0) / len(runs)
            for (alg, (d, r, s)), (value, _) in zip(list(runs.items()), values):
                runs[alg], certified[alg] = (d, r, s + share), value

    for algorithm in spec.algorithms:
        t0 = time.perf_counter()
        (problem, world), share = problems.get(algorithm, (None, channels)), 0.0
        try:
            if algorithm == "cutting_set":
                # altqcp's design, when the cell runs it, is the cut loop's first
                reuse = [runs["altqcp"][:2]] if "altqcp" in runs else []
                design, run_rep = run_cutting_set(channels, config, options, *reuse)
            elif algorithm in runs:
                design, run_rep, share = runs[algorithm]
            else:
                (design,), (run_rep,) = run_altqcp_scenarios([problem], options)
            design, report = evaluate_run(algorithm, design, run_rep, world, config)
            # the cut loop certified its design, also with identity weights
            wc = (certified[algorithm] if algorithm in certified else run_rep.extras["worst_case"]
                  if algorithm == "cutting_set" else worst_case_mse(design, world, config, weights))
        except _NUMERICAL_FAILURES as err:
            raise type(err)(f"{spec.sweep_param}={float(sweep_value)} trial={trial} "
                            f"algorithm={algorithm} seed={spec.seed}: {err}") from err
        elapsed = time.perf_counter() - t0 + share
        add(algorithm, "sum_mse", -1, report.sum_mse())
        add(algorithm, "wc_mse", -1, wc)
        add(algorithm, "sum_rate", -1, report.weighted_sum_rate(config.rate_weights))
        add(algorithm, "power_1", -1, report.power[0])
        add(algorithm, "power_2", -1, report.power[1])
        add(algorithm, "iterations", -1, report.iterations)
        add(algorithm, "converged", -1, 1.0 if report.converged else 0.0)
        for t, value in enumerate(report.objective_trace):
            add(algorithm, "objective", t, value)
        timings.append({"trial": trial, "sweep_param": spec.sweep_param,
                        "sweep_value": float(sweep_value),
                        "algorithm": algorithm, "seconds": elapsed})
    return rows, timings


def _sort_rows(rows):
    rows.sort(key=lambda r: (r["sweep_value"], r["trial"], r["algorithm"],
                             r["metric"], r["iteration"]))
    return rows


def run_experiment(spec: ExperimentSpec, processes: int = 1):
    """Execute the whole sweep; returns (result_rows, timing_rows), both in
    canonical order: the result rows are run_trial's rows, sorted. processes
    > 1 distributes (value, trial) cells over at most one worker per cell."""
    if processes < 1:
        raise ConfigError(f"need at least one worker process, got {processes}")
    values = [value for value in spec.sweep_values for _ in range(spec.n_trials)]
    trials = list(range(spec.n_trials)) * len(spec.sweep_values)
    columns = ([spec] * len(values), values, trials)   # run_trial's arguments
    workers = min(processes, len(values))
    if workers > 1:
        # imported here, so that importing fdlink does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(run_trial, *columns))
    else:
        cells = list(map(run_trial, *columns))
    rows = _sort_rows([row for cell_rows, _ in cells for row in cell_rows])
    timings = [row for _, cell_timings in cells for row in cell_timings]
    timings.sort(key=lambda r: (r["sweep_value"], r["trial"], r["algorithm"]))
    return rows, timings


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def _csv_text(columns, rows, comment=None) -> str:
    """CSV text, CRLF line ends: an optional '# ' comment, the header and the
    rows; floats (numpy's too) as repr(float(x)), everything else as str."""
    buf = io.StringIO()
    if comment is not None:
        buf.write(f"# {comment}\r\n")
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(columns)
    writer.writerows([repr(float(x)) if isinstance(x, float) else str(x) for x in row]
                     for row in rows)
    return buf.getvalue()


def _spec_csv_text(kind, columns, rows, spec: ExperimentSpec) -> str:
    return _csv_text(columns, ([row[c] for c in columns] for row in rows),
                     f"fdlink {kind} spec={spec.spec_hash()} seed={spec.seed}")


def results_to_csv_text(rows, spec: ExperimentSpec) -> str:
    return _spec_csv_text("results", RESULT_COLUMNS, rows, spec)


def write_results_csv(rows, path, spec: ExperimentSpec) -> None:
    with open(path, "w", newline="") as f:
        f.write(results_to_csv_text(rows, spec))


def write_timings_csv(timings, path, spec: ExperimentSpec) -> None:
    with open(path, "w", newline="") as f:
        f.write(_spec_csv_text("timings", TIMING_COLUMNS, timings, spec))


def read_results_csv(path):
    rows = []
    with open(path, newline="") as f:
        header = None
        reader = csv.reader(f)
        for record in reader:
            if not record or record[0].startswith("#"):
                continue
            if header is None:
                header = record
                missing = set(RESULT_COLUMNS) - set(header)
                if missing:
                    raise ConfigError(f"results file missing columns: {sorted(missing)}")
                continue
            where = f"{path}, line {reader.line_num}"
            if len(record) != len(header):
                raise ConfigError(f"{where}: {len(record)} fields, header has {len(header)}")
            row = dict(zip(header, record))
            try:
                row["trial"] = int(row["trial"])
                row["iteration"] = int(row["iteration"])
                row["sweep_value"] = float(row["sweep_value"])
                row["value"] = float(row["value"])
            except ValueError as err:
                raise ConfigError(f"{where}: {err}") from err
            rows.append(row)
    if header is None:
        raise ConfigError("results file has no header row")
    return rows


# ---------------------------------------------------------------------------
# aggregation and plot tables
# ---------------------------------------------------------------------------

def summarize(rows, by=("sweep_param", "sweep_value", "algorithm", "metric",
                        "iteration")):
    """Group rows by the named columns and aggregate the value column into
    mean / std (population) / count / min / max, one entry per group in the
    order of the group's column values (numbers as numbers).

    Grouped by iteration, a finished objective trace first counts as holding
    its final value up to the longest trace of its (sweep value, algorithm)
    group, so every per-iteration aggregate counts every trial; other groupings
    count only the iterations that ran. Rows already extended this way (an
    older results file) aggregate the same. The caller's rows are unchanged."""
    if not rows:
        raise ConfigError("no rows to summarize")
    by = tuple(by)
    for column in by:
        if column not in rows[0]:
            raise ConfigError(f"unknown group-by column {column!r}")
    # each trace's last row and each group's longest trace; traces run
    # contiguously from iteration 0
    last, longest = {}, {}
    for row in rows:
        if row["metric"] == "objective" and "iteration" in by:
            group = (row["sweep_value"], row["algorithm"])
            trace = (group, row["trial"])
            last[trace] = max(last.get(trace, row), row, key=lambda r: r["iteration"])
            longest[group] = max(longest.get(group, 0), row["iteration"] + 1)
    filler = [dict(row, iteration=t) for (group, _), row in last.items()
              for t in range(row["iteration"] + 1, longest[group])]
    # numpy sums a group in row order: the canonical order keeps every bit
    rows = _sort_rows(list(rows) + filler)
    groups = {}
    for row in rows:
        groups.setdefault(tuple(row[c] for c in by), []).append(row["value"])
    out = []
    for key in sorted(groups):           # by value: each column holds one type
        values = np.asarray(groups[key], dtype=float)
        entry = dict(zip(by, key))
        entry.update(mean=float(values.mean()), std=float(values.std()),
                     count=int(values.size), min=float(values.min()),
                     max=float(values.max()))
        out.append(entry)
    return out


_SWEEP_FIGURES = {
    "wcmse_vs_kappa": ("wc_mse", "kappa_db"),
    "wcmse_vs_zeta": ("wc_mse", "zeta_db"),
    "wcmse_vs_noise": ("wc_mse", "sigma2_db"),
    "sr_vs_kappa": ("sum_rate", "kappa_db"),
    "sr_vs_noise": ("sum_rate", "sigma2_db"),
    "sr_vs_power": ("sum_rate", "pmax"),
}

FIGURES = ("convergence",) + tuple(_SWEEP_FIGURES)


def emit_plot_data(aggregates, figure: str):
    """Turn summarize(...) output into one plot-ready table: (columns, rows).

    Sweep figures give one row per (sweep value, algorithm) with mean/std/count
    of the named metric; "convergence" gives one row per (sweep value,
    algorithm, iteration) with mean and min of the objective trace over every
    trial, a trace that finished earlier holding its final value (summarize's
    rule)."""
    if figure == "convergence":
        picked = [a for a in aggregates if a.get("metric") == "objective"]
        if not picked:
            raise ConfigError("aggregates hold no objective-trace rows")
        columns = ("sweep_param", "sweep_value", "algorithm", "iteration",
                   "objective_mean", "objective_min")
        rows = [(a["sweep_param"], a["sweep_value"], a["algorithm"],
                 a["iteration"], a["mean"], a["min"]) for a in picked]
        rows.sort(key=lambda r: (r[1], r[2], r[3]))
        return columns, rows
    if figure not in _SWEEP_FIGURES:
        raise ConfigError(f"unknown figure {figure!r}; expected one of {FIGURES}")
    metric, param = _SWEEP_FIGURES[figure]
    picked = [a for a in aggregates if a.get("metric") == metric]
    if not picked:
        raise ConfigError(f"aggregates hold no rows for metric {metric!r}")
    wrong = {a["sweep_param"] for a in picked} - {param}
    if wrong:
        raise ConfigError(
            f"figure {figure!r} needs a {param} sweep, aggregates hold {sorted(wrong)}")
    columns = (param, "algorithm", f"{metric}_mean", f"{metric}_std", "trials")
    rows = [(a["sweep_value"], a["algorithm"], a["mean"], a["std"], a["count"])
            for a in picked]
    rows.sort(key=lambda r: (r[0], r[1]))
    return columns, rows
