"""Experiment harness: declarative sweep specs, deterministic trial seeding,
long-format CSV results, aggregation, and plot-ready tables.

A run is: for every sweep value and trial, draw one channel realization
(shared verbatim by every algorithm in the trial, witnessed by a hash column),
design with each requested algorithm, evaluate under the true hardware model,
and append long-format rows. Scalar metrics use iteration -1; convergence
traces append one row per iteration under metric "objective". Wall-clock
times go to a separate timings table so the results file stays byte-identical
across reruns of the same spec and seed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .altqcp import SolverOptions, run_altqcp
from .baselines import BASELINE_MODES, DESIGNERS, run_baseline
from .channels import ChannelStats, draw_channels, perturb_csi
from .model import SystemConfig, evaluate_design, identity_weights
from .robust import run_cutting_set, worst_case_mse
from .util import ConfigError, DualSearchError, as_count, parse_level
from .wmmse import run_wmmse

RESULT_COLUMNS = ("trial", "sweep_param", "sweep_value", "algorithm",
                  "metric", "iteration", "value", "channel_hash")
TIMING_COLUMNS = ("trial", "sweep_param", "sweep_value", "algorithm", "seconds")

# designers whose own report is design-view, so the harness adds the true-model
# evaluation; the lambdas look the functions up when called, so a profiler
# that rebinds this module's names still sees every call
_DESIGNERS = {"altqcp": lambda *args: run_altqcp(*args),
              "wmmse": lambda *args: run_wmmse(*args),
              "cutting_set": lambda *args: run_cutting_set(*args)}

KNOWN_ALGORITHMS = tuple(_DESIGNERS) + BASELINE_MODES
# sweep parameter -> the config key its value sets; a *_db value is a dB level
SWEEP_PARAMS = {"kappa_db": "kappa", "zeta_db": "csi_radius", "sigma2_db": "noise_var",
                "pmax": "p_max", "K": "subcarriers", "M": "antennas"}

_CONFIG_KEYS = {"subcarriers", "antennas", "streams", "p_max", "noise_var",
                "kappa", "beta", "csi_radius", "rate_weights", "max_iters",
                "rel_tol", "tx_antennas", "rx_antennas"}
_LEVEL_CONFIG_KEYS = {"noise_var", "kappa", "beta", "csi_radius"}
_SOLVER_CONFIG_KEYS = ("max_iters", "rel_tol")    # routed to SolverOptions
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
        if not self.sweep_values:
            raise ConfigError("sweep needs at least one value")
        for alg in self.algorithms:
            if alg not in KNOWN_ALGORITHMS:
                raise ConfigError(
                    f"unknown algorithm {alg!r}; expected one of {KNOWN_ALGORITHMS}")
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


def _dispatch(algorithm, channels, config, options, designer):
    """Run one algorithm; return (design, design_report, eval_report, eval_channels)."""
    if algorithm in _DESIGNERS:
        design, rep = _DESIGNERS[algorithm](channels, config, options)
        return design, rep, evaluate_design(design, channels, config), channels
    design, rep = run_baseline(algorithm, channels, config, options,
                               designer=designer)
    return design, rep, rep, rep.extras.get("eval_channels", channels)


def run_trial(spec: ExperimentSpec, sweep_value: float, trial: int):
    """All result and timing rows for one (sweep value, trial) cell."""
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

    for algorithm in spec.algorithms:
        t0 = time.perf_counter()
        try:
            design, design_rep, eval_rep, eval_channels = _dispatch(
                algorithm, channels, config, options, spec.baseline_designer)
            if algorithm == "cutting_set":
                # certified by the cut loop, also with identity weights
                wc = design_rep.extras["worst_case"]
            else:
                wc = worst_case_mse(design, eval_channels, config,
                                    mse_weights=identity_weights(config))
        except (DualSearchError, np.linalg.LinAlgError, FloatingPointError) as err:
            raise type(err)(f"{spec.sweep_param}={float(sweep_value)} trial={trial} "
                            f"algorithm={algorithm} seed={spec.seed}: {err}") from err
        elapsed = time.perf_counter() - t0
        add(algorithm, "sum_mse", -1, eval_rep.sum_mse())
        add(algorithm, "wc_mse", -1, wc)
        add(algorithm, "sum_rate", -1,
            eval_rep.weighted_sum_rate(config.rate_weights))
        add(algorithm, "power_1", -1, eval_rep.power[0])
        add(algorithm, "power_2", -1, eval_rep.power[1])
        add(algorithm, "iterations", -1, design_rep.iterations)
        add(algorithm, "converged", -1, 1.0 if design_rep.converged else 0.0)
        for t, value in enumerate(design_rep.objective_trace):
            add(algorithm, "objective", t, value)
        timings.append({"trial": trial, "sweep_param": spec.sweep_param,
                        "sweep_value": float(sweep_value),
                        "algorithm": algorithm, "seconds": elapsed})
    return rows, timings


def _trial_task(args):
    spec, value, trial = args
    return run_trial(spec, value, trial)


def _pad_traces(rows):
    """Extend every objective trace to its (sweep value, algorithm) group's
    maximum length by repeating the final value, so per-iteration aggregates
    average over every trial."""
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
    rows.extend(padded)
    return rows


def _sort_rows(rows):
    rows.sort(key=lambda r: (r["sweep_value"], r["trial"], r["algorithm"],
                             r["metric"], r["iteration"]))
    return rows


def run_experiment(spec: ExperimentSpec, processes: int = 1):
    """Execute the whole sweep; returns (result_rows, timing_rows), both in
    canonical order. processes > 1 distributes (value, trial) cells over at
    most one worker per cell."""
    if processes < 1:
        raise ConfigError(f"need at least one worker process, got {processes}")
    tasks = [(spec, value, trial) for value in spec.sweep_values
             for trial in range(spec.n_trials)]
    workers = min(processes, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(_trial_task, tasks))
    else:
        cells = [_trial_task(task) for task in tasks]
    rows = [row for cell_rows, _ in cells for row in cell_rows]
    timings = [row for _, cell_timings in cells for row in cell_timings]
    _pad_traces(rows)
    _sort_rows(rows)
    timings.sort(key=lambda r: (r["sweep_value"], r["trial"], r["algorithm"]))
    return rows, timings


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def _format_cell(column, value):
    if column in ("trial", "iteration"):
        return str(int(value))
    if column in ("sweep_value", "value", "seconds"):
        return repr(float(value))
    return str(value)


def results_to_csv_text(rows, spec: ExperimentSpec) -> str:
    buf = io.StringIO()
    buf.write(f"# fdlink results spec={spec.spec_hash()} seed={spec.seed}\r\n")
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(RESULT_COLUMNS)
    for row in rows:
        writer.writerow([_format_cell(c, row[c]) for c in RESULT_COLUMNS])
    return buf.getvalue()


def write_results_csv(rows, path, spec: ExperimentSpec) -> None:
    with open(path, "w", newline="") as f:
        f.write(results_to_csv_text(rows, spec))


def write_timings_csv(timings, path, spec: ExperimentSpec) -> None:
    with open(path, "w", newline="") as f:
        f.write(f"# fdlink timings spec={spec.spec_hash()} seed={spec.seed}\r\n")
        writer = csv.writer(f, lineterminator="\r\n")
        writer.writerow(TIMING_COLUMNS)
        for row in timings:
            writer.writerow([_format_cell(c, row[c]) for c in TIMING_COLUMNS])


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
    mean / std (population) / count / min / max."""
    if not rows:
        raise ConfigError("no rows to summarize")
    by = tuple(by)
    for column in by:
        if column not in rows[0]:
            raise ConfigError(f"unknown group-by column {column!r}")
    groups = {}
    for row in rows:
        groups.setdefault(tuple(row[c] for c in by), []).append(row["value"])
    out = []
    for key in sorted(groups, key=lambda k: tuple(str(x) for x in k)):
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
    algorithm, iteration) with mean and min of the objective trace."""
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


def plot_table_to_csv_text(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([repr(x) if isinstance(x, float) else str(x) for x in row])
    return buf.getvalue()
