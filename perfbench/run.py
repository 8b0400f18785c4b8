#!/usr/bin/env python3
"""Seeded closed-loop benchmark of fdlink's public functions.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_k4_full --seed 1 --seconds 30 --trace 0

One caller runs one operation at a time (a sweep cell through
``harness.run_trial``, or one ``distortion.simulate_blocks`` call) until
--seconds of operations have run, checks every output, and prints as its
last line one JSON object with the keys correct, attempted, failed and
metrics. --trace 0 reports the end-to-end metrics. --trace 1 runs half the
time untraced, re-runs the same operations with spans around the calls into
each fdlink module, and reports the per-layer metrics. Workloads, metrics and
the layer map are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7          # set-ups per untraced run; setup_s is their median
DIGEST_CELLS = 6           # operations covered by the output digest
N_TRIALS = 1_000_000       # trials are drawn lazily, cell by cell
ACCOUNTING_TOL = 0.01      # span self times vs externally timed operations

WORKLOADS = {
    "sweep_k4_full": {
        "kind": "sweep",
        "spec": {"config": {"subcarriers": 4, "antennas": 2, "streams": 1,
                            "noise_var": "-30 dB"},
                 "sweep": {"param": "kappa_db", "values": [-60, -40, -20]},
                 "algorithms": ["altqcp", "wmmse", "cutting_set", "hd",
                                "kappa0", "sc", "pth_high", "pth_low"]},
        "tiny": {"subcarriers": 2},
    },
    "sweep_k64_nominal": {
        "kind": "sweep",
        "spec": {"config": {"subcarriers": 64, "antennas": 4, "streams": 2,
                            "noise_var": "-30 dB"},
                 "sweep": {"param": "kappa_db", "values": [-40, -20]},
                 "algorithms": ["altqcp", "wmmse", "kappa0"]},
        "tiny": {"subcarriers": 4, "antennas": 2, "streams": 1},
    },
    "simulate_k64": {
        "kind": "simulate",
        "spec": {"config": {"subcarriers": 64, "antennas": 4, "streams": 2,
                            "noise_var": "-30 dB", "csi_radius": 0.0},
                 "sweep": {"param": "kappa_db", "values": [-20]},
                 "algorithms": ["altqcp"]},
        "tiny": {"subcarriers": 4, "antennas": 2, "streams": 1},
        "blocks": 2000,
        "tiny_blocks": 200,
    },
}

# (defining module, function, span name, calling modules or None for all)
LAYER_SPANS = (
    ("harness", "run_trial", "harness.run_trial", None),
    ("channels", "draw_channels", "channels.draw", None),
    ("channels", "perturb_csi", "channels.draw", None),
    ("model", "covariance_stacks", "model.covariance", None),
    ("model", "evaluate_design", "model.evaluate", None),
    ("altqcp", "run_altqcp", "altqcp.run", None),
    ("wmmse", "run_wmmse", "wmmse.run", None),
    ("robust", "run_cutting_set", "robust.cutting_set", None),
    ("altqcp", "run_altqcp_scenarios", "robust.inner_design", ("robust",)),
    ("robust", "worst_case_mse", "robust.oracle", None),
    ("robust", "build_quadratic_form", "robust.form", None),
    ("robust", "worst_case_error", "robust.solve", None),
    ("baselines", "run_baseline", "baselines.run", None),
    ("distortion", "simulate_blocks", "distortion.simulate", None),
)

# step costs timed once per traced cell on the final design of that cell's
# altqcp or wmmse run: (metric, module, function, design -> leading args)
STEP_PROBES = (
    ("altqcp.receiver_step_s", "altqcp", "update_receivers",
     lambda d: (d.precoders,)),
    ("altqcp.precoder_step_s", "altqcp", "update_precoders",
     lambda d: (d.decoders, d.mse_weights)),
    ("wmmse.update_weights_s", "wmmse", "update_weights", lambda d: (d,)),
    ("wmmse.surrogate_s", "wmmse", "surrogate_objective", lambda d: (d,)),
)

# per-layer metric -> span whose wrapped functions it needs
LAYER_METRICS = {
    "model.covariance_calls": "model.covariance",
    "model.covariance_s": "model.covariance",
    "model.evaluate_calls": "model.evaluate",
    "model.evaluate_s": "model.evaluate",
    "channels.draw_s": "channels.draw",
    "altqcp.run_s": "altqcp.run",
    "altqcp.iters": "altqcp.run",
    "altqcp.s_per_iter": "altqcp.run",
    "altqcp.receiver_step_s": "altqcp.run",
    "altqcp.precoder_step_s": "altqcp.run",
    "wmmse.run_s": "wmmse.run",
    "wmmse.iters": "wmmse.run",
    "wmmse.s_per_iter": "wmmse.run",
    "wmmse.update_weights_s": "wmmse.run",
    "wmmse.surrogate_s": "wmmse.run",
    "robust.cutting_set_s": "robust.cutting_set",
    "robust.cuts": "robust.cutting_set",
    "robust.certified_ratio": "robust.cutting_set",
    "robust.inner_iters": "robust.inner_design",
    "robust.oracle_calls": "robust.oracle",
    "robust.oracle_s": "robust.oracle",
    "robust.forms_built": "robust.form",
    "robust.form_s": "robust.form",
    "robust.solve_s": "robust.solve",
    "robust.hard_case_ratio": "robust.solve",
    "baselines.run_s": "baselines.run",
    "baselines.iters": "baselines.run",
    "distortion.simulate_s": "distortion.simulate",
    "distortion.blocks": "distortion.simulate",
    "distortion.blocks_per_s": "distortion.simulate",
    "harness.self_s": "harness.run_trial",
    "trace.overhead_ratio": None,
    "trace.cell_s": None,
}


def layer_unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith("s_per_iter"):
        return "s"
    return "count"


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def pin_blas() -> None:
    """One BLAS thread: the benchmark is a single closed-loop caller."""
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS


def import_fdlink():
    """Import fdlink from this checkout's src/, never from site-packages."""
    if not (SRC / "fdlink" / "__init__.py").is_file():
        raise SystemExit(f"error: fdlink sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import fdlink
    if Path(fdlink.__file__).resolve().parent != (SRC / "fdlink").resolve():
        raise SystemExit(f"error: imported fdlink from {fdlink.__file__}, "
                         f"not from {SRC}")
    return fdlink


def workload_spec(name: str, seed: int, tiny: bool) -> dict:
    spec = json.loads(json.dumps(WORKLOADS[name]["spec"]))
    spec["seed"] = seed
    spec["n_trials"] = N_TRIALS
    if tiny:
        spec["config"].update(WORKLOADS[name]["tiny"])
    return spec


class SweepWorkload:
    """Cells of a kappa sweep, interleaved over the sweep values; cell i is
    (values[i % n], trial i) through harness.run_trial. run_trial draws the
    channels from the trial alone, so giving every cell its own trial makes
    every cell an independent channel draw."""

    op_name = "cell"

    def __init__(self, fdlink, name, seed, tiny):
        self.harness = fdlink.harness
        self.spec = self.harness.ExperimentSpec.from_json(
            workload_spec(name, seed, tiny))
        values = self.spec.sweep_values
        self.p_max = {v: self.spec.config_for(v).p_max for v in values}
        # the first cell's inputs, drawn the way run_trial draws them
        config = self.spec.config_for(values[0])
        true = fdlink.channels.draw_channels(config, self.spec.channel_stats(),
                                             [seed, 11, 0])
        _, est = fdlink.channels.perturb_csi(true, config, [seed, 23, 0],
                                             mode="interior")
        # warm-up: a short solve and an evaluation at the workload's shape
        design, _ = fdlink.altqcp.run_altqcp(
            est, config, fdlink.altqcp.SolverOptions(max_iters=2))
        fdlink.model.evaluate_design(design, est, config)
        self.blocks_per_op = 0

    def cell(self, index):
        values = self.spec.sweep_values
        return values[index % len(values)], index

    def run(self, index):
        value, trial = self.cell(index)
        return self.harness.run_trial(self.spec, value, trial)

    def check(self, index, output):
        rows, _ = output
        value, _ = self.cell(index)
        return checks.sweep_violations(rows, self.spec.algorithms,
                                       self.p_max[value])

    @staticmethod
    def corrupt(output):
        rows, _ = output
        for row in rows:
            if row["metric"] == "wc_mse":
                row["value"] = -1.0
                return

    @staticmethod
    def run_violations():
        return []

    def digest(self, outputs) -> str:
        rows = [row for rows, _ in outputs for row in rows]
        text = self.harness.results_to_csv_text(rows, self.spec)
        return hashlib.sha256(text.encode()).hexdigest()


class SimulateWorkload:
    """simulate_blocks calls on one fixed altqcp design with perfect CSI;
    operation i simulates blocks_per_op blocks from seed [seed, 29, i]."""

    op_name = "simulate_blocks call"

    def __init__(self, fdlink, name, seed, tiny):
        self.distortion = fdlink.distortion
        spec = fdlink.harness.ExperimentSpec.from_json(
            workload_spec(name, seed, tiny))
        self.seed = seed
        self.blocks_per_op = WORKLOADS[name]["tiny_blocks" if tiny else "blocks"]
        self.config = spec.config_for(spec.sweep_values[0])
        self.channels = fdlink.channels.draw_channels(
            self.config, spec.channel_stats(), [seed, 11, 0])
        self.design, _ = fdlink.altqcp.run_altqcp(self.channels, self.config)
        self.predicted = [
            [fdlink.model.aggregate_covariance(self.design, self.channels,
                                               self.config, i, k)
             for k in range(self.config.subcarriers)] for i in (0, 1)]
        self.bounds = [[checks.covariance_gap_bound(cov, self.blocks_per_op)
                        for cov in per_k] for per_k in self.predicted]
        self.worst_gap = 0.0
        self.pooled_gap = 0.0
        self.pooled = {}         # operation index -> nu_cov, distinct operations
        # warm-up: a few blocks through the whole simulator
        self.distortion.simulate_blocks(self.design, self.channels,
                                        self.config, 16, [seed, 31])

    def run(self, index):
        return self.distortion.simulate_blocks(
            self.design, self.channels, self.config, self.blocks_per_op,
            [self.seed, 29, index])

    def check(self, index, stats):
        violations, worst = checks.simulation_violations(
            stats, self.predicted, self.bounds, self.blocks_per_op)
        self.worst_gap = max(self.worst_gap, worst)
        self.pooled.setdefault(index, stats.nu_cov)
        return violations

    def run_violations(self):
        """The residual covariance pooled over the run's distinct operations,
        against the bound for that many blocks: a model error far below the
        per-operation bound still shows here."""
        if not self.pooled:
            return []
        n_ops = len(self.pooled)
        pooled = [sum(nu_cov[i] for nu_cov in self.pooled.values()) / n_ops
                  for i in range(len(self.predicted))]
        bounds = [[checks.covariance_gap_bound(cov, n_ops * self.blocks_per_op)
                   for cov in per_k] for per_k in self.predicted]
        violations, self.pooled_gap = checks.covariance_violations(
            pooled, self.predicted, bounds)
        return [f"pooled over {n_ops} operations: {v}" for v in violations]

    @staticmethod
    def corrupt(stats):
        stats.nu_cov[0] = 2.0 * stats.nu_cov[0]

    @staticmethod
    def digest(outputs) -> str:
        h = hashlib.sha256()
        for stats in outputs:
            for cov in stats.nu_cov:
                h.update(cov.tobytes())
        return h.hexdigest()


def set_up(name: str, seed: int, tiny: bool):
    """Import fdlink, validate the spec, draw the first inputs and warm up
    (for simulate_k64, design the link too). Returns (fdlink, workload, s)."""
    t0 = time.perf_counter()
    fdlink = import_fdlink()
    kind = WORKLOADS[name]["kind"]
    cls = SweepWorkload if kind == "sweep" else SimulateWorkload
    workload = cls(fdlink, name, seed, tiny)
    return fdlink, workload, time.perf_counter() - t0


def setup_in_child(args) -> float:
    """One more set-up in a fresh interpreter, timed the same way."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                          cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up in a child process failed:\n"
                         f"{proc.stderr[-2000:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

def run_ops(workload, failures, seconds=None, indices=None, tracer=None,
            corrupt_first=False, after_op=None):
    """Run operations back to back, either until `seconds` have passed (at
    least one operation) or over `indices`. after_op(seconds since the
    start) runs between operations, outside their timing. Returns (records,
    outputs): one {"index", "seconds", "failure"} record per operation, and
    the first DIGEST_CELLS outputs."""
    records, outputs = [], []
    start = time.perf_counter()
    n = 0
    while True:
        if indices is None:
            if records and time.perf_counter() - start >= seconds:
                break
            index = n
        else:
            if n >= len(indices):
                break
            index = indices[n]
        n += 1
        output, failure = None, None
        if tracer is not None:
            tracer.cell = index
            root = tracer.open("cell")
            tracer.active = True
        t0 = time.perf_counter()
        try:
            output = workload.run(index)
        except failures as err:
            failure = f"{type(err).__name__}: {err}"
        finally:
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
                tracer.close(root)
        if output is not None:
            if corrupt_first and len(records) == 0:
                workload.corrupt(output)
            violations = workload.check(index, output)
            if violations:
                failure = "; ".join(violations[:3])
            if len(outputs) < DIGEST_CELLS:
                outputs.append(output)
        records.append({"index": index, "seconds": elapsed, "failure": failure})
        if after_op is not None:
            after_op(time.perf_counter() - start)
    return records, outputs


def tail_latency(samples):
    """Highest percentile with at least ten samples above it: the 11th
    largest sample, at percentile 100 (n - 10) / n. With 20 samples or
    fewer that would lie at or below the median, so the tail is the
    maximum, at percentile 100."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, records, setup_samples):
    """Every end-to-end figure; the JSON line carries the declared ones."""
    passed = [r["seconds"] for r in records if not r["failure"]]
    timed = passed or [r["seconds"] for r in records]
    busy = sum(r["seconds"] for r in records)
    tail, pct = tail_latency(timed)
    figures = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "cells_per_s": (len(passed) / busy, "1/s"),
        "cell_s_p50": (statistics.median(timed), "s"),
        "cell_s_tail": (tail, "s"),
        "failed_ratio": ((len(records) - len(passed)) / len(records), "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    if workload.blocks_per_op:
        figures["sim_blocks_per_s"] = (len(passed) * workload.blocks_per_op
                                       / busy, "1/s")
    notes = {"cell_s_tail": f"p{pct:.1f} of {len(timed)} {workload.op_name}s",
             "setup_s": "median of " + ", ".join(f"{s:.4f}" for s in setup_samples),
             "failed_ratio": f"{len(records) - len(passed)}/{len(records)}"}
    return figures, notes


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------

def traced_run(fdlink, workload, failures, args):
    """Half the time untraced, then the same operations traced. Returns
    (records, outputs, figures, notes, tracer)."""
    plain, outputs = run_ops(workload, failures, seconds=args.seconds / 2.0,
                             corrupt_first=args.corrupt_first_op)
    tracer = Tracer()
    finals = {}
    probes = {name: [] for name, *_ in STEP_PROBES}

    def count_runs(key, keep_final=False):
        def hook(result, call_args, call_kwargs):
            tracer.count(f"{key}.runs")
            tracer.count(f"{key}.iters", getattr(result[1], "iterations", 0))
            if keep_final and len(call_args) >= 2:
                finals[key] = (result[0], call_args[0], call_args[1])
        return hook

    def on_cutting_set(result, call_args, call_kwargs):
        extras = getattr(result[1], "extras", {})
        tracer.count("robust.cutting_set.runs")
        tracer.count("robust.cuts", len(extras.get("cuts", ())))
        tracer.count("robust.certified", bool(extras.get("robust_converged")))

    def on_inner(result, call_args, call_kwargs):
        tracer.count("robust.inner_iters", getattr(result[1], "iterations", 0))

    def on_solve(result, call_args, call_kwargs):
        tracer.count("robust.hard_cases", bool(getattr(result, "hard_case", False)))

    def on_simulate(result, call_args, call_kwargs):
        tracer.count("distortion.blocks", getattr(result, "n_blocks", 0))

    hooks = {"altqcp.run": count_runs("altqcp", keep_final=True),
             "wmmse.run": count_runs("wmmse", keep_final=True),
             "baselines.run": count_runs("baselines"),
             "robust.cutting_set": on_cutting_set, "robust.inner_design": on_inner,
             "robust.solve": on_solve, "distortion.simulate": on_simulate}
    missing = set()
    for module, attr, span, callers in LAYER_SPANS:
        if not tracer.wrap(module, attr, span, callers, hooks.get(span)):
            missing.add(span)
    step_fns = {metric: getattr(getattr(fdlink, module, None), attr, None)
                for metric, module, attr, _ in STEP_PROBES}
    missing.update(metric for metric, fn in step_fns.items() if fn is None)

    def time_steps(_):
        for metric, module, _, pick in STEP_PROBES:
            fn = step_fns[metric]
            if module not in finals or fn is None:
                continue
            design, channels, config = finals[module]
            t0 = time.perf_counter()
            fn(*pick(design), channels, config)
            probes[metric].append(time.perf_counter() - t0)
        finals.clear()

    try:
        traced, _ = run_ops(workload, failures,
                            indices=[r["index"] for r in plain],
                            tracer=tracer, after_op=time_steps)
    finally:
        tracer.unwrap()
    figures, notes = layer_metrics(tracer, plain, traced, probes, missing)
    return plain + traced, outputs, figures, notes, tracer


def layer_metrics(tracer, plain, traced, probes, missing):
    """Per-layer figures, normalised per traced operation (per run or per
    call where the name says so). A metric whose span or step function is in
    `missing` reads 0 and is listed as absent."""
    totals = tracer.totals()
    counters = tracer.counters
    n = len(traced)

    def calls(span):
        return totals.get(span, {}).get("calls", 0)

    def inclusive(span):
        return totals.get(span, {}).get("inclusive_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    def median(values):
        return statistics.median(values) if values else 0.0

    traced_s = sum(r["seconds"] for r in traced)
    values = {
        "model.covariance_calls": calls("model.covariance") / n,
        "model.covariance_s": inclusive("model.covariance") / n,
        "model.evaluate_calls": calls("model.evaluate") / n,
        "model.evaluate_s": inclusive("model.evaluate") / n,
        "channels.draw_s": inclusive("channels.draw") / n,
        "robust.cutting_set_s": inclusive("robust.cutting_set") / n,
        "robust.cuts": ratio(counters.get("robust.cuts", 0),
                             counters.get("robust.cutting_set.runs", 0)),
        "robust.certified_ratio": ratio(counters.get("robust.certified", 0),
                                        counters.get("robust.cutting_set.runs", 0)),
        "robust.inner_iters": ratio(counters.get("robust.inner_iters", 0),
                                    counters.get("robust.cutting_set.runs", 0)),
        "robust.oracle_calls": calls("robust.oracle") / n,
        "robust.oracle_s": inclusive("robust.oracle") / n,
        "robust.forms_built": calls("robust.form") / n,
        "robust.form_s": inclusive("robust.form") / n,
        "robust.solve_s": inclusive("robust.solve") / n,
        "robust.hard_case_ratio": ratio(counters.get("robust.hard_cases", 0),
                                        calls("robust.solve")),
        "baselines.run_s": inclusive("baselines.run") / n,
        "baselines.iters": ratio(counters.get("baselines.iters", 0),
                                 counters.get("baselines.runs", 0)),
        "distortion.simulate_s": inclusive("distortion.simulate") / n,
        "distortion.blocks": counters.get("distortion.blocks", 0) / n,
        "distortion.blocks_per_s": ratio(counters.get("distortion.blocks", 0),
                                         inclusive("distortion.simulate")),
        "harness.self_s": (totals.get("harness.run_trial", {}).get("self_s", 0.0)
                           + totals.get("cell", {}).get("self_s", 0.0)) / n,
        "trace.overhead_ratio": ratio(sum(r["seconds"] for r in plain), traced_s),
        "trace.cell_s": traced_s / n,
    }
    for key in ("altqcp", "wmmse"):
        iters = counters.get(f"{key}.iters", 0)
        values[f"{key}.run_s"] = inclusive(f"{key}.run") / n
        values[f"{key}.iters"] = ratio(iters, counters.get(f"{key}.runs", 0))
        values[f"{key}.s_per_iter"] = ratio(inclusive(f"{key}.run"), iters)
    for metric, samples in probes.items():
        values[metric] = median(samples)
    figures = {name: (values[name], layer_unit(name)) for name in LAYER_METRICS}
    absent = sorted(name for name, span in LAYER_METRICS.items()
                    if span in missing or name in missing)
    self_s = {name: entry["self_s"] / n for name, entry in sorted(totals.items())}
    accounted = sum(entry["self_s"] for entry in totals.values())
    notes = {"absent": absent, "absent_functions": tracer.absent,
             "self_s_per_cell": self_s, "spans": len(tracer.spans),
             "accounting_error": ratio(abs(accounted - traced_s), traced_s),
             "step_probe_samples": {k: len(v) for k, v in probes.items()}}
    return figures, notes


# ---------------------------------------------------------------------------
# provenance and output
# ---------------------------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout's own git repository, or "unknown"."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unknown"
    return lines[1]


def blas_version(numpy) -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def provenance(args, numpy, workload, n_ops) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version(numpy),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "operation": workload.op_name,
        "operations": n_ops,
        "blocks_per_op": workload.blocks_per_op,
        "blocks": workload.blocks_per_op * n_ops,
        "loop": "closed, 1 caller",
        "timing": ("untraced for half the time, then the same operations traced"
                   if args.trace else
                   "one pass, set-ups sampled across the run"),
    }


def result_path(args, stem: str) -> Path:
    tiny = "_tiny" if args.tiny else ""
    return OUT / f"{stem}_{args.workload}{tiny}_seed{args.seed}_trace{args.trace}.json"


def print_summary(args, figures, notes, declared, prov, failures_seen):
    print(f"fdlink benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} {prov['operations']} {prov['operation']}s "
          f"({prov['loop']})")
    for name, (value, unit) in figures.items():
        mark = "" if name in declared else "  (not in the JSON line)"
        note = f"  [{notes[name]}]" if isinstance(notes.get(name), str) else ""
        print(f"  {name:<26} {value:>14.6g} {unit}{note}{mark}")
    for key in ("digest", "absent", "self_s_per_cell", "accounting_error",
                "worst_covariance_gap", "pooled_covariance_gap"):
        if key in notes:
            print(f"  {key}: {json.dumps(notes[key])}")
    for failure in failures_seen[:5]:
        print(f"  failed: {failure}")
    print(f"provenance: {json.dumps(prov, sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size (perfbench/selftest.py)")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print it and exit")
    parser.add_argument("--corrupt-first-op", action="store_true",
                        help="corrupt the first output (perfbench/selftest.py)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    pin_blas()
    fdlink, workload, first_setup = set_up(args.workload, args.seed, args.tiny)
    if args.setup_only:
        print(json.dumps({"setup_s": first_setup}))
        return 0
    import numpy

    failures = (fdlink.util.DualSearchError, numpy.linalg.LinAlgError,
                FloatingPointError)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    if args.trace:
        records, outputs, figures, notes, tracer = traced_run(
            fdlink, workload, failures, args)
        declared = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
        tracer.write(result_path(args, "spans"))
        correct_extra = notes["accounting_error"] < ACCOUNTING_TOL
    else:
        # set-up k is timed once k / SETUP_SAMPLES of the run has passed, so
        # the samples see the same phases of machine load as the operations
        setups = [first_setup]

        def sample_setup(elapsed):
            if (len(setups) < SETUP_SAMPLES
                    and elapsed >= len(setups) * args.seconds / SETUP_SAMPLES):
                setups.append(setup_in_child(args))

        records, outputs = run_ops(workload, failures, seconds=args.seconds,
                                   corrupt_first=args.corrupt_first_op,
                                   after_op=sample_setup)
        while len(setups) < SETUP_SAMPLES:
            setups.append(setup_in_child(args))
        figures, notes = end_to_end(workload, records, setups)
        declared = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
        correct_extra = True
    run_violations = workload.run_violations()
    for record in records:
        if run_violations and not record["failure"]:
            record["failure"] = "; ".join(run_violations[:3])
    failed = [r for r in records if r["failure"]]
    notes["digest"] = {"sha256": workload.digest(outputs), "operations": len(outputs)}
    if isinstance(workload, SimulateWorkload):
        notes["worst_covariance_gap"] = workload.worst_gap
        notes["pooled_covariance_gap"] = workload.pooled_gap
    prov = provenance(args, numpy, workload, len(records))
    metrics = {}
    for name, unit in declared.items():
        value, measured_unit = figures[name]
        if measured_unit != unit:
            raise SystemExit(f"error: {name} is measured in {measured_unit}, "
                             f"BENCHMARK.json says {unit}")
        metrics[name] = {"value": value, "unit": unit}
    result = {"correct": not failed and correct_extra, "attempted": len(records),
              "failed": len(failed), "metrics": metrics}
    with open(result_path(args, "result"), "w") as f:
        json.dump({"result": result, "all_figures": figures, "notes": notes,
                   "provenance": prov,
                   "op_seconds": [r["seconds"] for r in records],
                   "failures": [f"{r['index']}: {r['failure']}" for r in failed]},
                  f, indent=1)
    print_summary(args, figures, notes, declared, prov,
                  [f"{workload.op_name} {r['index']}: {r['failure']}" for r in failed])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
