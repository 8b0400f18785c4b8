#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny problem sizes (about 30 s).

Run from the repository root:

    python3 perfbench/selftest.py

It checks the output checks on hand-made rows and covariances; runs every
workload run.py defines, untraced and traced, and asserts that the last line
is the result object with every metric BENCHMARK.json declares, each with its
declared unit; asserts that a deliberately corrupted output is counted in
failed_ratio; and asserts that the benchmark refuses to run where fdlink's
sources are missing.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import checks
from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BARE = HERE / "out" / "selftest_bare"
# end-to-end figures the summary prints on every workload; the simulator
# workload adds sim_blocks_per_s
SUMMARY = ("setup_s", "cells_per_s", "cell_s_p50", "cell_s_tail",
           "failed_ratio", "peak_rss_mb")


def expect(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def last_line_result(proc, what):
    expect(proc.returncode == 0, f"{what} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{what}: result keys are {sorted(result)}")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
           f"{what}: attempted = {result['attempted']}")
    return result


def check_rows():
    def rows(alg, trace, **scalars):
        base = {"sum_mse": 1.0, "wc_mse": 1.5, "sum_rate": 2.0,
                "power_1": 1.0, "power_2": 1.0}
        base.update(scalars)
        out = [{"algorithm": alg, "metric": m, "iteration": -1, "value": v}
               for m, v in base.items()]
        out += [{"algorithm": alg, "metric": "objective", "iteration": t,
                 "value": v} for t, v in enumerate(trace)]
        return out

    p_max = (1.0, 1.0)
    cases = [
        (rows("altqcp", [3.0, 2.0, 2.0]), 0, "clean descent"),
        (rows("wmmse", [1.0, 2.0, 2.5]), 0, "clean ascent"),
        (rows("kappa0", [3.0, 2.0], power_1=1.2), 0, "blind overshoot"),
        (rows("pth_low", [1.0, 2.0]), 0, "unchecked trace"),
        (rows("altqcp", [3.0, 2.0, 2.1]), 1, "altqcp ascent"),
        (rows("wmmse", [2.0, 1.0]), 1, "wmmse descent"),
        (rows("hd", [3.0, 2.0], power_2=1.01), 1, "hd over budget"),
        (rows("sc", [3.0, 2.0], wc_mse=0.9), 1, "worst case below nominal"),
        (rows("altqcp", [3.0, float("nan")]), 1, "nan in trace"),
    ]
    for case_rows, violations, what in cases:
        alg = case_rows[0]["algorithm"]
        got = checks.sweep_violations(case_rows, [alg], p_max)
        expect(len(got) == violations, f"{what}: {got}")
    got = checks.sweep_violations(rows("altqcp", [1.0]), ["altqcp", "wmmse"], p_max)
    expect(any("wmmse is missing" in g for g in got), f"missing algorithm: {got}")


def check_covariances():
    """At the block count of a pooled 60 s run, a 1% covariance error passes
    and a 10% one fails."""
    import numpy as np
    n_blocks = 100_000
    predicted = [[np.eye(4, dtype=complex)] * 3 for _ in range(2)]
    bounds = [[checks.covariance_gap_bound(cov, n_blocks) for cov in per_k]
              for per_k in predicted]
    for scale, violations in ((1.01, 0), (1.10, 1)):
        seen = [np.stack(per_k) for per_k in predicted]
        seen[1][2] = scale * seen[1][2]
        got, worst = checks.covariance_violations(seen, predicted, bounds)
        expect(len(got) == violations, f"covariance scaled by {scale}: {got}")
        expect(abs(worst - (scale - 1.0)) < 1e-12, f"worst gap {worst}")


def check_workloads(benchmark):
    declared = {0: {m["name"]: m["unit"] for m in benchmark["end_to_end"]},
                1: {m["name"]: m["unit"] for m in benchmark["per_layer"]}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            what = f"{workload} --trace {trace}"
            proc = bench(["--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", str(trace), "--tiny"])
            result = last_line_result(proc, what)
            expect(result["correct"] and result["failed"] == 0, f"{what}: {result}")
            metrics = result["metrics"]
            expect(set(metrics) == set(declared[trace]),
                   f"{what}: metrics {sorted(metrics)}")
            for name, unit in declared[trace].items():
                expect(metrics[name]["unit"] == unit, f"{what}: unit of {name}")
                expect(isinstance(metrics[name]["value"], (int, float)),
                       f"{what}: value of {name}")
            if trace == 0:
                names = SUMMARY + (("sim_blocks_per_s",) if "simulate" in workload else ())
                for name in names:
                    expect(re.search(rf"^\s+{name}\s", proc.stdout, re.M),
                           f"{what}: summary does not print {name}")
        what = f"{workload} with a corrupted output"
        proc = bench(["--workload", workload, "--seed", "3", "--seconds", "1",
                      "--trace", "0", "--tiny", "--corrupt-first-op"])
        result = last_line_result(proc, what)
        expect(not result["correct"] and result["failed"] >= 1, f"{what}: {result}")
        ratio = re.search(r"^\s+failed_ratio\s+(\S+) ratio", proc.stdout, re.M)
        expect(ratio and float(ratio.group(1)) > 0, f"{what}: failed_ratio not counted")


def check_refuses_without_sources():
    shutil.rmtree(BARE, ignore_errors=True)
    (BARE / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", BARE)
    for path in HERE.glob("*.py"):
        shutil.copy(path, BARE / "perfbench")
    proc = bench(["--workload", "sweep_k4_full", "--seed", "1", "--seconds", "1",
                  "--trace", "0"], cwd=BARE)
    shutil.rmtree(BARE)
    expect(proc.returncode != 0, "ran without fdlink sources")
    expect('"metrics"' not in proc.stdout, "printed a result without fdlink sources")


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_rows()
    check_covariances()
    check_refuses_without_sources()
    check_workloads(benchmark)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
