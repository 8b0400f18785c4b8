"""Command-line front end.

Subcommands: run (execute a JSON experiment spec), summarize (aggregate a
results CSV), plotdata (emit one figure's plot-ready table), validate-model
(quick physical self-check of the closed-form model against simulation).

Exit codes: 0 success, 2 configuration/spec errors, 3 numerical failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import harness
from .util import _NUMERICAL_FAILURES, ConfigError


def _cmd_run(args) -> int:
    with open(args.spec) as f:
        spec = harness.ExperimentSpec.from_json(f.read())
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    out_dir = args.out or os.environ.get("FDLINK_OUT") or spec.output
    probe = os.path.abspath(out_dir)  # fail now, not after the sweep, if makedirs would
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise ConfigError(f"output path {out_dir!r}: {probe!r} is not a directory")
    rows, timings = harness.run_experiment(spec, processes=args.jobs)
    os.makedirs(out_dir, exist_ok=True)
    results_path = os.path.join(out_dir, "results.csv")
    timings_path = os.path.join(out_dir, "timings.csv")
    harness.write_results_csv(rows, results_path, spec)
    harness.write_timings_csv(timings, timings_path, spec)
    print(f"wrote {len(rows)} rows to {results_path} "
          f"(spec {spec.spec_hash()}, seed {spec.seed})")
    return 0


def _write_or_print(text: str, out, n_rows: int, what: str) -> int:
    """Write text to the --out path and report it, or print it to stdout."""
    if out:
        with open(out, "w", newline="") as f:
            f.write(text)
        print(f"wrote {n_rows} {what} to {out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_summarize(args) -> int:
    rows = harness.read_results_csv(args.results)
    by = tuple(c.strip() for c in args.by.split(",") if c.strip())
    aggregates = harness.summarize(rows, by=by)
    columns = by + ("mean", "std", "count", "min", "max")
    text = harness._csv_text(columns, [[a[c] for c in columns] for a in aggregates])
    return _write_or_print(text, args.out, len(aggregates), "aggregate rows")


def _cmd_plotdata(args) -> int:
    rows = harness.read_results_csv(args.results)
    aggregates = harness.summarize(rows)
    columns, table = harness.emit_plot_data(aggregates, args.figure)
    return _write_or_print(harness._csv_text(columns, table),
                           args.out, len(table), "rows")


def _cmd_validate_model(args) -> int:
    """Design a small link, then check the closed-form covariance and power
    expressions against a Monte-Carlo distortion simulation."""
    from .altqcp import SolverOptions, run_altqcp
    from .channels import ChannelStats, draw_channels
    from .distortion import simulate_blocks
    from .model import SystemConfig, covariance_stacks

    if args.seed < 0:
        raise ConfigError("seed must be nonnegative")
    config = SystemConfig.from_scalars(kappa=10 ** -2)
    channels = draw_channels(config, ChannelStats(csi_radius=0.0), [args.seed, 11])
    design, report = run_altqcp(channels, config, SolverOptions(max_iters=25))
    trace = np.asarray(report.objective_trace)
    monotone = bool(np.all(np.diff(trace) <= 1e-9 * np.maximum(trace[:-1], 1.0)))
    stats = simulate_blocks(design, channels, config, args.blocks, [args.seed, 29])
    predicted = covariance_stacks(design.precoders, channels.h, config, (None, None))
    mismatch = [np.linalg.norm(stats.nu_cov[i][k] - predicted[i][k])
                / np.linalg.norm(predicted[i][k])
                for i in (0, 1) for k in range(config.subcarriers)]
    worst = float(np.max(mismatch))       # a NaN propagates and fails the gate
    cov_ok = worst < 0.15  # loose gate; tightens with more blocks
    print(f"objective monotone over {report.iterations} iterations: "
          f"{'yes' if monotone else 'NO'}")
    print(f"covariance mismatch vs {args.blocks} simulated blocks: "
          f"{worst:.4f} ({'ok' if cov_ok else 'TOO LARGE'})")
    return 0 if (monotone and cov_ok) else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdlink",
        description="Design and evaluate bidirectional full-duplex MIMO-OFDM "
                    "links under hardware distortion and bounded CSI error.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a JSON experiment spec")
    p_run.add_argument("--spec", required=True, help="path to the spec file")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the spec's master seed")
    p_run.add_argument("--out", default=None,
                       help="output directory (default: $FDLINK_OUT, then the "
                            "spec's output field)")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="worker processes for (value, trial) cells")
    p_run.set_defaults(handler=_cmd_run)

    p_sum = sub.add_parser("summarize", help="aggregate a results CSV")
    p_sum.add_argument("--results", required=True)
    p_sum.add_argument("--by",
                       default="sweep_param,sweep_value,algorithm,metric,iteration")
    p_sum.add_argument("--out", default=None, help="write here instead of stdout")
    p_sum.set_defaults(handler=_cmd_summarize)

    p_plot = sub.add_parser("plotdata", help="emit one figure's data table")
    p_plot.add_argument("--results", required=True)
    p_plot.add_argument("--figure", required=True,
                        help=f"one of {', '.join(harness.FIGURES)}")
    p_plot.add_argument("--out", default=None)
    p_plot.set_defaults(handler=_cmd_plotdata)

    p_val = sub.add_parser("validate-model",
                           help="check closed forms against simulation")
    p_val.add_argument("--blocks", type=int, default=20000)
    p_val.add_argument("--seed", type=int, default=0)
    p_val.set_defaults(handler=_cmd_validate_model)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, OSError) as err:      # bad spec, missing or unwritable path
        print(f"error: {err}", file=sys.stderr)
        return 2
    except _NUMERICAL_FAILURES as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
