"""Reference designs the full-duplex distortion-aware solvers are compared to.

All baselines return (design, report) where the report is a true-model
evaluation (actual channels, actual distortion), whatever simplified model the
design itself assumed. Modes:

  hd        half-duplex TDD reference: cross links removed from the world,
            each direction keeps its full power budget, achieved rates halved.
  kappa0    distortion-blind: designed as if every chain were ideal, then
            evaluated under the true hardware model.
  sc        frequency-flat design: the subcarrier-averaged estimate and
            noise on every subcarrier, so every subcarrier gets the same
            precoder and an equal share of the budget.
  pth_*     classic interference-threshold design: ignore distortion, assume
            perfect cancellation, but cap the predicted self-interference
            power each transmitter may put into its own receiver
            (pth_high: cap = budget; pth_low: cap = budget/10). Without a
            cap this is kappa0.

Each mode only sets the driver's inputs: the estimated channels to design
on, the design config and the self-interference caps, plus the world it is
evaluated in. Every design is then one call of the block-coordinate driver,
altqcp.run_altqcp_scenarios, whose MSE-weight block the designer switches
on ("wmmse") or leaves off ("altqcp"). design_problem builds the driver
problem of the designers too, and evaluate_run finishes every algorithm's
run, the cutting set's included.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .altqcp import DesignProblem, SolverOptions, run_altqcp_scenarios
from .model import DIRECTIONS, PAIRS, ChannelRealization, SystemConfig, evaluate_design
from .util import ConfigError

DESIGNERS = ("altqcp", "wmmse")

BASELINE_MODES = ("hd", "kappa0", "sc", "pth_high", "pth_low")

# pth_* self-interference cap: the transmit power budget divided by this
_CAP_DIVISOR = {"pth_high": 1.0, "pth_low": 10.0}


def half_duplex_world(channels: ChannelRealization) -> ChannelRealization:
    """The same link with the cross channels (and their error sets) removed."""
    def direct_only(store):
        return {(i, j): store[(i, j)].copy() if i == j else np.zeros_like(store[(i, j)])
                for (i, j) in PAIRS}
    return ChannelRealization(h=direct_only(channels.h), h_est=direct_only(channels.h_est),
                              csi_radius=direct_only(channels.csi_radius))


def _blind_config(config: SystemConfig) -> SystemConfig:
    return dataclasses.replace(
        config,
        tx_distortion=tuple(np.zeros_like(config.tx_distortion[i]) for i in DIRECTIONS),
        rx_distortion=tuple(np.zeros_like(config.rx_distortion[i]) for i in DIRECTIONS),
    )


def design_problem(algorithm: str, channels: ChannelRealization, config: SystemConfig,
                   designer: str = "altqcp"):
    """The driver problem of a one-call algorithm and the world its design is
    evaluated in. altqcp and wmmse design on the estimate (wmmse with the
    MSE-weight block on); of the baselines, which the designer runs, hd
    designs on the half-duplex world, sc on the subcarrier-averaged estimate
    and noise (on each of the cell's K subcarriers), kappa0 on the
    distortion-blind config, and pth_* as kappa0 with a self-interference
    cap."""
    if algorithm not in DESIGNERS + BASELINE_MODES:
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    if designer not in DESIGNERS:
        raise ConfigError(f"unknown designer {designer!r}")
    world, h_est, cfg, caps = channels, channels.h_est, config, None
    if algorithm == "hd":
        world = half_duplex_world(channels)
        h_est = world.h_est
    elif algorithm == "sc":
        # noise averaged about its first entry: flat noise stays bit-equal,
        # so sc keeps the cell's fleet_key (a plain mean can miss by an ulp)
        nv = config.noise_var
        h_est = {pair: np.broadcast_to(h.mean(axis=0), h.shape) for pair, h in h_est.items()}
        cfg = dataclasses.replace(config, noise_var=np.broadcast_to(
            nv[:, :1] + (nv - nv[:, :1]).mean(axis=1, keepdims=True), nv.shape))
    elif algorithm not in DESIGNERS:  # kappa0, and pth_* with a cap
        cfg = _blind_config(config)
        if algorithm in _CAP_DIVISOR:
            caps = tuple(config.p_max[j] / _CAP_DIVISOR[algorithm] for j in DIRECTIONS)
    runner = algorithm if algorithm in DESIGNERS else designer
    return DesignProblem([(1.0, h_est)], cfg, caps, weight_block=runner == "wmmse"), world


def evaluate_run(algorithm: str, design, run_rep, world: ChannelRealization,
                 config: SystemConfig):
    """(design, report) of any algorithm from its design run: the run's
    report with the true-model metrics of its world (hd's rates halved)."""
    metrics = evaluate_design(design, world, config)
    return design, dataclasses.replace(
        run_rep, mse=metrics.mse, power=metrics.power,
        rate_bits=0.5 * metrics.rate_bits if algorithm == "hd" else metrics.rate_bits,
        extras={**run_rep.extras, "mode": algorithm, "eval_channels": world})


def run_baseline(mode: str, channels: ChannelRealization, config: SystemConfig,
                 options: SolverOptions = None, designer: str = "altqcp"):
    """Design with the named simplified strategy, evaluate under the true model.

    Each mode makes exactly one driver call, on design_problem's inputs.
    designer ("altqcp" for weighted MSE, "wmmse" for weighted sum rate)
    switches the driver's MSE-weight block.
    """
    if mode not in BASELINE_MODES:
        raise ConfigError(f"unknown baseline mode {mode!r}")
    problem, world = design_problem(mode, channels, config, designer)
    (design,), (run_rep,) = run_altqcp_scenarios([problem], options or SolverOptions())
    return evaluate_run(mode, design, run_rep, world, config)
