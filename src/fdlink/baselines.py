"""Reference designs the full-duplex distortion-aware solvers are compared to.

All baselines return (design, report) where the report is a true-model
evaluation (actual channels, actual distortion), whatever simplified model the
design itself assumed. Modes:

  hd        half-duplex TDD reference: cross links removed from the world,
            each direction keeps its full power budget, achieved rates halved.
  kappa0    distortion-blind: designed as if every chain were ideal, then
            evaluated under the true hardware model.
  sc        single-carrier design on the subcarrier-averaged channel with a
            per-subcarrier power split, replicated across all subcarriers.
  pth_*     classic interference-threshold design: ignore distortion, assume
            perfect cancellation, but cap the predicted self-interference
            power each transmitter may put into its own receiver
            (pth_high: cap = budget; pth_low: cap = budget/10). Without a
            cap this is kappa0.

Each mode only sets the driver's inputs: the estimated channels to design
on, the design config and the self-interference caps, plus the world it is
evaluated in. Every design is then one call of the block-coordinate driver,
altqcp.run_altqcp_scenarios, whose MSE-weight block the designer switches
on ("wmmse") or leaves off ("altqcp").
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .altqcp import SolverOptions, run_altqcp_scenarios
from .model import (DIRECTIONS, PAIRS, ChannelRealization, SystemConfig,
                    TransceiverDesign, evaluate_design)
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


def _single_carrier_pieces(channels: ChannelRealization, config: SystemConfig):
    """Flat-design problem: subcarrier-averaged estimated channels, the
    per-subcarrier share of the power budget, and per-chain distortion
    coefficients restated for a one-subcarrier system."""
    k = config.subcarriers
    cfg = dataclasses.replace(
        config,
        subcarriers=1,
        noise_var=config.noise_var.mean(axis=1, keepdims=True),
        tx_distortion=tuple(k * config.tx_distortion[i] for i in DIRECTIONS),
        rx_distortion=tuple(k * config.rx_distortion[i] for i in DIRECTIONS),
        p_max=tuple(config.p_max[i] / k for i in DIRECTIONS),
    )
    return {pair: channels.h_est[pair].mean(axis=0, keepdims=True) for pair in PAIRS}, cfg


def run_baseline(mode: str, channels: ChannelRealization, config: SystemConfig,
                 options: SolverOptions = None, designer: str = "altqcp"):
    """Design with the named simplified strategy, evaluate under the true model.

    Each mode makes exactly one driver call, on its own design inputs: hd on
    the half-duplex world, sc on the subcarrier-averaged estimate (the design
    is then replicated over the subcarriers), kappa0 on the distortion-blind
    config, and pth_* as kappa0 with a self-interference cap. designer
    ("altqcp" for weighted MSE, "wmmse" for weighted sum rate) switches the
    driver's MSE-weight block.
    """
    if mode not in BASELINE_MODES:
        raise ConfigError(f"unknown baseline mode {mode!r}")
    if designer not in DESIGNERS:
        raise ConfigError(f"unknown designer {designer!r}")
    eval_channels, h_est, cfg, caps = channels, channels.h_est, config, None
    if mode == "hd":
        eval_channels = half_duplex_world(channels)
        h_est = eval_channels.h_est
    elif mode == "sc":
        h_est, cfg = _single_carrier_pieces(channels, config)
    else:                             # kappa0, and pth_* with a cap
        cfg = _blind_config(config)
        if mode in _CAP_DIVISOR:
            caps = tuple(config.p_max[j] / _CAP_DIVISOR[mode] for j in DIRECTIONS)
    design, run_rep = run_altqcp_scenarios(
        [(1.0, h_est)], cfg, options or SolverOptions(),
        weight_block=designer == "wmmse", si_caps=caps)
    if mode == "sc":
        design = TransceiverDesign(*(
            tuple(np.repeat(stack, config.subcarriers, axis=0) for stack in stacks)
            for stacks in (design.precoders, design.decoders, design.mse_weights)))

    report = evaluate_design(design, eval_channels, config)
    if mode == "hd":
        report.rate_bits = 0.5 * report.rate_bits
    report.objective_trace = run_rep.objective_trace
    report.iterations = run_rep.iterations
    report.converged = run_rep.converged
    report.extras = {**run_rep.extras, "mode": mode, "eval_channels": eval_channels}
    return design, report
