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

Every design runs through the one block-coordinate driver,
altqcp.run_altqcp_scenarios: hd, kappa0 and sc through the chosen designer,
pth_* as the driver on the distortion-blind config with its
self-interference cap switched on.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .altqcp import SolverOptions, run_altqcp, run_altqcp_scenarios
from .model import (DIRECTIONS, PAIRS, ChannelRealization, SystemConfig,
                    TransceiverDesign, evaluate_design)
from .util import ConfigError
from .wmmse import run_wmmse

DESIGNERS = {"altqcp": run_altqcp, "wmmse": run_wmmse}

BASELINE_MODES = ("hd", "kappa0", "sc", "pth_high", "pth_low")

# pth_* self-interference cap: the transmit power budget divided by this
_CAP_DIVISOR = {"pth_high": 1.0, "pth_low": 10.0}


def half_duplex_world(channels: ChannelRealization) -> ChannelRealization:
    """The same link with the cross channels (and their error sets) removed."""
    h = {}
    h_est = {}
    radii = {}
    for (i, j) in PAIRS:
        if i == j:
            h[(i, j)] = channels.h[(i, j)].copy()
            h_est[(i, j)] = channels.h_est[(i, j)].copy()
            radii[(i, j)] = channels.csi_radius[(i, j)].copy()
        else:
            h[(i, j)] = np.zeros_like(channels.h[(i, j)])
            h_est[(i, j)] = np.zeros_like(channels.h_est[(i, j)])
            radii[(i, j)] = np.zeros_like(channels.csi_radius[(i, j)])
    return ChannelRealization(h=h, h_est=h_est, csi_radius=radii)


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
    mean = {pair: channels.h_est[pair].mean(axis=0, keepdims=True) for pair in PAIRS}
    flat = ChannelRealization(
        h=mean, h_est={pair: mean[pair].copy() for pair in PAIRS},
        csi_radius={pair: np.zeros(1) for pair in PAIRS})
    return flat, cfg


def run_baseline(mode: str, channels: ChannelRealization, config: SystemConfig,
                 options: SolverOptions = None, designer: str = "altqcp"):
    """Design with the named simplified strategy, evaluate under the true model.

    designer picks the optimizer ("altqcp" for weighted-MSE, "wmmse" for
    weighted sum rate): the one reused inside hd/kappa0/sc, and for pth_*
    whether the driver's MSE-weight block is on.
    """
    if mode not in BASELINE_MODES:
        raise ConfigError(f"unknown baseline mode {mode!r}")
    if designer not in DESIGNERS:
        raise ConfigError(f"unknown designer {designer!r}")
    options = options or SolverOptions()
    design_fn = DESIGNERS[designer]
    eval_channels = channels

    if mode == "hd":
        eval_channels = half_duplex_world(channels)
        design, run_rep = design_fn(eval_channels, config, options)
    elif mode == "kappa0":
        design, run_rep = design_fn(channels, _blind_config(config), options)
    elif mode == "sc":
        flat, cfg_flat = _single_carrier_pieces(channels, config)
        flat_design, run_rep = design_fn(flat, cfg_flat, options)
        k = config.subcarriers
        design = TransceiverDesign(
            precoders=tuple(np.repeat(flat_design.precoders[i], k, axis=0)
                            for i in DIRECTIONS),
            decoders=tuple(np.repeat(flat_design.decoders[i], k, axis=0)
                           for i in DIRECTIONS),
            mse_weights=tuple(np.repeat(flat_design.mse_weights[i], k, axis=0)
                              for i in DIRECTIONS))
    else:
        caps = tuple(config.p_max[j] / _CAP_DIVISOR[mode] for j in DIRECTIONS)
        design, run_rep = run_altqcp_scenarios(
            [(1.0, channels.h_est)], _blind_config(config), options,
            weight_block=designer == "wmmse", si_caps=caps)

    report = evaluate_design(design, eval_channels, config)
    if mode == "hd":
        report.rate_bits = 0.5 * report.rate_bits
    report.objective_trace = run_rep.objective_trace
    report.iterations = run_rep.iterations
    report.converged = run_rep.converged
    report.extras = {**run_rep.extras, "mode": mode, "eval_channels": eval_channels}
    return design, report
