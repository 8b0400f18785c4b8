"""Weighted sum-rate maximization through iteratively reweighted MSE.

The surrogate sum_i omega_i sum_k (ln det S_i^k + d_i - tr(S_i^k E_i^k)) is
maximized by cycling precoders -> receivers -> weights; after the receiver and
weight updates it equals ln(2) times the weighted sum rate of the design
model, so the rate itself is monotone across outer iterations.

The loop is the package's one block-coordinate driver,
altqcp.run_altqcp_scenarios, with its weight block switched on; this module
holds the public entry point and the single-step views on estimated channels.
"""

from __future__ import annotations

import numpy as np

from .altqcp import SolverOptions, run_altqcp_scenarios
from .model import (ChannelRealization, SystemConfig, TransceiverDesign,
                    mse_stacks, rate_surrogate, weighted_rate)
from .util import herm


def update_weights(design: TransceiverDesign, channels: ChannelRealization,
                   config: SystemConfig):
    """S_i^k = E_i^k^{-1} at the current design, on estimated channels.

    Raises numpy.linalg.LinAlgError if an MSE matrix is singular.
    """
    errors, _ = mse_stacks(design.precoders, design.decoders, channels.h_est,
                           channels.h_est, config)
    return [herm(np.linalg.inv(e)) for e in errors]


def surrogate_objective(design: TransceiverDesign, channels: ChannelRealization,
                        config: SystemConfig) -> float:
    """Natural-log rate surrogate of a design, on estimated channels."""
    errors, _ = mse_stacks(design.precoders, design.decoders, channels.h_est,
                           channels.h_est, config)
    return rate_surrogate(errors, design.mse_weights, config)


def weighted_rate_bits(precoders, channels: ChannelRealization,
                       config: SystemConfig) -> float:
    """Design-model weighted sum rate (bits/channel use) over both directions."""
    return weighted_rate(precoders, channels.h_est, channels.h_est, config)


def run_wmmse(channels: ChannelRealization, config: SystemConfig,
              options: SolverOptions = None):
    """Weighted sum-rate design on the estimated channels.

    objective_trace holds the surrogate (natural log); rate_trace holds the
    design-model weighted sum rate in bits per channel use.
    """
    return run_altqcp_scenarios([(1.0, channels.h_est)], channels.h_est, config,
                                options or SolverOptions(),
                                channels_for_init=channels, weight_block=True)
