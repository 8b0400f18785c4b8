"""Channel generation: Rayleigh desired links, Rician self-interference links,
and norm-bounded CSI error injection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PAIRS, ChannelRealization, SystemConfig
from .util import ConfigError, crandn, rng_from


@dataclass(frozen=True)
class ChannelStats:
    """First/second-order statistics of the draws.

    Desired links have i.i.d. CN(0, rho) entries. Self-interference links are
    Rician: mean sqrt(rho_si * k_rician / (1 + k_rician)) * (all-ones), and
    i.i.d. CN(0, rho_si / (1 + k_rician)) scatter on top. csi_radius is the
    Frobenius radius of every (pair, subcarrier) estimation error set.
    """

    rho: float = 0.01            # -20 dB desired-path gain
    rho_si: float = 1.0          # 0 dB self-interference gain
    k_rician: float = 10.0
    csi_radius: float = 10 ** -1.5

    def __post_init__(self):
        if not all(0 <= v < np.inf for v in
                   (self.rho, self.rho_si, self.k_rician, self.csi_radius)):
            raise ConfigError(
                "rho, rho_si, k_rician and csi_radius must be finite and nonnegative")

    def si_mean_scale(self) -> float:
        return float(np.sqrt(self.rho_si * self.k_rician / (1.0 + self.k_rician)))

    def si_scatter_var(self) -> float:
        return float(self.rho_si / (1.0 + self.k_rician))


def draw_channels(config: SystemConfig, stats: ChannelStats, seed) -> ChannelRealization:
    """Draw one realization, independent across subcarriers; h_est starts equal
    to h (CSI error is injected separately by perturb_csi)."""
    rng = rng_from(seed)
    k = config.subcarriers
    h = {}
    for i, j in PAIRS:
        shape = (k, config.rx_antennas[i], config.tx_antennas[j])
        if i == j:
            h[(i, j)] = crandn(rng, shape, var=stats.rho)
        else:
            mean = stats.si_mean_scale() * np.ones(shape)
            h[(i, j)] = mean + crandn(rng, shape, var=stats.si_scatter_var())
    return ChannelRealization(
        h=h,
        h_est={pair: h[pair].copy() for pair in PAIRS},
        csi_radius={pair: np.full(k, float(stats.csi_radius)) for pair in PAIRS},
    )


def _ball_draw(rng, shape, radii, mode):
    """Matrix draws with ||.||_F <= radii (per leading index). Interior mode is
    uniform over the ball: radius = zeta * u^(1/(2 N M)) for complex N x M."""
    k, m, n = shape
    direction = crandn(rng, shape)
    norms = np.sqrt(np.einsum("kmn,kmn->k", direction, direction.conj()).real)
    norms = np.where(norms > 0, norms, 1.0)
    if mode == "boundary":
        r = np.asarray(radii, dtype=float)
    elif mode == "interior":
        u = rng.uniform(size=k)
        r = np.asarray(radii, dtype=float) * u ** (1.0 / (2 * m * n))
    else:
        raise ConfigError(f"unknown CSI sampling mode {mode!r}")
    return direction * (r / norms)[:, None, None]


def perturb_csi(channels: ChannelRealization, config: SystemConfig, seed,
                mode: str = "interior"):
    """Sample estimation errors inside (or on) the Frobenius balls
    ||Delta^k||_F <= csi_radius[(i, j)][k].

    Returns ({pair: (K, M_i, N_j) error draw}, ChannelRealization) where the
    new realization keeps the true h and exposes h_est = h - delta.
    """
    rng = rng_from(seed)
    delta = {}
    for pair in PAIRS:
        radii = channels.csi_radius[pair]
        draw = _ball_draw(rng, channels.h[pair].shape, radii, mode)
        delta[pair] = np.where(radii[:, None, None] > 0, draw, 0.0)
    perturbed = ChannelRealization(
        h={p: channels.h[p].copy() for p in PAIRS},
        h_est={p: channels.h[p] - delta[p] for p in PAIRS},
        csi_radius={p: channels.csi_radius[p].copy() for p in PAIRS},
    )
    return delta, perturbed
