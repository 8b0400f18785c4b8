"""Channel generation: Rayleigh desired links, Rician self-interference links,
and norm-bounded CSI error injection."""

from __future__ import annotations

import json
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
        if min(self.rho, self.rho_si, self.k_rician, self.csi_radius) < 0:
            raise ConfigError("rho, rho_si, k_rician and csi_radius must be nonnegative")

    def si_mean_scale(self) -> float:
        return float(np.sqrt(self.rho_si * self.k_rician / (1.0 + self.k_rician)))

    def si_scatter_var(self) -> float:
        return float(self.rho_si / (1.0 + self.k_rician))


@dataclass(frozen=True)
class CsiErrorSet:
    """A concrete draw of estimation errors plus the sets they came from."""

    delta: dict        # (i, j) -> (K, M_i, N_j)
    radius: dict       # (i, j) -> (K,)
    shaping: dict      # (i, j) -> None or (K, M_i, M_i)

    def max_violation(self) -> float:
        """Largest (shaped norm - radius) over all (i, j, k); <= 0 means feasible."""
        worst = -np.inf
        for pair in PAIRS:
            d = self.delta[pair]
            shaped = d if self.shaping[pair] is None else self.shaping[pair] @ d
            norms = np.sqrt(np.einsum("kmn,kmn->k", shaped, shaped.conj()).real)
            worst = max(worst, float(np.max(norms - self.radius[pair])))
        return worst


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
        shaping={pair: None for pair in PAIRS},
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
    """Sample estimation errors inside (or on) the configured uncertainty sets.

    Returns (CsiErrorSet, ChannelRealization) where the new realization keeps
    the true h and exposes h_est = h - delta. Shaped sets draw the shaped
    variable uniformly and map back through the inverse shaping.
    """
    rng = rng_from(seed)
    delta = {}
    for pair in PAIRS:
        arr = channels.h[pair]
        radii = channels.csi_radius[pair]
        draw = _ball_draw(rng, arr.shape, radii, mode)
        shaping = channels.shaping[pair]
        if shaping is not None:
            draw = np.linalg.solve(shaping, draw)
        delta[pair] = np.where(radii[:, None, None] > 0, draw, 0.0)
    err = CsiErrorSet(delta=delta,
                      radius={p: channels.csi_radius[p].copy() for p in PAIRS},
                      shaping=dict(channels.shaping))
    perturbed = ChannelRealization(
        h={p: channels.h[p].copy() for p in PAIRS},
        h_est={p: channels.h[p] - delta[p] for p in PAIRS},
        csi_radius={p: channels.csi_radius[p].copy() for p in PAIRS},
        shaping=dict(channels.shaping),
    )
    return err, perturbed


# ---------------------------------------------------------------------------
# JSON interchange: complex arrays as nested lists with [re, im] leaves
# ---------------------------------------------------------------------------

def _complex_to_lists(a: np.ndarray):
    stacked = np.stack([a.real, a.imag], axis=-1)
    return stacked.tolist()


def _lists_to_complex(lists) -> np.ndarray:
    arr = np.asarray(lists, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def channels_to_json(channels: ChannelRealization) -> str:
    payload = {"subcarriers": channels.subcarriers, "pairs": {}}
    for i, j in PAIRS:
        key = f"{i + 1}{j + 1}"
        entry = {
            "true": _complex_to_lists(channels.h[(i, j)]),
            "est": _complex_to_lists(channels.h_est[(i, j)]),
            "radius": channels.csi_radius[(i, j)].tolist(),
        }
        shaping = channels.shaping[(i, j)]
        entry["shaping"] = None if shaping is None else _complex_to_lists(shaping)
        payload["pairs"][key] = entry
    return json.dumps(payload)


def channels_from_json(text: str) -> ChannelRealization:
    try:
        payload = json.loads(text)
        h, h_est, radius, shaping = {}, {}, {}, {}
        for i, j in PAIRS:
            entry = payload["pairs"][f"{i + 1}{j + 1}"]
            h[(i, j)] = _lists_to_complex(entry["true"])
            h_est[(i, j)] = _lists_to_complex(entry["est"])
            radius[(i, j)] = np.asarray(entry["radius"], dtype=float)
            shaping[(i, j)] = (None if entry.get("shaping") is None
                               else _lists_to_complex(entry["shaping"]))
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise ConfigError(f"malformed channel JSON: {exc}") from exc
    return ChannelRealization(h=h, h_est=h_est, csi_radius=radius, shaping=shaping)
