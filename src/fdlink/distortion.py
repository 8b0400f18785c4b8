"""Time-domain block simulation of the transceiver chain distortion model.

Each OFDM block: draw unit-covariance symbols, precode, inverse-DFT to the time
domain, add white per-chain transmit distortion (variance proportional to that
chain's analytic signal power), push through the true per-subcarrier channels,
add thermal noise and white per-chain receive distortion (variance proportional
to the analytic received power), cancel the known part of the self-interference
with the estimated channel, and collect the residual interference-plus-noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DIRECTIONS, ChannelRealization, SystemConfig, TransceiverDesign
from .util import ConfigError, as_count, rng_from


def time_to_freq(x: np.ndarray) -> np.ndarray:
    """Unitary DFT (1/sqrt(K) scaling) over the leading (subcarrier) axis."""
    return np.fft.fft(x, axis=0, norm="ortho")


def freq_distortion_variance(precoders_i: np.ndarray,
                             tx_distortion_i: np.ndarray) -> np.ndarray:
    """Per-chain frequency-domain variance of the transmit distortion.

    White in time implies flat in frequency: every subcarrier sees
    (kappa_l / K) * sum_m E|v_l^m|^2, i.e. theta_l * sum_m (V^m V^m^H)_ll.
    """
    gram_diag = np.einsum("knd,knd->n", precoders_i, precoders_i.conj()).real
    return np.asarray(tx_distortion_i) * gram_diag


@dataclass
class SimulationStats:
    n_blocks: int
    nu_cov: list            # per direction (K, M, M) sample covariance of nu
    et_var: list            # per direction (K, N) sample variance of e_t^k
    et_signal_corr: list    # per direction (K, N) |corr(e_t, v)| same chain
    et_chain_corr: list     # per direction (K,) max |corr| across chain pairs


_BATCH_BYTES = 16 * 2 ** 20


def _batch_blocks(config: SystemConfig) -> int:
    """Blocks per batch: _BATCH_BYTES at 16 bytes per block for each symbol, 4
    per transmit chain and 6 per receive chain, an upper bound: a batch peaks
    at 0.29 of it. The split fixes the draw order, so a new split moves the
    draws of every run longer than one batch."""
    per_block = 16 * config.subcarriers * sum(
        config.streams[i] + 4 * config.tx_antennas[i] + 6 * config.rx_antennas[i]
        for i in DIRECTIONS)
    return max(1, _BATCH_BYTES // per_block)


def _draw(rng: np.random.Generator, n: int, k: int, chains: int, var=1.0):
    """crandn draws of shape (n, K, chains), written through a transposed view
    into a (K, n, chains) buffer: each subcarrier's n blocks form one matrix."""
    out = np.empty((k, n, chains), dtype=complex)
    view = out.swapaxes(0, 1)
    view.real = rng.standard_normal((n, k, chains))
    view.imag = rng.standard_normal((n, k, chains))
    view *= np.sqrt(np.asarray(var, dtype=float) / 2.0)
    return out


def _apply(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a^k x_b^k for a (K, P, Q) stack and (K, n, Q) blocks; (K, n, P)."""
    return np.matmul(x, a.swapaxes(1, 2))


def _gram(x: np.ndarray) -> np.ndarray:
    """sum_b x_b^k x_b^k^H for (K, n, P) blocks; (K, P, P)."""
    return np.matmul(x.swapaxes(1, 2), x.conj())


def _simulate_batch(design: TransceiverDesign, channels: ChannelRealization,
                    config: SystemConfig, n: int, rng: np.random.Generator, sums):
    """Simulate n blocks and add each statistic to sums, simulate_blocks'
    per-direction (nu, ee, ev, v2), once its inputs exist: a batch keeps the
    (K, n, chains) symbols and x_freq per direction, one residual and one draw.
    Draw order: per direction the symbols, then the transmit distortion; then
    per direction the noise, then the receive distortion."""
    k, v = config.subcarriers, design.precoders
    nu, ee, ev, v2 = sums
    symbols, x_freq = [], []

    # transmit side: white in time, so E|e_t(t)|^2 is the flat per-subcarrier variance
    tx_var = [freq_distortion_variance(v[j], config.tx_distortion[j]) for j in DIRECTIONS]
    for j in DIRECTIONS:
        symbols.append(_draw(rng, n, k, v[j].shape[2]))
        vf = _apply(v[j], symbols[j])
        et = time_to_freq(_draw(rng, n, k, v[j].shape[1], tx_var[j]))
        ee[j] += _gram(et)
        ev[j] += np.einsum("kbn,kbn->kn", et, vf.conj())
        v2[j] += np.einsum("kbn,kbn->kn", vf, vf.conj()).real
        # the DFT is linear, so x_freq = DFT(v_time + et_time) = v_freq + et_freq
        x_freq.append(np.add(vf, et, out=et))
        del vf

    # receive side: the received signal builds up in place, starting from the noise
    for i in DIRECTIONS:
        m_i = config.rx_antennas[i]
        y = _draw(rng, n, k, m_i, config.noise_var[i][None, :, None])
        received_power = config.noise_var[i].sum() * np.ones(m_i)  # sum_k E|u^k|^2 per chain
        hv = [channels.h[(i, j)] @ v[j] for j in DIRECTIONS]
        for j in DIRECTIONS:
            h = channels.h[(i, j)]
            y += _apply(h, x_freq[j])
            received_power += np.einsum("kmd,kmd->m", hv[j], hv[j].conj()).real
            received_power += np.einsum("kmn,n,kmn->m", h, tx_var[j], h.conj()).real
        # beta_l E|u_l(t)|^2 = (K rx_distortion_l) (1/K) sum_k E|u_l^k|^2
        y += time_to_freq(_draw(rng, n, k, m_i, config.rx_distortion[i] * received_power))
        # SIC with the estimated loopback channel, then strip the desired signal
        j = 1 - i
        y -= _apply(channels.h_est[(i, j)] @ v[j], symbols[j])
        y -= _apply(hv[i], symbols[i])
        nu[i] += _gram(y)


def simulate_blocks(design: TransceiverDesign, channels: ChannelRealization,
                    config: SystemConfig, n_blocks: int, seed) -> SimulationStats:
    """Monte Carlo over n_blocks OFDM blocks in batches, so memory does not grow
    with n_blocks; sums the residual covariances and distortion statistics."""
    n_blocks = as_count(n_blocks, "n_blocks")
    if n_blocks < 1:
        raise ConfigError(f"n_blocks must be at least 1, got {n_blocks}")
    rng = rng_from(seed)
    # per-direction sums over the blocks; the first batch sets their shapes
    sums = nu_acc, ee, ev, v2 = tuple([0.0, 0.0] for _ in range(4))
    step = _batch_blocks(config)
    for start in range(0, n_blocks, step):
        _simulate_batch(design, channels, config, min(step, n_blocks - start), rng, sums)

    et2 = [np.einsum("knn->kn", acc).real for acc in ee]   # the Gram diagonal
    stats = SimulationStats(n_blocks=n_blocks, nu_cov=[acc / n_blocks for acc in nu_acc],
                            et_var=[acc / n_blocks for acc in et2],
                            et_signal_corr=[], et_chain_corr=[])
    for i in DIRECTIONS:
        denom = np.sqrt(et2[i] * np.maximum(v2[i], 1e-300))
        stats.et_signal_corr.append(np.abs(ev[i]) / np.maximum(denom, 1e-300))
        # cross-chain correlation: normalize the Gram accumulator, zero the diagonal
        d = np.sqrt(et2[i])
        norm = np.maximum(d[:, :, None] * d[:, None, :], 1e-300)
        corr = np.abs(ee[i]) / norm
        corr[:, np.eye(corr.shape[1], dtype=bool)] = 0.0
        stats.et_chain_corr.append(corr.reshape(len(corr), -1).max(axis=1))
    return stats
