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


def time_to_freq(x: np.ndarray, out=None) -> np.ndarray:
    """Unitary DFT (1/sqrt(K) scaling) over the leading axis, into out if given."""
    return np.fft.fft(x, axis=0, norm="ortho", out=out)


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


def _fill(rng: np.random.Generator, out: np.ndarray, scale) -> np.ndarray:
    """crandn draws of variance 2 scale^2 into a C-order complex buffer: one
    standard_normal fill of its float view (re, im interleaved), one scale in place."""
    rng.standard_normal(out=out.view(float))
    return np.multiply(out, scale, out=out)


def _apply(a: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a^k x_b^k for a (K, P, Q) stack and (K, n, Q) blocks, into (K, n, P) out."""
    return np.matmul(x, a.swapaxes(1, 2), out=out)


def _gram(x: np.ndarray) -> np.ndarray:
    """sum_b x_b^k x_b^k^H for (K, n, P) blocks; (K, P, P)."""
    return np.matmul(x.swapaxes(1, 2), x.conj())


def _simulate_batch(link, buffers, n: int, rng: np.random.Generator, sums):
    """Simulate n blocks at the start of simulate_blocks' buffers and add each
    statistic to sums, its per-direction (nu, ee, ev, v2), once its inputs
    exist. Draw order: per direction the symbols, then the transmit
    distortion; then per direction the noise, then the receive distortion."""
    v, h, hv, sic, tx_scale, noise_scale, rx_scale = link
    (sym_buf, xf_buf, (y_buf, r_buf)), (nu, ee, ev, v2) = buffers, sums
    k = len(v[0])

    def head(flat, chains):         # the (K, n, chains) C-order view at its start
        return flat[:k * n * chains].reshape(k, n, chains)

    symbols, x_freq = [], []
    for j in DIRECTIONS:
        n_tx, d = v[j].shape[1:]
        symbols.append(_fill(rng, head(sym_buf[j], d), np.sqrt(0.5)))
        et = time_to_freq(_fill(rng, head(r_buf, n_tx), tx_scale[j]), head(xf_buf[j], n_tx))
        vf = _apply(v[j], symbols[j], head(y_buf, n_tx))   # y is idle until the receive side
        ee[j] += _gram(et)
        ev[j] += np.einsum("kbn,kbn->kn", et, vf.conj())
        v2[j] += np.einsum("kbn,kbn->kn", vf, vf.conj()).real
        # the DFT is linear, so x_freq = DFT(v_time + et_time) = v_freq + et_freq
        x_freq.append(np.add(vf, et, out=et))

    # receive side: the received signal builds up in place, starting from the
    # noise; each product lands in the draw buffer before it is added
    for i in DIRECTIONS:
        y, r = head(y_buf, h[(i, i)].shape[1]), head(r_buf, h[(i, i)].shape[1])
        _fill(rng, y, noise_scale[i])
        for j in DIRECTIONS:
            y += _apply(h[(i, j)], x_freq[j], r)
        y += time_to_freq(_fill(rng, r, rx_scale[i]), r)
        # SIC with the estimated loopback channel, then strip the desired signal
        y -= _apply(sic[i], symbols[1 - i], r)
        y -= _apply(hv[(i, i)], symbols[i], r)
        nu[i] += _gram(y)


def simulate_blocks(design: TransceiverDesign, channels: ChannelRealization,
                    config: SystemConfig, n_blocks: int, seed) -> SimulationStats:
    """Monte Carlo over n_blocks OFDM blocks in batches, so memory does not grow
    with n_blocks; sums the residual covariances and distortion statistics.
    An int or sequence seed draws from SFC64; a Generator is used as it is."""
    n_blocks = as_count(n_blocks, "n_blocks")
    if n_blocks < 1:
        raise ConfigError(f"n_blocks must be at least 1, got {n_blocks}")
    rng = rng_from(seed, np.random.SFC64)
    # per-direction sums over the blocks; the first batch sets their shapes
    sums = nu_acc, ee, ev, v2 = tuple([0.0, 0.0] for _ in range(4))
    v, h = design.precoders, channels.h
    k, c = config.subcarriers, max(*config.tx_antennas, *config.rx_antennas)
    step = min(_batch_blocks(config), n_blocks)
    # flat buffers every batch reuses: symbols, x_freq, received signal, one draw
    buffers = [[np.empty(k * step * m, dtype=complex) for m in chains]
               for chains in ([x.shape[2] for x in v], [x.shape[1] for x in v], (c, c))]
    # per-call constants; white in time, E|e_t(t)|^2 is flat over subcarriers
    tx_var = [freq_distortion_variance(v[j], config.tx_distortion[j]) for j in DIRECTIONS]
    hv = {(i, j): h[(i, j)] @ v[j] for i in DIRECTIONS for j in DIRECTIONS}
    rx_var = []
    for i in DIRECTIONS:
        power = config.noise_var[i].sum() * np.ones(config.rx_antennas[i])  # sum_k E|u^k|^2
        for j in DIRECTIONS:
            power += np.einsum("kmd,kmd->m", hv[(i, j)], hv[(i, j)].conj()).real
            power += np.einsum("kmn,n,kmn->m", h[(i, j)], tx_var[j], h[(i, j)].conj()).real
        # beta_l E|u_l(t)|^2 = (K rx_distortion_l) (1/K) sum_k E|u_l^k|^2
        rx_var.append(config.rx_distortion[i] * power)
    link = (v, h, hv, [channels.h_est[(i, 1 - i)] @ v[1 - i] for i in DIRECTIONS],
            *([np.sqrt(var / 2.0) for var in group] for group in (
                tx_var, [nv[:, None, None] for nv in config.noise_var], rx_var)))
    for start in range(0, n_blocks, step):
        _simulate_batch(link, buffers, min(step, n_blocks - start), rng, sums)

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
