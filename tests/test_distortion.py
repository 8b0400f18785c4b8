"""Time-domain distortion simulator: DFT conventions, per-chain variance
bookkeeping, whiteness, and agreement with the closed-form covariance."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import crandn_t
from fdlink import (ChannelStats, ConfigError, SystemConfig, TransceiverDesign,
                    aggregate_covariance, distortion, draw_channels,
                    freq_distortion_variance, perturb_csi, run_altqcp,
                    simulate_blocks)
from fdlink.distortion import SimulationStats, time_to_freq
from fdlink.model import DIRECTIONS, _sic_residual, covariance_stacks

# the bytes _batch_blocks counts per block at K=4, 2x2 and one stream: 16 per
# symbol, 4 per transmit chain and 6 per receive chain, in each direction;
# and at K=64, 4x4 and two streams
_PER_BLOCK_K4 = 16 * 4 * 2 * (1 + 4 * 2 + 6 * 2)
_PER_BLOCK_K64 = 16 * 64 * 2 * (2 + 4 * 4 + 6 * 4)


def _k64_config():
    return SystemConfig.from_scalars(subcarriers=64, antennas=4, streams=2)


def _random_design(rng, config):
    precoders = tuple(crandn_t(rng, (config.subcarriers, config.tx_antennas[i],
                                     config.streams[i])) for i in DIRECTIONS)
    decoders = tuple(crandn_t(rng, (config.subcarriers, config.rx_antennas[i],
                                    config.streams[i])) for i in DIRECTIONS)
    weights = tuple(np.broadcast_to(np.eye(config.streams[i], dtype=complex),
                                    (config.subcarriers, config.streams[i],
                                     config.streams[i])).copy()
                    for i in DIRECTIONS)
    return TransceiverDesign(precoders, decoders, weights)


def test_dft_round_trip_and_unitarity():
    rng = np.random.default_rng(0)
    x = crandn_t(rng, (8, 3))
    back = np.fft.ifft(time_to_freq(x), axis=0, norm="ortho")
    assert np.max(np.abs(back - x)) < 1e-12
    # unitary scaling preserves the total energy
    assert abs(np.sum(np.abs(time_to_freq(x)) ** 2) - np.sum(np.abs(x) ** 2)) < 1e-10


def test_freq_distortion_variance_single_carrier():
    # K=1: variance collapses to kappa * E|v|^2 per chain
    rng = np.random.default_rng(1)
    v = crandn_t(rng, (1, 3, 2))
    kappa = np.array([0.1, 0.02, 0.0])
    out = freq_distortion_variance(v, kappa)
    expected = kappa * np.einsum("knd,knd->n", v, v.conj()).real
    assert np.max(np.abs(out - expected)) < 1e-14


def test_freq_distortion_variance_zero_precoder():
    assert np.all(freq_distortion_variance(np.zeros((4, 2, 1)), np.ones(2)) == 0)


def test_freq_distortion_variance_matches_covariance_builder():
    # same quantity the covariance assembly uses, checked to 1e-12
    rng = np.random.default_rng(2)
    config = SystemConfig.from_scalars(subcarriers=4, kappa=3e-3)
    v = crandn_t(rng, (4, 2, 1))
    theta = config.tx_distortion[0]
    expected = theta * np.einsum("knd,knd->n", v, v.conj()).real
    assert np.max(np.abs(freq_distortion_variance(v, theta) - expected)) < 1e-12


def test_noise_only_covariance():
    # kappa = beta = 0: the received covariance is exactly sigma^2 I
    config = SystemConfig.from_scalars(kappa=0.0, beta=0.0)
    channels = draw_channels(config, ChannelStats(csi_radius=0.0), 3)
    design = _random_design(np.random.default_rng(4), config)
    stats = simulate_blocks(design, channels, config, 30_000, 5)
    for i in DIRECTIONS:
        for k in range(config.subcarriers):
            target = config.noise_var[i][k] * np.eye(config.rx_antennas[i])
            rel = np.linalg.norm(stats.nu_cov[i][k] - target) / np.linalg.norm(target)
            assert rel < 0.03


def test_simulated_covariance_matches_closed_form():
    config = SystemConfig.from_scalars()
    channels = draw_channels(config, ChannelStats(csi_radius=0.0), 6)
    design, _ = run_altqcp(channels, config)
    stats = simulate_blocks(design, channels, config, 30_000, 7)
    for i in DIRECTIONS:
        for k in range(config.subcarriers):
            predicted = aggregate_covariance(design, channels, config, i, k)
            rel = (np.linalg.norm(stats.nu_cov[i][k] - predicted)
                   / np.linalg.norm(predicted))
            assert rel < 0.08  # 3e4 blocks; the acceptance run uses 1e5


def test_aggregate_covariance_is_the_truth_view_under_csi_error():
    # with CSI error the receiver also sees the self-interference that
    # cancellation against h_est leaves behind: aggregate_covariance is the
    # truth view's covariance, and the simulator agrees with it
    config = SystemConfig.from_scalars(kappa=1e-4)
    true = draw_channels(config, ChannelStats(csi_radius=0.1), [5, 0])
    _, channels = perturb_csi(true, config, [5, 1], "boundary")
    design, _ = run_altqcp(channels, config)
    truth = covariance_stacks(design.precoders, channels.h, config,
                              _sic_residual(channels.h, channels.h_est))
    stats = simulate_blocks(design, channels, config, 30_000, [5, 2])
    for i in DIRECTIONS:
        for k in range(config.subcarriers):
            predicted = aggregate_covariance(design, channels, config, i, k)
            assert np.array_equal(predicted, truth[i][k])
            rel = (np.linalg.norm(stats.nu_cov[i][k] - predicted)
                   / np.linalg.norm(predicted))
            assert rel < 0.05  # without the residual term: 0.32 or more


def test_transmit_distortion_flat_and_white():
    config = SystemConfig.from_scalars(kappa=1e-2)
    channels = draw_channels(config, ChannelStats(csi_radius=0.0), 8)
    design, _ = run_altqcp(channels, config)
    stats = simulate_blocks(design, channels, config, 30_000, 9)
    for i in DIRECTIONS:
        var = stats.et_var[i]               # (K, N): per subcarrier and chain
        spread = (var.max(axis=0) - var.min(axis=0)) / var.mean(axis=0)
        assert np.all(spread < 0.06)
        analytic = freq_distortion_variance(design.precoders[i],
                                            config.tx_distortion[i])
        rel = np.abs(var.mean(axis=0) - analytic)
        assert np.all(rel / analytic < 0.05)
        # correlation coefficients estimate zero with ~1/sqrt(n) noise
        assert np.all(stats.et_chain_corr[i] < 0.05)
        assert np.all(stats.et_signal_corr[i] < 0.05)


def test_block_sample_residual_is_pure_impairment():
    # no distortion, no noise, perfect CSI: cancellation and the desired part
    # leave exactly nothing behind
    config = SystemConfig.from_scalars(kappa=0.0, beta=0.0, noise_var=0.0)
    channels = draw_channels(config, ChannelStats(csi_radius=0.0), 10)
    design = _random_design(np.random.default_rng(11), config)
    stats = simulate_blocks(design, channels, config, 1, 12)
    for i in DIRECTIONS:
        assert np.max(np.abs(stats.nu_cov[i])) < 1e-12 ** 2
        m = config.rx_antennas[i]
        assert stats.nu_cov[i].shape == (config.subcarriers, m, m)


def test_block_sample_deterministic():
    config = SystemConfig.from_scalars()
    channels = draw_channels(config, ChannelStats(csi_radius=0.0), 13)
    design = _random_design(np.random.default_rng(14), config)
    a = simulate_blocks(design, channels, config, 1, 15)
    b = simulate_blocks(design, channels, config, 1, 15)
    for i in DIRECTIONS:
        assert np.array_equal(a.nu_cov[i], b.nu_cov[i])
        assert np.array_equal(a.et_var[i], b.et_var[i])


@pytest.mark.parametrize("n_blocks", [1, 7])
def test_generator_advances_by_the_draw_count(monkeypatch, n_blocks):
    # every batch draws 2 K n normals per chain of its eight draws (per
    # direction the symbols and the transmit distortion, then the noise and
    # the receive distortion), whatever the split: 7 blocks run as 3 + 3 + 1
    config = SystemConfig.from_scalars(subcarriers=3, tx_antennas=(3, 2),
                                       rx_antennas=(2, 4), streams=(2, 1))
    monkeypatch.setattr(distortion, "_BATCH_BYTES",
                        3 * 16 * 3 * (2 + 4 * 3 + 6 * 2 + 1 + 4 * 2 + 6 * 4))
    assert distortion._batch_blocks(config) == 3
    channels = draw_channels(config, ChannelStats(csi_radius=0.0), 61)
    design = _random_design(np.random.default_rng(62), config)
    rng, twin = (np.random.Generator(np.random.SFC64(63)) for _ in range(2))
    stats = simulate_blocks(design, channels, config, n_blocks, rng)
    chains = sum(config.streams[i] + config.tx_antennas[i] + 2 * config.rx_antennas[i]
                 for i in DIRECTIONS)
    twin.standard_normal(2 * config.subcarriers * n_blocks * chains)
    assert np.array_equal(rng.bit_generator.random_raw(4),
                          twin.bit_generator.random_raw(4))
    # an int seed draws from SFC64 seeded with it
    again = simulate_blocks(design, channels, config, n_blocks, 63)
    for i in DIRECTIONS:
        assert np.array_equal(again.nu_cov[i], stats.nu_cov[i])


def _reference_block(design, channels, config, seed):
    """One block by the textbook recipe: an explicit unitary DFT matrix, a
    per-subcarrier matrix product loop, and the simulator's draws (SFC64; per
    direction the symbols then the transmit distortion, then per direction
    the noise then the receive distortion; each a (K, chains) array of
    interleaved real and imaginary parts)."""
    rng = np.random.Generator(np.random.SFC64(seed))
    k = config.subcarriers
    idx = np.arange(k)
    dft = np.exp(-2j * np.pi * np.outer(idx, idx) / k) / np.sqrt(k)

    def draw(chains, var):
        z = rng.standard_normal((k, chains, 2))
        return np.sqrt(np.asarray(var) / 2.0) * (z[..., 0] + 1j * z[..., 1])

    symbols, x_freq, tx_var = [], [], []
    for j in DIRECTIONS:
        v = design.precoders[j]
        s = draw(v.shape[2], 1.0)
        v_freq = np.array([v[kk] @ s[kk] for kk in range(k)])
        chain_power = sum(np.diag(v[kk] @ v[kk].conj().T).real for kk in range(k)) / k
        tx_var.append(k * config.tx_distortion[j] * chain_power)
        et_time = draw(v.shape[1], tx_var[j])
        x_time = dft.conj().T @ v_freq + et_time
        symbols.append(s)
        x_freq.append(dft @ x_time)
    residual = []
    for i in DIRECTIONS:
        m = config.rx_antennas[i]
        noise = draw(m, config.noise_var[i][:, None])
        u_freq = noise.copy()
        power = np.full(m, config.noise_var[i].sum())
        for j in DIRECTIONS:
            h, v = channels.h[(i, j)], design.precoders[j]
            for kk in range(k):
                u_freq[kk] += h[kk] @ x_freq[j][kk]
                hv = h[kk] @ v[kk]
                power += np.diag(hv @ hv.conj().T).real
                power += np.diag(h[kk] @ np.diag(tx_var[j]) @ h[kk].conj().T).real
        er_time = draw(m, k * config.rx_distortion[i] * power / k)
        y_freq = u_freq + dft @ er_time
        j = 1 - i
        residual.append(np.array([
            y_freq[kk]
            - channels.h_est[(i, j)][kk] @ design.precoders[j][kk] @ symbols[j][kk]
            - channels.h[(i, i)][kk] @ design.precoders[i][kk] @ symbols[i][kk]
            for kk in range(k)]))
    return residual


def test_block_simulation_matches_per_block_reference(monkeypatch):
    # asymmetric antennas, per-chain coefficients, per-subcarrier noise and
    # an estimation error on every channel
    base = SystemConfig.from_scalars(subcarriers=4, tx_antennas=(3, 2),
                                     rx_antennas=(2, 4), streams=(2, 1))
    config = dataclasses.replace(
        base,
        noise_var=np.array([[1e-3, 2e-3, 5e-4, 1e-3], [3e-3, 1e-3, 1e-3, 2e-3]]),
        tx_distortion=(np.array([1e-2, 3e-3, 5e-3]) / 4, np.array([2e-3, 8e-3]) / 4),
        rx_distortion=(np.array([4e-3, 1e-2]) / 4, np.array([1e-3, 2e-3, 6e-3, 3e-3]) / 4))
    true = draw_channels(config, ChannelStats(csi_radius=0.1), 21)
    _, channels = perturb_csi(true, config, 22, mode="boundary")
    design = _random_design(np.random.default_rng(23), config)
    expected = _reference_block(design, channels, config, 24)

    # a batch hands _gram each direction's transmit distortion, then each
    # direction's post-SIC residual, which it drops after
    grams = []
    inner = distortion._gram

    def recorded(x):
        grams.append(x.copy())
        return inner(x)

    monkeypatch.setattr(distortion, "_gram", recorded)
    stats = simulate_blocks(design, channels, config, 1, 24)
    assert len(grams) == 4
    residual = grams[2:]
    for i in DIRECTIONS:
        scale = np.max(np.abs(expected[i]))
        assert np.max(np.abs(residual[i][:, 0] - expected[i])) <= 1e-12 * scale
        outer = np.einsum("km,kp->kmp", expected[i], expected[i].conj())
        assert np.max(np.abs(stats.nu_cov[i] - outer)) <= 1e-12 * scale ** 2


@pytest.mark.parametrize("n_blocks", [0, -5])
def test_simulate_blocks_rejects_empty_run(perfect_csi_config, perfect_channels,
                                           n_blocks):
    design, _ = run_altqcp(perfect_channels, perfect_csi_config)
    with pytest.raises(ConfigError):
        simulate_blocks(design, perfect_channels, perfect_csi_config, n_blocks, 0)


@pytest.mark.parametrize("n_blocks", [2.5, True])
def test_simulate_blocks_rejects_non_whole_count(perfect_csi_config,
                                                 perfect_channels, n_blocks):
    design = _random_design(np.random.default_rng(0), perfect_csi_config)
    with pytest.raises(ConfigError, match="whole number"):
        simulate_blocks(design, perfect_channels, perfect_csi_config, n_blocks, 0)
    stats = simulate_blocks(design, perfect_channels, perfect_csi_config,
                            np.int64(4), 0)
    assert stats.n_blocks == 4


def _materialized_batch(design, channels, config, n, rng):
    """One batch the way a simulator that keeps every signal runs it, with the
    same draws: (K, n, chains) complex draws whose real and imaginary parts
    come interleaved in C order, and per direction the precoded symbols, the
    transmit distortion, the transmitted signal and the post-SIC residual all
    held at once."""
    k, v = config.subcarriers, design.precoders

    def draw(chains, var=1.0):
        z = rng.standard_normal((k, n, chains, 2))
        return np.sqrt(np.asarray(var, dtype=float) / 2.0) * (z[..., 0] + 1j * z[..., 1])

    def apply(a, x):
        return np.matmul(x, a.swapaxes(1, 2))

    tx_var = [freq_distortion_variance(v[j], config.tx_distortion[j]) for j in DIRECTIONS]
    symbols, v_freq, et_freq = [], [], []
    for j in DIRECTIONS:
        symbols.append(draw(v[j].shape[2]))
        v_freq.append(apply(v[j], symbols[j]))
        et_freq.append(time_to_freq(draw(v[j].shape[1], tx_var[j])))
    x_freq = [v_freq[j] + et_freq[j] for j in DIRECTIONS]
    residual = []
    for i in DIRECTIONS:
        m_i = config.rx_antennas[i]
        y = draw(m_i, config.noise_var[i][:, None, None])
        power = config.noise_var[i].sum() * np.ones(m_i)
        hv = []
        for j in DIRECTIONS:
            h = channels.h[(i, j)]
            y += apply(h, x_freq[j])
            hv.append(h @ v[j])
            power += np.einsum("kmd,kmd->m", hv[j], hv[j].conj()).real
            power += np.einsum("kmn,n,kmn->m", h, tx_var[j], h.conj()).real
        y += time_to_freq(draw(m_i, config.rx_distortion[i] * power))
        y -= apply(channels.h_est[(i, 1 - i)] @ v[1 - i], symbols[1 - i])
        y -= apply(hv[i], symbols[i])
        residual.append(y)
    return v_freq, et_freq, residual


def _materialized_stats(design, channels, config, split, seed):
    """SimulationStats from materialized batches of the given sizes, each
    summed only after the whole batch exists."""
    rng = np.random.Generator(np.random.SFC64(seed))
    nu, ee, ev, v2 = ([0.0, 0.0] for _ in range(4))
    for n in split:
        v_freq, et_freq, residual = _materialized_batch(design, channels, config, n, rng)
        for i in DIRECTIONS:
            nu[i] += distortion._gram(residual[i])
            ee[i] += distortion._gram(et_freq[i])
            ev[i] += np.einsum("kbn,kbn->kn", et_freq[i], v_freq[i].conj())
            v2[i] += np.einsum("kbn,kbn->kn", v_freq[i], v_freq[i].conj()).real
    n_blocks = sum(split)
    et2 = [np.einsum("knn->kn", acc).real for acc in ee]
    stats = SimulationStats(n_blocks, [acc / n_blocks for acc in nu],
                            [acc / n_blocks for acc in et2], [], [])
    for i in DIRECTIONS:
        denom = np.sqrt(et2[i] * np.maximum(v2[i], 1e-300))
        stats.et_signal_corr.append(np.abs(ev[i]) / np.maximum(denom, 1e-300))
        d = np.sqrt(et2[i])
        corr = np.abs(ee[i]) / np.maximum(d[:, :, None] * d[:, None, :], 1e-300)
        corr[:, np.eye(corr.shape[1], dtype=bool)] = 0.0
        stats.et_chain_corr.append(corr.reshape(len(corr), -1).max(axis=1))
    return stats


@pytest.mark.parametrize("case", ["default_k4", "asymmetric_k3_csi_error",
                                  "split_3_3_1", "k64_multi_batch"])
def test_simulation_is_bit_identical_to_materialized_batches(case, monkeypatch):
    # folding each statistic in as soon as its inputs exist keeps every draw,
    # every operation and so every output bit of a batch that holds them all,
    # and the fold carries across batches at the default budget
    if case == "k64_multi_batch":
        config = _k64_config()
        channels = draw_channels(config, ChannelStats(csi_radius=0.0), 51)
        split = [195] * 10 + [50]
    elif case == "asymmetric_k3_csi_error":
        config = SystemConfig.from_scalars(subcarriers=3, tx_antennas=(3, 2),
                                           rx_antennas=(2, 4), streams=(2, 1),
                                           kappa=1e-2)
        true = draw_channels(config, ChannelStats(csi_radius=0.1), [51, 0])
        _, channels = perturb_csi(true, config, [51, 1], "boundary")
        split = [777]
    else:
        config = SystemConfig.from_scalars()
        channels = draw_channels(config, ChannelStats(csi_radius=0.0), 51)
        split = [2_000]
    if case == "split_3_3_1":
        monkeypatch.setattr(distortion, "_BATCH_BYTES", 3 * _PER_BLOCK_K4 + 1)
        split = [3, 3, 1]
    design = _random_design(np.random.default_rng(52), config)
    stats = simulate_blocks(design, channels, config, sum(split), 53)
    expected = _materialized_stats(design, channels, config, split, 53)
    assert stats.n_blocks == expected.n_blocks
    for field in ("nu_cov", "et_var", "et_signal_corr", "et_chain_corr"):
        for got, want in zip(getattr(stats, field), getattr(expected, field)):
            assert np.array_equal(got, want), field


def test_batches_fit_the_byte_budget(perfect_csi_config, perfect_channels,
                                     monkeypatch):
    config, channels = perfect_csi_config, perfect_channels
    design, _ = run_altqcp(channels, config)
    # the default 16 MiB budget: 6,241 blocks per batch at K=4 and 195 at
    # K=64 with M=N=4 and two streams, so 2,000 K=64 blocks are 10 x 195 + 50
    assert distortion._batch_blocks(config) == 6_241
    assert distortion._batch_blocks(_k64_config()) == 195
    per_block = _PER_BLOCK_K4
    monkeypatch.setattr(distortion, "_BATCH_BYTES", per_block - 1)
    assert distortion._batch_blocks(config) == 1
    monkeypatch.setattr(distortion, "_BATCH_BYTES", 3 * per_block + 1)
    assert distortion._batch_blocks(config) == 3

    sizes = []
    inner = distortion._simulate_batch

    def counted(link, buffers, n, rng, sums):
        sizes.append(n)
        return inner(link, buffers, n, rng, sums)

    monkeypatch.setattr(distortion, "_simulate_batch", counted)
    for n_blocks, split in ((3, [3]), (7, [3, 3, 1])):
        sizes.clear()
        stats = simulate_blocks(design, channels, config, n_blocks, 41)
        assert sizes == split
        # the batches draw one after another from one generator
        rng = np.random.Generator(np.random.SFC64(41))
        batches = [_materialized_batch(design, channels, config, n, rng)
                   for n in split]
        for i in DIRECTIONS:
            gram = sum(distortion._gram(residual[i]) for _, _, residual in batches)
            assert np.array_equal(stats.nu_cov[i], gram / n_blocks)


def test_batch_peak_memory_is_half_the_byte_count(perfect_csi_config,
                                                  perfect_channels):
    # the byte count of _batch_blocks bounds a batch from above. In units of
    # one chain's 16 * K bytes, the count is 42 per block at K=4 with 2x2
    # antennas and one stream, and 84 at K=64 with 4x4 and two streams. A
    # call's buffers hold the symbols and x_freq of both directions (6 and
    # 12), the received signal and one draw (4 and 8); each statistic is
    # folded in as soon as its inputs exist, and the transmit side holds its
    # precoded signal in the idle received-signal buffer, so a batch peaks
    # with one more chain-sized temporary (2 and 4): 12/42 = 24/84 = 0.29.
    # The 0.4 bound leaves room for one more; a batch that kept v_freq,
    # et_freq and both residuals read 0.52, and one that kept every signal
    # it computed read 1.05. Batches reuse the buffers one after another, so
    # the peak is that of the largest batch, whatever n_blocks.
    big = _k64_config()
    assert distortion._batch_blocks(big) < 2_000      # both K=64 runs span batches
    cases = ((perfect_csi_config, perfect_channels,
              run_altqcp(perfect_channels, perfect_csi_config)[0], _PER_BLOCK_K4,
              (2_000,)),
             (big, draw_channels(big, ChannelStats(csi_radius=0.0), 44),
              _random_design(np.random.default_rng(45), big), _PER_BLOCK_K64,
              (2_000, 6_000)))
    for config, channels, design, per_block, runs in cases:
        peaks = []
        for n_blocks in runs:
            tracemalloc.start()
            try:
                simulate_blocks(design, channels, config, n_blocks, 43)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            batch = min(n_blocks, distortion._batch_blocks(config))
            assert batch * per_block <= distortion._BATCH_BYTES
            assert peaks[-1] <= 0.4 * batch * per_block
        # K=64: 2,000 and 6,000 blocks are 11 and 31 batches of at most 195
        assert max(peaks) <= 1.01 * peaks[0], peaks
