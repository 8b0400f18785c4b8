"""Closed-form model oracles: hand expansions, loop-based recomputations, and
algebraic identities for the covariance, MSE, rate, and power expressions."""

import dataclasses

import numpy as np
import pytest

from conftest import crandn_t, mmse_error, random_psd
from fdlink import (ChannelRealization, ConfigError, SystemConfig,
                    TransceiverDesign, aggregate_covariance, evaluate_design,
                    mse_matrix, power_usage, rate)
from fdlink.model import (DIRECTIONS, PAIRS, _design_objective, _stack,
                          covariance_stacks, mse_stacks)


def _scalar_link(h00, h01, h10, h11, kappa, beta, noise, subcarriers=1):
    config = SystemConfig.from_scalars(subcarriers=subcarriers, antennas=1,
                                       streams=1, noise_var=noise, kappa=kappa,
                                       beta=beta)
    k = subcarriers
    h = {(0, 0): np.full((k, 1, 1), h00, dtype=complex),
         (0, 1): np.full((k, 1, 1), h01, dtype=complex),
         (1, 0): np.full((k, 1, 1), h10, dtype=complex),
         (1, 1): np.full((k, 1, 1), h11, dtype=complex)}
    channels = ChannelRealization(
        h=h, h_est={p: h[p].copy() for p in PAIRS},
        csi_radius={p: np.zeros(k) for p in PAIRS})
    return config, channels


def _random_setup(rng, subcarriers=3, tx=(2, 3), rx=(3, 2), streams=(2, 1),
                  kappa=2e-3, beta=3e-3, noise=1e-2):
    config = SystemConfig.from_scalars(
        subcarriers=subcarriers, streams=streams, noise_var=noise,
        kappa=kappa, beta=beta, tx_antennas=tx, rx_antennas=rx)
    h = {(i, j): crandn_t(rng, (subcarriers, rx[i], tx[j])) for (i, j) in PAIRS}
    channels = ChannelRealization(
        h=h, h_est={p: h[p].copy() for p in PAIRS},
        csi_radius={p: np.zeros(subcarriers) for p in PAIRS})
    precoders = [crandn_t(rng, (subcarriers, tx[i], streams[i])) for i in DIRECTIONS]
    decoders = [crandn_t(rng, (subcarriers, rx[i], streams[i])) for i in DIRECTIONS]
    return config, channels, precoders, decoders


def _oracle_covariance(precoders, h, config, i, k):
    """Independent all-loops recomputation of the aggregate covariance."""
    m = config.rx_antennas[i]
    sigma = config.noise_var[i][k] * np.eye(m, dtype=complex)
    for j in DIRECTIONS:
        # transmit-chain distortion radiated through the subcarrier-k channel
        q = np.zeros(config.tx_antennas[j])
        for l in range(config.subcarriers):
            for n in range(config.tx_antennas[j]):
                q[n] += config.tx_distortion[j][n] * np.sum(
                    np.abs(precoders[j][l][n, :]) ** 2)
        sigma += h[(i, j)][k] @ np.diag(q) @ h[(i, j)][k].conj().T
    # receive-chain distortion: flat across k, driven by total received power
    for n in range(m):
        received = 0.0
        for l in range(config.subcarriers):
            received += config.noise_var[i][l]
            for j in DIRECTIONS:
                row = h[(i, j)][l][n, :] @ precoders[j][l]
                received += float(np.sum(np.abs(row) ** 2))
        sigma[n, n] += config.rx_distortion[i][n] * received
    return sigma


def test_covariance_no_distortion_is_pure_noise():
    rng = np.random.default_rng(0)
    config, channels, precoders, _ = _random_setup(rng, kappa=0.0, beta=0.0)
    stacks = covariance_stacks(precoders, channels.h, config, (None, None))
    for i in DIRECTIONS:
        for k in range(config.subcarriers):
            expected = config.noise_var[i][k] * np.eye(config.rx_antennas[i])
            assert np.allclose(stacks[i][k], expected, atol=1e-15)


def test_covariance_scalar_hand_expansion():
    # K=1, all dimensions 1: the whole expression collapses to four scalars
    h00, h01 = 0.7 - 0.2j, 0.3 + 0.5j
    h10, h11 = -0.1 + 0.4j, 1.1 + 0.3j
    kappa, beta, noise = 0.02, 0.05, 0.3
    config, channels = _scalar_link(h00, h01, h10, h11, kappa, beta, noise)
    v0, v1 = 0.9 - 0.1j, 0.4 + 0.8j
    precoders = [np.full((1, 1, 1), v0), np.full((1, 1, 1), v1)]
    expected_0 = (kappa * abs(h00) ** 2 * abs(v0) ** 2
                  + kappa * abs(h01) ** 2 * abs(v1) ** 2
                  + beta * (noise + abs(h00 * v0) ** 2 + abs(h01 * v1) ** 2)
                  + noise)
    expected_1 = (kappa * abs(h10) ** 2 * abs(v0) ** 2
                  + kappa * abs(h11) ** 2 * abs(v1) ** 2
                  + beta * (noise + abs(h10 * v0) ** 2 + abs(h11 * v1) ** 2)
                  + noise)
    stacks = covariance_stacks(precoders, channels.h, config, (None, None))
    assert abs(stacks[0][0, 0, 0] - expected_0) < 1e-14
    assert abs(stacks[1][0, 0, 0] - expected_1) < 1e-14


def test_covariance_matches_loop_oracle():
    rng = np.random.default_rng(1)
    config, channels, precoders, _ = _random_setup(rng)
    stacks = covariance_stacks(precoders, channels.h, config, (None, None))
    for i in DIRECTIONS:
        for k in range(config.subcarriers):
            oracle = _oracle_covariance(precoders, channels.h, config, i, k)
            assert np.max(np.abs(stacks[i][k] - oracle)) < 1e-12


def test_covariance_hermitian_and_psd():
    rng = np.random.default_rng(2)
    config, channels, precoders, _ = _random_setup(rng)
    stacks = covariance_stacks(precoders, channels.h, config, (None, None))
    for i in DIRECTIONS:
        for k in range(config.subcarriers):
            s = stacks[i][k]
            assert np.max(np.abs(s - s.conj().T)) < 1e-14
            assert np.linalg.eigvalsh(s).min() > 0


def test_aggregate_covariance_validates_indices(default_config, default_channels):
    precoders = [np.zeros((4, 2, 1), dtype=complex) for _ in DIRECTIONS]
    decoders = [np.zeros((4, 2, 1), dtype=complex) for _ in DIRECTIONS]
    weights = [np.broadcast_to(np.eye(1, dtype=complex), (4, 1, 1)).copy()
               for _ in DIRECTIONS]
    design = TransceiverDesign(tuple(precoders), tuple(decoders), tuple(weights))
    with pytest.raises(ConfigError):
        aggregate_covariance(design, default_channels, default_config, 2, 0)
    with pytest.raises(ConfigError):
        aggregate_covariance(design, default_channels, default_config, 0, 4)


# ---------------------------------------------------------------------------
# MSE matrix
# ---------------------------------------------------------------------------

def test_mse_zero_receiver_gives_identity():
    rng = np.random.default_rng(3)
    h = crandn_t(rng, (3, 2))
    v = crandn_t(rng, (2, 2))
    sigma = random_psd(rng, 3)
    e = mse_matrix(np.zeros((3, 2), dtype=complex), v, sigma, h)
    assert np.allclose(e, np.eye(2), atol=1e-15)


def test_mse_aligned_receiver_leaves_noise_term():
    # U^H H V = I makes the signal part vanish; with Sigma = s I the MSE is
    # exactly s U^H U
    rng = np.random.default_rng(4)
    h = crandn_t(rng, (2, 2))
    v = crandn_t(rng, (2, 2))
    u = np.linalg.inv((h @ v).conj().T)
    s = 0.37
    e = mse_matrix(u, v, s * np.eye(2), h)
    assert np.max(np.abs(e - s * u.conj().T @ u)) < 1e-12


def test_config_takes_fleet_distortion_stacks():
    # a fleet's config stacks each direction's vectors to (B, N), one row per
    # member, and is validated like any other
    base = SystemConfig.from_scalars(tx_antennas=(2, 3), rx_antennas=(3, 2))
    stack = tuple(np.stack([v, 2 * v]) for v in base.tx_distortion)
    fleet = dataclasses.replace(base, tx_distortion=stack)
    assert [v.shape for v in fleet.tx_distortion] == [(2, 2), (2, 3)]
    assert all(np.array_equal(a, b) for a, b in zip(fleet.tx_distortion, stack))
    for bad in (stack[::-1], tuple(v[None] for v in stack), (stack[0], -stack[1])):
        with pytest.raises(ConfigError, match="tx_distortion"):
            dataclasses.replace(base, tx_distortion=bad)


def test_mse_dimension_mismatch_raises():
    with pytest.raises(ConfigError):
        mse_matrix(np.zeros((3, 1), dtype=complex), np.zeros((2, 1), dtype=complex),
                   np.eye(2), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# rate
# ---------------------------------------------------------------------------

def test_rate_zero_precoder_is_zero():
    h = np.ones((2, 2), dtype=complex)
    assert rate(np.zeros((2, 1), dtype=complex), np.eye(2), h) == 0.0


def test_rate_scalar_one_bit():
    # tolerance leaves room for the solver's relative ridge (1e-12)
    one = np.ones((1, 1), dtype=complex)
    assert abs(rate(one, np.eye(1), one) - 1.0) < 1e-11


def test_rate_equals_log_det_of_mmse_error():
    rng = np.random.default_rng(6)
    for _ in range(50):
        m, n, d = rng.integers(1, 4, size=3)
        h = crandn_t(rng, (m, n))
        v = crandn_t(rng, (n, d))
        sigma = random_psd(rng, m)
        e = mmse_error(v, sigma, h)
        sign, logdet = np.linalg.slogdet(e)
        assert sign.real > 0
        assert abs(rate(v, sigma, h) + logdet / np.log(2.0)) < 1e-8


# ---------------------------------------------------------------------------
# power
# ---------------------------------------------------------------------------

def test_power_zero_precoder():
    assert power_usage(np.zeros((4, 2, 1), dtype=complex), np.zeros(2)) == 0.0


def test_power_uniform_kappa_example():
    # Frobenius sum 3.0 with kappa = 0.01 per chain -> (1 + 0.01) * 3.0
    k, kappa = 3, 0.01
    v = np.zeros((k, 2, 1), dtype=complex)
    v[0, 0, 0] = 1.0
    v[1, 1, 0] = 1.0
    v[2, 0, 0] = 1.0j
    assert abs(np.sum(np.abs(v) ** 2) - 3.0) < 1e-15
    theta = np.full(2, kappa / k)
    assert abs(power_usage(v, theta) - 3.03) < 1e-12


def test_power_per_chain_vector_against_matrix_oracle():
    # per-chain coefficients (0.1, 0): only the first row's power is taxed
    rng = np.random.default_rng(7)
    k = 4
    v = crandn_t(rng, (k, 2, 2))
    # normalize row sums to norms 1 and 2 across the subcarrier sum
    row = np.sqrt(np.einsum("knd,knd->n", v, v.conj()).real)
    v = v / row[None, :, None] * np.array([1.0, 2.0])[None, :, None]
    kappa_vec = np.array([0.1, 0.0])
    theta = kappa_vec / k
    # direct matrix-product oracle: tr((I + K Theta) sum_l V V^H)
    gram = sum(v[l] @ v[l].conj().T for l in range(k))
    oracle = np.trace((np.eye(2) + k * np.diag(theta)) @ gram).real
    assert abs(power_usage(v, theta) - oracle) < 1e-12
    assert abs(oracle - (1.0 * 1.1 + 4.0 * 1.0)) < 1e-12


def test_power_right_unitary_invariance():
    rng = np.random.default_rng(8)
    v = crandn_t(rng, (3, 3, 2))
    q, _ = np.linalg.qr(crandn_t(rng, (2, 2)))
    theta = np.array([0.05, 0.0, 0.2]) / 3
    assert abs(power_usage(v, theta) - power_usage(v @ q, theta)) < 1e-12


# ---------------------------------------------------------------------------
# weighted objective and evaluation report
# ---------------------------------------------------------------------------

def _design_from(precoders, decoders, config):
    weights = [np.broadcast_to(np.eye(config.streams[i], dtype=complex),
                               (config.subcarriers, config.streams[i],
                                config.streams[i])).copy() for i in DIRECTIONS]
    return TransceiverDesign(tuple(precoders), tuple(decoders), tuple(weights))


def weighted_mse_objective(design, channels, config):
    """sum_i sum_k tr(S_i^k E_i^k) on the true channels, cancellation
    referenced to them: the one-scenario stack of the design objective."""
    shares, g = _stack([(1.0, channels.h)])
    sigmas = covariance_stacks(design.precoders, g, config, (None, None))
    return _design_objective(design.precoders, design.decoders,
                             design.mse_weights, shares, g, sigmas)


def test_weighted_objective_zero_receivers():
    rng = np.random.default_rng(9)
    config, channels, precoders, decoders = _random_setup(rng)
    zero_u = [np.zeros_like(u) for u in decoders]
    design = _design_from(precoders, zero_u, config)
    value = weighted_mse_objective(design, channels, config)
    expected = config.subcarriers * sum(config.streams)
    assert abs(value - expected) < 1e-12


def test_weighted_objective_scales_linearly_in_weights():
    rng = np.random.default_rng(10)
    config, channels, precoders, decoders = _random_setup(rng)
    design = _design_from(precoders, decoders, config)
    base = weighted_mse_objective(design, channels, config)
    c = 2.7
    scaled = TransceiverDesign(
        design.precoders, design.decoders,
        tuple(c * w for w in design.mse_weights))
    value = weighted_mse_objective(scaled, channels, config)
    assert abs(value - c * base) < 1e-10 * max(1.0, abs(base))


def test_weighted_objective_is_sum_of_mse_traces():
    rng = np.random.default_rng(11)
    config, channels, precoders, decoders = _random_setup(rng)
    design = _design_from(precoders, decoders, config)
    total = 0.0
    stacks = covariance_stacks(precoders, channels.h, config, (None, None))
    for i in DIRECTIONS:
        for k in range(config.subcarriers):
            e = mse_matrix(decoders[i][k], precoders[i][k], stacks[i][k],
                           channels.h[(i, i)][k])
            total += np.trace(e).real
    assert abs(weighted_mse_objective(design, channels, config) - total) < 1e-12


@pytest.mark.parametrize("shares", [(0.25, 0.75), (-0.0, -0.0)])
def test_design_objective_adds_terms_from_the_left(shares):
    # reference: the (scenario, i, k) terms added one at a time to 0.0. On
    # this draw, with the directions' weights five decades apart, a reversed
    # or a pairwise sum differs in the last bits; all -0.0 terms sum to +0.0
    rng = np.random.default_rng(16)
    config, channels, precoders, decoders = _random_setup(rng)
    shares, g = _stack([(shares[0], channels.h),
                        (shares[1], {p: 1.1 * h for p, h in channels.h.items()})])
    weights = [scale * np.broadcast_to(np.eye(config.streams[i], dtype=complex),
                                       (config.subcarriers,) + (config.streams[i],) * 2)
               for i, scale in zip(DIRECTIONS, (3.0, 1e-5))]
    sigmas = covariance_stacks(precoders, g, config, (None, None))
    errors = mse_stacks(precoders, decoders, g, sigmas)
    total = 0.0
    for s, share in enumerate(shares):
        for i in DIRECTIONS:
            for k in range(config.subcarriers):
                total += share * np.trace(weights[i][k] @ errors[i][s, k]).real
    value = _design_objective(precoders, decoders, weights, shares, g, sigmas)
    assert np.float64(value).tobytes() == np.float64(total).tobytes()


def test_evaluate_design_report_contents(perfect_channels, perfect_csi_config):
    rng = np.random.default_rng(12)
    config = perfect_csi_config
    precoders = [crandn_t(rng, (config.subcarriers, config.tx_antennas[i],
                                config.streams[i])) for i in DIRECTIONS]
    decoders = [crandn_t(rng, (config.subcarriers, config.rx_antennas[i],
                               config.streams[i])) for i in DIRECTIONS]
    design = _design_from(precoders, decoders, config)
    report = evaluate_design(design, perfect_channels, config)
    assert report.mse.shape == (2, config.subcarriers)
    assert report.rate_bits.shape == (2, config.subcarriers)
    assert np.all(report.rate_bits >= 0)
    for i in DIRECTIONS:
        expected = power_usage(precoders[i], config.tx_distortion[i])
        assert abs(report.power[i] - expected) < 1e-12


def test_evaluate_design_matches_per_subcarrier_loop(default_config,
                                                     default_channels):
    # the stacked evaluator against one mse_matrix / rate call per (i, k),
    # with the cancellation residual of the CSI error added by hand; the
    # arithmetic per subcarrier is the same, so the results are equal
    rng = np.random.default_rng(13)
    config, channels = default_config, default_channels
    precoders = [crandn_t(rng, (config.subcarriers, config.tx_antennas[i],
                                config.streams[i])) for i in DIRECTIONS]
    decoders = [crandn_t(rng, (config.subcarriers, config.rx_antennas[i],
                               config.streams[i])) for i in DIRECTIONS]
    report = evaluate_design(_design_from(precoders, decoders, config),
                             channels, config)
    stacks = covariance_stacks(precoders, channels.h, config, (None, None))
    for i in DIRECTIONS:
        j = 1 - i
        resid = channels.h[(i, j)] - channels.h_est[(i, j)]
        assert np.any(resid)
        for k in range(config.subcarriers):
            dv = resid[k] @ precoders[j][k]
            sigma = stacks[i][k] + dv @ dv.conj().T
            h = channels.h[(i, i)][k]
            e = mse_matrix(decoders[i][k], precoders[i][k], sigma, h)
            assert report.mse[i, k] == np.trace(e).real
            assert report.rate_bits[i, k] == rate(precoders[i][k], sigma, h)
