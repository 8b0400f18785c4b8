"""Alternating weighted-MSE solver: initialization, block-update optimality
(checked against an independent projected-gradient solver on the recovered
quadratic), dual behavior, and whole-run contracts."""

import numpy as np
import pytest

from conftest import crandn_t
from fdlink import (ChannelRealization, ConfigError, SystemConfig,
                    mmse_error_matrix, mse_matrix, power_usage, run_altqcp,
                    update_precoders, update_receivers)
from fdlink.altqcp import (SolverOptions, _design_objective, _solve_power_dual,
                           identity_weights, init_precoders, leakage_matrix,
                           run_altqcp_scenarios)
from fdlink.model import DIRECTIONS, PAIRS, covariance_stacks


def _flat_channels(values, subcarriers=1):
    h = {pair: np.full((subcarriers, 1, 1), values[pair], dtype=complex)
         for pair in PAIRS}
    return ChannelRealization(h=h, h_est={p: h[p].copy() for p in PAIRS},
                              csi_radius={p: np.zeros(subcarriers) for p in PAIRS})


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_init_rsm_power_is_exact(default_config, default_channels):
    v = init_precoders(default_channels, default_config, "rsm")
    for i in DIRECTIONS:
        used = power_usage(v[i], default_config.tx_distortion[i],
                           default_config.subcarriers)
        assert abs(used - default_config.p_max[i]) < 1e-10


def test_init_rsm_columns_orthonormal_before_scaling():
    config = SystemConfig.from_scalars(subcarriers=3, antennas=3, streams=2,
                                       csi_radius=0.0)
    rng = np.random.default_rng(0)
    h = {pair: crandn_t(rng, (3, 3, 3)) for pair in PAIRS}
    channels = ChannelRealization(h=h, h_est={p: h[p].copy() for p in PAIRS},
                                  csi_radius={p: np.zeros(3) for p in PAIRS})
    v = init_precoders(channels, config, "rsm")
    for i in DIRECTIONS:
        grams = np.einsum("knd,kne->kde", v[i].conj(), v[i])
        scale = grams[0, 0, 0].real
        for k in range(3):
            assert np.max(np.abs(grams[k] - scale * np.eye(2))) < 1e-12 * scale


def test_init_rsm_unitary_channel_gives_unitary_precoder():
    # full-stream design on a unitary channel: V is a scaled unitary matrix
    config = SystemConfig.from_scalars(subcarriers=2, antennas=2, streams=2,
                                       csi_radius=0.0)
    rng = np.random.default_rng(1)
    q = [np.linalg.qr(crandn_t(rng, (2, 2)))[0] for _ in range(2)]
    h = {pair: np.stack(q) for pair in PAIRS}
    channels = ChannelRealization(h=h, h_est={p: h[p].copy() for p in PAIRS},
                                  csi_radius={p: np.zeros(2) for p in PAIRS})
    v = init_precoders(channels, config, "rsm")
    for i in DIRECTIONS:
        gram = v[i][0].conj().T @ v[i][0]
        assert np.max(np.abs(gram - gram[0, 0] * np.eye(2))) < 1e-12
        used = power_usage(v[i], config.tx_distortion[i], 2)
        assert abs(used - config.p_max[i]) < 1e-10


def test_init_random_seeded_and_unknown_mode(default_config, default_channels):
    a = init_precoders(default_channels, default_config, "random", seed=5)
    b = init_precoders(default_channels, default_config, "random", seed=5)
    c = init_precoders(default_channels, default_config, "random", seed=6)
    assert np.array_equal(a[0], b[0])
    assert not np.allclose(a[0], c[0])
    with pytest.raises(ConfigError):
        init_precoders(default_channels, default_config, "steepest")


# ---------------------------------------------------------------------------
# receiver update
# ---------------------------------------------------------------------------

def test_receiver_scalar_closed_form():
    # h = 1, v = 1, aggregate covariance 1 -> u = 1/2 and E = 1/2
    config = SystemConfig.from_scalars(subcarriers=1, antennas=1, streams=1,
                                       noise_var=1.0, kappa=0.0, beta=0.0,
                                       csi_radius=0.0)
    channels = _flat_channels({(0, 0): 1.0, (1, 1): 1.0, (0, 1): 0.0, (1, 0): 0.0})
    precoders = [np.ones((1, 1, 1), dtype=complex) for _ in DIRECTIONS]
    decoders = update_receivers(precoders, channels, config)
    for i in DIRECTIONS:
        assert abs(decoders[i][0, 0, 0] - 0.5) < 1e-9
        e = mse_matrix(decoders[i][0], precoders[i][0], np.eye(1),
                       channels.h[(i, i)][0])
        assert abs(e[0, 0] - 0.5) < 1e-9


def test_receiver_zero_precoder_gives_zero(default_config, default_channels):
    precoders = [np.zeros((default_config.subcarriers,
                           default_config.tx_antennas[i],
                           default_config.streams[i]), dtype=complex)
                 for i in DIRECTIONS]
    decoders = update_receivers(precoders, default_channels, default_config)
    for i in DIRECTIONS:
        assert np.max(np.abs(decoders[i])) < 1e-9


def test_receiver_first_order_optimality(default_config, default_channels):
    # perturbing any entry of U by +/-1e-4 never lowers tr(S E); the central
    # finite-difference gradient at the closed form is numerically zero
    config, channels = default_config, default_channels
    v = init_precoders(channels, config, "rsm")
    decoders = update_receivers(v, channels, config)
    weights = identity_weights(config)
    sigmas = covariance_stacks(v, channels.h_est, config)

    def objective(u_list):
        total = 0.0
        for i in DIRECTIONS:
            for k in range(config.subcarriers):
                e = mse_matrix(u_list[i][k], v[i][k], sigmas[i][k],
                               channels.h_est[(i, i)][k])
                total += np.trace(weights[i][k] @ e).real
        return total

    base = objective(decoders)
    rng = np.random.default_rng(2)
    grad_sq = 0.0
    for i in DIRECTIONS:
        for k in range(config.subcarriers):
            for m in range(config.rx_antennas[i]):
                for d in range(config.streams[i]):
                    for direction in (1.0, 1.0j):
                        h = 1e-4 * direction
                        up = [u.copy() for u in decoders]
                        up[i][k, m, d] += h
                        down = [u.copy() for u in decoders]
                        down[i][k, m, d] -= h
                        fu, fd = objective(up), objective(down)
                        assert fu >= base - 1e-12
                        assert fd >= base - 1e-12
                        grad_sq += ((fu - fd) / (2e-4)) ** 2
    assert np.sqrt(grad_sq) < 1e-6
    del rng


# ---------------------------------------------------------------------------
# leakage matrix
# ---------------------------------------------------------------------------

def test_leakage_zero_cases(default_config, default_channels):
    config0 = SystemConfig.from_scalars(kappa=0.0, beta=0.0, csi_radius=0.0)
    v = init_precoders(default_channels, config0, "rsm")
    u = update_receivers(v, default_channels, config0)
    s = identity_weights(config0)
    j = leakage_matrix(u, s, default_channels, config0, 0, 0)
    assert np.max(np.abs(j)) < 1e-15
    zero_u = [np.zeros_like(x) for x in u]
    j = leakage_matrix(zero_u, s, default_channels, default_config, 1, 2)
    assert np.max(np.abs(j)) < 1e-15


def test_leakage_scalar_hand_expansion():
    # K=1 scalars: J_i = sum_j |h_ji|^2 |u_j|^2 S_j (beta_j + kappa_i)
    kappa, beta = 0.04, 0.07
    config = SystemConfig.from_scalars(subcarriers=1, antennas=1, streams=1,
                                       noise_var=0.1, kappa=kappa, beta=beta,
                                       csi_radius=0.0)
    h = {(0, 0): 1.3 + 0.2j, (0, 1): 0.5 - 0.4j, (1, 0): -0.2 + 0.9j,
         (1, 1): 0.8 + 0.1j}
    channels = _flat_channels(h)
    u0, u1 = 0.6 - 0.3j, -0.2 + 0.5j
    s0, s1 = 1.7, 0.9
    decoders = [np.full((1, 1, 1), u0), np.full((1, 1, 1), u1)]
    weights = [np.full((1, 1, 1), s0, dtype=complex),
               np.full((1, 1, 1), s1, dtype=complex)]
    for i in DIRECTIONS:
        expected = sum(
            abs(h[(j, i)]) ** 2 * abs([u0, u1][j]) ** 2 * [s0, s1][j]
            * (beta + kappa)
            for j in DIRECTIONS)
        got = leakage_matrix(decoders, weights, channels, config, i, 0)
        assert abs(got[0, 0] - expected) < 1e-12


# ---------------------------------------------------------------------------
# precoder update: dual behavior and the independent convex oracle
# ---------------------------------------------------------------------------

def test_precoder_slack_constraint_unconstrained_form(default_config,
                                                      default_channels):
    # decoders from a unit-power design, then a huge budget: the closed-form
    # minimizer lands strictly inside and the multiplier is exactly zero
    huge = default_config.replace(p_max=(1e9, 1e9))
    v0 = init_precoders(default_channels, default_config, "rsm")
    u = update_receivers(v0, default_channels, default_config)
    s = identity_weights(default_config)
    v, duals = update_precoders(u, s, default_channels, huge)
    assert duals == (0.0, 0.0)
    for i in DIRECTIONS:
        assert power_usage(v[i], huge.tx_distortion[i], 4) < huge.p_max[i]


def test_precoder_tight_constraint_complementary_slackness(default_channels):
    config = SystemConfig.from_scalars(p_max=0.05, csi_radius=0.0)
    v0 = init_precoders(default_channels, config, "rsm")
    u = update_receivers(v0, default_channels, config)
    s = identity_weights(config)
    v, duals = update_precoders(u, s, default_channels, config)
    for i in DIRECTIONS:
        used = power_usage(v[i], config.tx_distortion[i], 4)
        assert duals[i] > 0
        assert abs(used - config.p_max[i]) < 1e-9


def test_power_dual_residual_monotone_in_iota():
    # the bisection's footing: transmit power is non-increasing along iota
    rng = np.random.default_rng(3)
    k, n, d = 3, 4, 2
    a = np.stack([rng.standard_normal((n, n)) for _ in range(k)])
    quad = np.einsum("kij,klj->kil", a, a) + 0j
    rhs = crandn_t(rng, (k, n, d))
    scale = 1.0 + 4 * np.abs(rng.standard_normal(n)) * 1e-3
    grid = np.logspace(-4, 4, 40)
    powers = []
    for iota in grid:
        v = np.linalg.solve(quad + iota * np.diag(scale)[None], rhs)
        powers.append(float(np.einsum("knd,n,knd->", v, scale, v.conj()).real))
    assert np.all(np.diff(powers) <= 1e-12)


def test_power_dual_zero_budget_and_zero_rhs():
    quad = np.broadcast_to(np.eye(2, dtype=complex), (2, 2, 2)).copy()
    rhs = np.zeros((2, 2, 1), dtype=complex)
    v, iota = _solve_power_dual(quad, rhs, np.ones(2), 1.0, 1e-9)
    assert iota == 0.0 and np.all(v == 0)
    rhs = np.ones((2, 2, 1), dtype=complex)
    v, iota = _solve_power_dual(quad, rhs, np.ones(2), 0.0, 1e-9)
    assert iota == 0.0 and np.all(v == 0)


def _recover_quadratic(func, n, step=0.5):
    """Exact quadratic model of func: R^n -> R from second differences."""
    base = func(np.zeros(n))
    lin = np.zeros(n)
    quad = np.zeros((n, n))
    plus = np.zeros(n)
    for a in range(n):
        e = np.zeros(n)
        e[a] = step
        fp, fm = func(e), func(-e)
        plus[a] = fp
        lin[a] = (fp - fm) / (2 * step)
        quad[a, a] = (fp + fm - 2 * base) / (2 * step ** 2)
    for a in range(n):
        for b in range(a + 1, n):
            e = np.zeros(n)
            e[a] = step
            e[b] = step
            fab = func(e)
            quad[a, b] = quad[b, a] = (
                fab - plus[a] - plus[b] + base) / (2 * step ** 2)
    return quad, lin, base


def _project_ball(x, scale_sqrt, radius):
    y = scale_sqrt * x
    norm = np.linalg.norm(y)
    if norm > radius:
        y *= radius / norm
    return y / scale_sqrt


def _accelerated_pgd(quad, lin, scale, radius_sq, x0, iters=4000):
    """Projected gradient with Nesterov momentum on x'Qx + l'x over the
    ellipsoid x' diag(scale) x <= radius_sq."""
    scale_sqrt = np.sqrt(scale)
    lam = np.linalg.eigvalsh(quad / scale_sqrt[:, None] / scale_sqrt[None, :])
    step = 1.0 / (2 * max(lam.max(), 1e-12))
    x = _project_ball(x0, scale_sqrt, np.sqrt(radius_sq))
    y = x.copy()
    t = 1.0
    for _ in range(iters):
        grad = 2 * quad @ y + lin
        x_new = _project_ball(y - step * (grad / scale), scale_sqrt,
                              np.sqrt(radius_sq))
        t_new = 0.5 * (1 + np.sqrt(1 + 4 * t * t))
        y = x_new + ((t - 1) / t_new) * (x_new - x)
        x, t = x_new, t_new
    return x, float(x @ quad @ x + lin @ x)


def test_precoder_update_matches_independent_convex_solver(default_config,
                                                           default_channels):
    """The closed-form precoder step must match an independently-solved convex
    program: the objective (a black-box function of one direction's precoder)
    is rebuilt exactly from second differences, then minimized by accelerated
    projected gradient from 20 random starts."""
    config, channels = default_config, default_channels
    rng = np.random.default_rng(4)
    v_init = init_precoders(channels, config, "random", seed=7)
    u = update_receivers(v_init, channels, config)
    s = identity_weights(config)
    v_star, duals = update_precoders(u, s, channels, config)
    scenarios = [(1.0, channels.h_est)]

    for i in DIRECTIONS:
        shape = v_star[i].shape
        n_real = 2 * int(np.prod(shape))

        def embed(x):
            z = x[:n_real // 2] + 1j * x[n_real // 2:]
            stack = [np.zeros_like(v_star[j]) for j in DIRECTIONS]
            stack[i] = z.reshape(shape)
            return stack

        def func(x):
            return _design_objective(embed(x), u, s, scenarios,
                                     channels.h_est, config)

        quad, lin, base = _recover_quadratic(func, n_real)
        # constraint: sum over complex entries of scale_n |v|^2 <= P
        scale_n = 1.0 + config.subcarriers * config.tx_distortion[i]
        per_entry = np.repeat(scale_n, shape[0] * shape[2])
        scale = np.concatenate([per_entry, per_entry])
        best = np.inf
        for _ in range(20):
            x0 = rng.standard_normal(n_real)
            _, val = _accelerated_pgd(quad, lin, scale, config.p_max[i], x0)
            best = min(best, val + base)
        solver_val = _design_objective(
            [v_star[j] if j == i else np.zeros_like(v_star[j])
             for j in DIRECTIONS], u, s, scenarios, channels.h_est, config)
        assert solver_val <= best + 1e-9
        assert abs(solver_val - best) < 1e-6 * max(abs(best), 1.0)
    del duals


# ---------------------------------------------------------------------------
# whole-run contracts
# ---------------------------------------------------------------------------

def test_run_monotone_and_converges(default_config, default_channels):
    design, report = run_altqcp(default_channels, default_config)
    trace = np.asarray(report.objective_trace)
    assert np.all(np.diff(trace) <= 1e-9)
    assert np.all(trace >= 0)
    assert report.converged and report.iterations <= 30
    # every half step also descends
    flat = [trace[0]]
    for after_v, after_u in report.extras["half_step_objectives"]:
        flat.extend([after_v, after_u])
    assert np.all(np.diff(flat) <= 1e-9)


def test_run_complementary_slackness(default_config, default_channels):
    _, report = run_altqcp(default_channels, default_config)
    for slack in report.extras["power_slackness"]:
        for i in DIRECTIONS:
            iota, used = slack[i]
            assert abs(iota * (used - default_config.p_max[i])) < 1e-7
            assert used <= default_config.p_max[i] + 1e-7


def test_run_single_direction_reaches_mmse_fixed_point():
    # ideal hardware and a silent second direction: plain MMSE point; the
    # objective of an extra iteration moves less than 1e-8
    config = SystemConfig.from_scalars(subcarriers=1, antennas=1, streams=1,
                                       p_max=(1.0, 0.0), noise_var=0.1,
                                       kappa=0.0, beta=0.0, csi_radius=0.0)
    channels = _flat_channels({(0, 0): 1.1 - 0.4j, (1, 1): 0.7,
                               (0, 1): 0.3 + 0.2j, (1, 0): -0.5j})
    design, report = run_altqcp(channels, config,
                                SolverOptions(max_iters=100, rel_tol=1e-14))
    assert np.max(np.abs(design.precoders[1])) == 0.0
    trace = report.objective_trace
    assert abs(trace[-1] - trace[-2]) < 1e-8
    # at the fixed point the receiver error matches the MMSE closed form
    sigma = covariance_stacks(design.precoders, channels.h_est, config)[0][0]
    e = mse_matrix(design.decoders[0][0], design.precoders[0][0], sigma,
                   channels.h_est[(0, 0)][0])
    closed = mmse_error_matrix(design.precoders[0][0], sigma,
                               channels.h_est[(0, 0)][0])
    assert np.max(np.abs(e - closed)) < 1e-10


def test_scenario_average_stays_monotone(default_config, default_channels):
    rng = np.random.default_rng(8)
    bumped = {pair: default_channels.h_est[pair]
              + 0.01 * crandn_t(rng, default_channels.h_est[pair].shape)
              for pair in PAIRS}
    scenarios = [(0.5, default_channels.h_est), (0.5, bumped)]
    _, report = run_altqcp_scenarios(scenarios, default_channels.h_est,
                                     default_config, SolverOptions(),
                                     channels_for_init=default_channels)
    trace = np.asarray(report.objective_trace)
    assert np.all(np.diff(trace) <= 1e-9)


def test_run_is_deterministic(default_config, default_channels):
    d1, r1 = run_altqcp(default_channels, default_config)
    d2, r2 = run_altqcp(default_channels, default_config)
    assert np.array_equal(d1.precoders[0], d2.precoders[0])
    assert r1.objective_trace == r2.objective_trace
