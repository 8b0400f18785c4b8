"""Alternating weighted-MSE solver: initialization, block-update optimality
(checked against an independent projected-gradient solver on the recovered
quadratic), dual behavior, and whole-run contracts."""

import dataclasses
import re

import numpy as np
import pytest

from conftest import crandn_t, mmse_error, random_precoders
from fdlink import (ChannelRealization, ChannelStats, ConfigError, DualSearchError,
                    SystemConfig, draw_channels, mse_matrix, perturb_csi, power_usage,
                    run_altqcp, run_baseline, update_precoders, update_receivers)
from fdlink.altqcp import (POWER_REL_TOL, DesignProblem, SolverOptions, _capped_power_dual,
                           _design_objective, _leakage_stacks, _precoder_step,
                           _receiver_step, _solve_power_dual, _weighted_decoder_grams,
                           fleet_key, identity_weights, init_precoders,
                           run_altqcp_scenarios)
from fdlink.baselines import DESIGNERS, design_problem
from fdlink.harness import ExperimentSpec
from fdlink.model import (DIRECTIONS, PAIRS, _sic_residual, _stack,
                          covariance_stacks)
from fdlink.util import herm, stabilized


def _flat_channels(values, subcarriers=1):
    h = {pair: np.full((subcarriers, 1, 1), values[pair], dtype=complex)
         for pair in PAIRS}
    return ChannelRealization(h=h, h_est={p: h[p].copy() for p in PAIRS},
                              csi_radius={p: np.zeros(subcarriers) for p in PAIRS})


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_init_rsm_power_is_exact(default_config, default_channels):
    v = init_precoders(default_channels.h_est, default_config)
    for i in DIRECTIONS:
        used = power_usage(v[i], default_config.tx_distortion[i])
        assert abs(used - default_config.p_max[i]) < 1e-10


def test_init_rsm_columns_orthonormal_before_scaling():
    config = SystemConfig.from_scalars(subcarriers=3, antennas=3, streams=2)
    rng = np.random.default_rng(0)
    h = {pair: crandn_t(rng, (3, 3, 3)) for pair in PAIRS}
    channels = ChannelRealization(h=h, h_est={p: h[p].copy() for p in PAIRS},
                                  csi_radius={p: np.zeros(3) for p in PAIRS})
    v = init_precoders(channels.h_est, config)
    for i in DIRECTIONS:
        grams = np.einsum("knd,kne->kde", v[i].conj(), v[i])
        scale = grams[0, 0, 0].real
        for k in range(3):
            assert np.max(np.abs(grams[k] - scale * np.eye(2))) < 1e-12 * scale


def test_init_rsm_unitary_channel_gives_unitary_precoder():
    # full-stream design on a unitary channel: V is a scaled unitary matrix
    config = SystemConfig.from_scalars(subcarriers=2, antennas=2, streams=2)
    rng = np.random.default_rng(1)
    q = [np.linalg.qr(crandn_t(rng, (2, 2)))[0] for _ in range(2)]
    h = {pair: np.stack(q) for pair in PAIRS}
    channels = ChannelRealization(h=h, h_est={p: h[p].copy() for p in PAIRS},
                                  csi_radius={p: np.zeros(2) for p in PAIRS})
    v = init_precoders(channels.h_est, config)
    for i in DIRECTIONS:
        gram = v[i][0].conj().T @ v[i][0]
        assert np.max(np.abs(gram - gram[0, 0] * np.eye(2))) < 1e-12
        used = power_usage(v[i], config.tx_distortion[i])
        assert abs(used - config.p_max[i]) < 1e-10


# ---------------------------------------------------------------------------
# receiver update
# ---------------------------------------------------------------------------

def test_receiver_scalar_closed_form():
    # h = 1, v = 1, aggregate covariance 1 -> u = 1/2 and E = 1/2
    config = SystemConfig.from_scalars(subcarriers=1, antennas=1, streams=1,
                                       noise_var=1.0, kappa=0.0, beta=0.0)
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
    v = init_precoders(channels.h_est, config)
    decoders = update_receivers(v, channels, config)
    weights = identity_weights(config)
    sigmas = covariance_stacks(v, channels.h_est, config, (None, None))

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
    config0 = SystemConfig.from_scalars(kappa=0.0, beta=0.0)
    v = init_precoders(default_channels.h_est, config0)
    u = update_receivers(v, default_channels, config0)
    s = identity_weights(config0)
    shares, g = _stack([(1.0, default_channels.h_est)])
    j = _leakage_stacks(_weighted_decoder_grams(u, s), shares, g, config0)[0][0]
    assert np.max(np.abs(j)) < 1e-15
    zero_u = [np.zeros_like(x) for x in u]
    j = _leakage_stacks(_weighted_decoder_grams(zero_u, s), shares, g,
                        default_config)[1][2]
    assert np.max(np.abs(j)) < 1e-15


def test_leakage_scalar_hand_expansion():
    # K=1 scalars: J_i = sum_j |h_ji|^2 |u_j|^2 S_j (beta_j + kappa_i)
    kappa, beta = 0.04, 0.07
    config = SystemConfig.from_scalars(subcarriers=1, antennas=1, streams=1,
                                       noise_var=0.1, kappa=kappa, beta=beta)
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
        got = _leakage_stacks(_weighted_decoder_grams(decoders, weights),
                              *_stack([(1.0, channels.h_est)]), config)[i][0]
        assert abs(got[0, 0] - expected) < 1e-12


# ---------------------------------------------------------------------------
# scenario stack: one reduction over S against an explicit per-scenario loop
# ---------------------------------------------------------------------------

def _three_scenarios(channels):
    rng = np.random.default_rng(9)
    bumped = [{pair: channels.h_est[pair]
               + 0.05 * crandn_t(rng, channels.h_est[pair].shape)
               for pair in PAIRS} for _ in range(2)]
    return list(zip((0.5, 0.3, 0.2), [channels.h_est] + bumped))


def _assert_close(got, ref, rel=1e-12):
    assert np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref))


def test_stacked_sigma_matches_per_scenario_loop(default_config, default_channels):
    config, h_est = default_config, default_channels.h_est
    scenarios = _three_scenarios(default_channels)
    v = random_precoders(config, 3)
    stack = _stack(scenarios)[1]
    stacked = covariance_stacks(v, stack, config, _sic_residual(stack, h_est))
    for s, (_, g) in enumerate(scenarios):
        ref = covariance_stacks(v, g, config, (None, None))
        for i in DIRECTIONS:
            dv = (g[(i, 1 - i)] - h_est[(i, 1 - i)]) @ v[1 - i]
            _assert_close(stacked[i][s], ref[i] + dv @ dv.conj().swapaxes(1, 2))


def test_stacked_receiver_step_matches_per_scenario_loop(default_config,
                                                         default_channels):
    config, h_est = default_config, default_channels.h_est
    scenarios = _three_scenarios(default_channels)
    shares, g = _stack(scenarios)
    v = random_precoders(config, 3)
    sigmas = covariance_stacks(v, g, config, _sic_residual(g, h_est))
    got = _receiver_step(v, shares, g, sigmas)
    for i in DIRECTIONS:
        acc, rhs = 0.0, 0.0
        for s, (weight, scenario) in enumerate(scenarios):
            hv = scenario[(i, i)] @ v[i]
            acc = acc + weight * (sigmas[i][s] + hv @ hv.conj().swapaxes(1, 2))
            rhs = rhs + weight * hv
        _assert_close(got[i], np.linalg.solve(stabilized(herm(acc)), rhs))


def test_stacked_precoder_step_matches_per_scenario_loop(default_config,
                                                         default_channels,
                                                         monkeypatch):
    # the quadratic and linear terms the power dual receives are the
    # share-weighted sums of each one-scenario step's terms
    import fdlink.altqcp as altqcp
    config, h_est = default_config, default_channels.h_est
    scenarios = _three_scenarios(default_channels)
    v0 = random_precoders(config, 3)
    u = update_receivers(v0, default_channels, config)
    weights = [w * np.eye(1) + 0j for w in (1.5, 0.7)]
    weights = [np.broadcast_to(w, (config.subcarriers, 1, 1)) for w in weights]
    solve, seen = altqcp._solve_power_dual, []

    def recorded(quad, rhs, *rest):
        seen.append((quad, rhs))
        return solve(quad, rhs, *rest)

    monkeypatch.setattr(altqcp, "_solve_power_dual", recorded)
    shares, g = _stack(scenarios)
    got, duals, _ = _precoder_step(u, weights, shares, g, h_est,
                                   _sic_residual(g, h_est), config)
    stacked = seen[:]
    del seen[:]
    for _, h in scenarios:
        shares, g = _stack([(1.0, h)])
        _precoder_step(u, weights, shares, g, h_est, _sic_residual(g, h_est), config)
    for i in DIRECTIONS:                # one call per step, both directions stacked
        quad = sum(w * seen[s][0][i] for s, (w, _) in enumerate(scenarios))
        rhs = sum(w * seen[s][1][i] for s, (w, _) in enumerate(scenarios))
        _assert_close(stacked[0][0][i], quad)
        _assert_close(stacked[0][1][i], rhs)
        scale = 1.0 + config.subcarriers * config.tx_distortion[i]
        v, iota = solve(quad, rhs, scale, config.p_max[i], 1e-9 * config.p_max[i])
        _assert_close(got[i], v)
        assert abs(duals[i] - iota) <= 1e-9 * iota


# ---------------------------------------------------------------------------
# precoder update: dual behavior and the independent convex oracle
# ---------------------------------------------------------------------------

def test_precoder_slack_constraint_unconstrained_form(default_config,
                                                      default_channels):
    # decoders from a unit-power design, then a huge budget: the closed-form
    # minimizer lands strictly inside and the multiplier is exactly zero
    huge = dataclasses.replace(default_config, p_max=(1e9, 1e9))
    v0 = init_precoders(default_channels.h_est, default_config)
    u = update_receivers(v0, default_channels, default_config)
    s = identity_weights(default_config)
    v, duals = update_precoders(u, s, default_channels, huge)
    assert duals == (0.0, 0.0)
    for i in DIRECTIONS:
        assert power_usage(v[i], huge.tx_distortion[i]) < huge.p_max[i]


def test_precoder_tight_constraint_complementary_slackness(default_channels):
    config = SystemConfig.from_scalars(p_max=0.05)
    v0 = init_precoders(default_channels.h_est, config)
    u = update_receivers(v0, default_channels, config)
    s = identity_weights(config)
    v, duals = update_precoders(u, s, default_channels, config)
    for i in DIRECTIONS:
        used = power_usage(v[i], config.tx_distortion[i])
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


def _bisected_power_dual(quad, rhs, scale, budget, steps=200):
    # reference: plain bisection on iota with the power from direct solves
    def power(iota):
        v = np.linalg.solve(quad + iota * np.diag(scale)[None], rhs)
        return float(np.einsum("knd,n,knd->", v, scale, v.conj()).real)

    lo, hi = 0.0, 1.0
    while power(hi) > budget:
        lo, hi = hi, 2.0 * hi
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if power(mid) > budget else (lo, mid)
    return 0.5 * (lo + hi)


def test_power_dual_matches_bisection():
    # rank-deficient stack: the power is unbounded as iota -> 0, so every
    # budget binds; at 1e-12 the dual is far above the spectrum, and at 1e10
    # a 1e-9 residual is below float resolution and the search must still end
    rng = np.random.default_rng(11)
    k, n, d = 3, 4, 2
    a = crandn_t(rng, (k, n, n - 1))
    quad = np.einsum("kij,klj->kil", a, a.conj())
    rhs = crandn_t(rng, (k, n, d))
    scale = 1.0 + 4 * np.abs(rng.standard_normal(n)) * 1e-3
    for budget in (1e-12, 1e-3, 1.0, 1e10):
        _, iota = _solve_power_dual(quad, rhs, scale, budget,
                                    min(1e-9, 1e-12 * budget))
        reference = _bisected_power_dual(quad, rhs, scale, budget)
        assert abs(iota - reference) <= 1e-8 * reference


@pytest.mark.parametrize("rank", ["full", "deficient"])
@pytest.mark.parametrize("budget", [1e-12, 1.0, 1e10])
def test_eigenbasis_power_dual_meets_kkt_conditions(rank, budget):
    # V read off the eigenbasis, from a cold start and from a warm start at
    # twice the cold dual: primal feasibility, complementary slackness, and
    # a vanishing Lagrangian gradient (A + iota B) V - C when iota > 0
    rng = np.random.default_rng(13)
    k, n, d = 3, 4, 2
    a = crandn_t(rng, (k, n, n if rank == "full" else n - 1))
    quad = herm(np.einsum("kij,klj->kil", a, a.conj()))
    rhs = crandn_t(rng, (k, n, d))
    scale = 1.0 + 4 * np.abs(rng.standard_normal(n)) * 1e-3
    tol = 1e-9 * budget
    _, cold = _solve_power_dual(quad, rhs, scale, budget, tol)
    for start in (0.0, 2.0 * cold):
        v, iota = _solve_power_dual(quad, rhs, scale, budget, tol, start)
        power = float(np.einsum("knd,n,knd->", v.conj(), scale, v).real)
        assert iota >= 0 and power <= budget + tol
        assert abs(iota * (power - budget)) <= iota * tol
        if iota > 0:
            assert abs(power - budget) <= tol
            residual = (quad + iota * np.diag(scale)) @ v - rhs
            assert np.linalg.norm(residual) <= 1e-9 * np.linalg.norm(rhs)
    # a rank-deficient A binds every budget; a full-rank one frees the largest
    assert (cold > 0) == (rank == "deficient" or budget < 1e10)


def _power_dual_searches(monkeypatch, channels, config, cold):
    """Runs altqcp once, counting each power-dual search's Newton steps as its
    secular evaluations after the first; cold restarts every search at 0.
    A search solves both directions at once, so it gives one (start, steps)
    per direction. Returns (iterations, [(start, steps)])."""
    import fdlink.util as util
    secular, root, searches, call = util._secular, util._rational_root, [], []

    def counted(*args):
        for search in call:
            search[1] += 1
        return secular(*args)

    def recorded(gap, weight, target, tol, start=0.0):
        call[:] = [[first, -1] for first in np.broadcast_to(start, len(gap)).tolist()]
        searches.extend(call)
        return root(gap, weight, target, tol, 0.0 if cold else start)

    monkeypatch.setattr(util, "_secular", counted)
    monkeypatch.setattr(util, "_rational_root", recorded)
    try:
        report = run_altqcp(channels, config)[1]
    finally:
        monkeypatch.undo()
    return report.iterations, searches


def test_warm_power_dual_saves_newton_steps(default_config, default_channels,
                                            monkeypatch):
    # the dual moves little between iterations, so a search started at the
    # last one needs few Newton steps
    iterations, warm = _power_dual_searches(monkeypatch, default_channels,
                                            default_config, cold=False)
    cold_iterations, cold = _power_dual_searches(monkeypatch, default_channels,
                                                 default_config, cold=True)
    assert iterations == cold_iterations
    started = [steps for start, steps in warm if start > 0]
    assert len(started) >= len(warm) // 2
    assert np.median(started) <= 3
    assert sum(steps for _, steps in warm) < sum(steps for _, steps in cold)


def _recorded_cap_calls(monkeypatch, start=None):
    """Wraps _capped_power_dual: each call appends one [probes, args, result]
    per problem it solves (a direction of the driver's one-member fleet), the
    probes counted as the _solve_power_dual calls of that problem solved
    alone; start, when given, replaces every call's (mu0, iota0)."""
    import fdlink.altqcp as altqcp
    capped, solve = altqcp._capped_power_dual, altqcp._solve_power_dual
    calls, probes = [], [0]

    def counted(*args, **kwargs):
        probes[0] += 1
        return solve(*args, **kwargs)

    def recorded(*args):
        args = args if start is None else (*args[:7], *start)
        result = capped(*args)
        for row in np.ndindex(args[0].shape[:-3]):
            alone, probes[0] = tuple(a[row] if np.ndim(a) else a for a in args), 0
            capped(*alone)
            calls.append([probes[0], alone, tuple(r[row] for r in result)])
        return result

    monkeypatch.setattr(altqcp, "_solve_power_dual", counted)
    monkeypatch.setattr(altqcp, "_capped_power_dual", recorded)
    return calls


@pytest.mark.parametrize("designer", ["altqcp", "wmmse"])
def test_capped_dual_newton_steps_and_cap_residual(default_config, default_channels,
                                                   monkeypatch, designer):
    # the search on mu from the previous step's multipliers; counts the
    # probes (exact power-dual solves) of each _capped_power_dual problem
    calls = _recorded_cap_calls(monkeypatch)
    for mode in ("pth_low", "pth_high"):
        run_baseline(mode, default_channels, default_config, designer=designer)
    assert max(probes for probes, _, _ in calls) <= 12
    assert any(mu > 0 for _, _, (_, _, mu) in calls)
    for _, args, (v, _, mu) in calls:
        fv, cap, tol = args[5] @ v, args[6], args[4]
        si = float(np.vdot(fv, fv).real)
        if mu > 0:
            assert abs(si - cap) <= max(tol, 1e-9 * cap)


def test_warm_cap_multiplier_saves_newton_steps(default_config, default_channels,
                                                monkeypatch):
    # the four pth runs of the default draw with each cap search started at
    # the previous step's multipliers, against the same runs with every
    # search started at (iota, mu) = (0, 0)
    def runs(start):
        monkeypatch.undo()
        calls = _recorded_cap_calls(monkeypatch, start)
        iterations = [run_baseline(mode, default_channels, default_config,
                                   designer=designer)[1].iterations
                      for mode in ("pth_low", "pth_high")
                      for designer in ("altqcp", "wmmse")]
        return iterations, sum(probes for probes, _, _ in calls), len(calls)

    # a probe is one exact power-dual solve, the first of them at mu0
    warm_iterations, warm, n_calls = runs(None)
    cold_iterations, cold, _ = runs((0.0, 0.0))
    assert warm_iterations == cold_iterations
    assert warm <= 4 * n_calls and warm < cold


def _cap_problem():
    rng = np.random.default_rng(5)
    k, n, m = 3, 2, 2
    a = crandn_t(rng, (k, n, n))
    quad = a @ a.conj().swapaxes(1, 2) + 0.1 * np.eye(n)
    rhs, cross = crandn_t(rng, (k, n, 1)), crandn_t(rng, (k, m, n))
    v, _ = _solve_power_dual(quad, rhs, np.ones(n), 1.0, 1e-9)
    return quad, rhs, cross, float(np.vdot(cross @ v, cross @ v).real)


@pytest.mark.parametrize("factor", [1e-6, 1e6])
def test_far_warm_cap_multiplier_finds_cold_root(factor):
    quad, rhs, cross, si_free = _cap_problem()
    cap, tol = 0.1 * si_free, 1e-9
    _, _, mu_cold = _capped_power_dual(quad, rhs, np.ones(2), 1.0, tol, cross,
                                       cap, 0.0)
    assert mu_cold > 0
    v, _, mu = _capped_power_dual(quad, rhs, np.ones(2), 1.0, tol, cross, cap,
                                  factor * mu_cold)
    si = float(np.vdot(cross @ v, cross @ v).real)
    assert abs(si - cap) <= max(tol, 1e-9 * cap)
    assert abs(mu - mu_cold) <= 1e-6 * mu_cold


def test_warm_cap_multiplier_drops_to_zero_when_cap_inactive():
    quad, rhs, cross, si_free = _cap_problem()
    args = (quad, rhs, np.ones(2), 1.0, 1e-9, cross, 2.0 * si_free)
    v_cold, iota_cold, mu_cold = _capped_power_dual(*args, 0.0)
    v, iota, mu = _capped_power_dual(*args, 3.7)
    assert mu == mu_cold == 0.0
    assert iota == iota_cold and np.array_equal(v, v_cold)
    # C = 0: V = 0 meets every cap, and the warm start's Newton step is null
    v, iota, mu = _capped_power_dual(quad, 0 * rhs, *args[2:6], 0.1 * si_free, 3.7)
    assert mu == iota == 0.0 and not v.any()


def _rank_deficient_cap_problem():
    # A = a a^H has rank one and C lies in its range, so the power stays
    # below the budget as iota -> 0: the uncapped iota is 0, and A + iota B
    # is singular there
    rng = np.random.default_rng(9)
    k, n = 3, 2
    a = crandn_t(rng, (k, n, 1))
    quad = a @ a.conj().swapaxes(1, 2)
    rhs, cross = 0.1 * a @ crandn_t(rng, (k, 1, 1)), crandn_t(rng, (k, 2, n))
    v, iota = _solve_power_dual(quad, rhs, np.ones(n), 1.0, 1e-9)
    assert iota == 0.0
    return quad, rhs, cross, float(np.vdot(cross @ v, cross @ v).real)


def _cap_calls(case, config, channels, monkeypatch):
    """(args, result) of each _capped_power_dual call of one KKT input."""
    if case == "pth_runs":
        calls = _recorded_cap_calls(monkeypatch)
        for mode in ("pth_low", "pth_high"):
            for designer in ("altqcp", "wmmse"):
                run_baseline(mode, channels, config, designer=designer)
        return [(args, result) for _, args, result in calls]
    quad, rhs, cross, si_free = (_rank_deficient_cap_problem() if case == "singular_start"
                                 else _cap_problem())
    fraction = {"inactive": 2.0, "singular_start": 0.1}.get(case, 0.9)
    args = (quad, rhs, np.ones(2), 1.0, 1e-9, cross, fraction * si_free)
    start = (3.7, 0.0) if case == "inactive" else (0.0, 0.0)
    if case.startswith("warm"):
        _, iota, mu = _capped_power_dual(*args, 0.0)
        assert iota > 0 and mu > 0
        start = (float(case[5:]) * mu, float(case[5:]) * iota)
    return [(args, _capped_power_dual(*args, *start))]


def _assert_cap_kkt(args, result):
    """Primal feasibility and complementary slackness for both constraints,
    and a vanishing Lagrangian gradient (A + iota B + mu G) V - C in V, of
    one _capped_power_dual problem."""
    (quad, rhs, scale, p_max, tol, cross, cap, *_), (v, iota, mu) = args, result
    si_tol = max(tol, 1e-9 * cap)
    power = float(np.einsum("knd,n,knd->", v.conj(), scale, v).real)
    si = float(np.vdot(cross @ v, cross @ v).real)
    assert iota >= 0 and mu >= 0
    assert power <= p_max + tol and si <= cap + si_tol
    assert abs(iota * (power - p_max)) <= iota * tol
    assert abs(mu * (si - cap)) <= mu * si_tol
    gram = cross.conj().swapaxes(1, 2) @ cross
    residual = (quad + iota * np.diag(scale) + mu * gram) @ v - rhs
    assert np.linalg.norm(residual) <= 1e-9 * np.linalg.norm(rhs)


@pytest.mark.parametrize("case", ["active", "inactive", "singular_start",
                                  "warm_1e-06", "warm_1e+06", "pth_runs"])
def test_capped_step_meets_kkt_conditions(default_config, default_channels,
                                          monkeypatch, case):
    calls = _cap_calls(case, default_config, default_channels, monkeypatch)
    for args, result in calls:
        _assert_cap_kkt(args, result)
    if case != "pth_runs":            # the one call is the case it names
        assert (calls[0][1][2] == 0.0) == (case == "inactive")


def _assert_rows_equal(stacked, results):
    """Each row of a stacked _capped_power_dual result is, bit for bit, the
    result of that row's problem solved alone."""
    for n, result in enumerate(results):
        for got, want in zip(stacked, result):
            assert np.asarray(got[n]).tobytes() == np.asarray(want).tobytes()


def test_stacked_cap_step_equals_each_problem_alone():
    # one call on every kind of problem: cap 0, cap +inf, a cap that does
    # not bind, a binding one from a cold start and from warm multipliers
    # far below and far above the root, and a singular start
    quad, rhs, cross, si_free = _cap_problem()
    cap = 0.1 * si_free
    _, iota, mu = _capped_power_dual(quad, rhs, np.ones(2), 1.0, 1e-9, cross, cap, 0.0)
    rows = [((quad, rhs, cross), c, start) for c, start in (
        (0.0, (0.0, 0.0)), (np.inf, (0.0, 0.0)), (2.0 * si_free, (0.0, 3.7)),
        (cap, (0.0, 0.0)), (cap, (1e-6 * mu, 1e-6 * iota)), (cap, (1e6 * mu, 1e6 * iota)))]
    *singular, si_singular = _rank_deficient_cap_problem()
    rows.append((singular, 0.1 * si_singular, (0.0, 0.0)))
    quads, rhss, crosses = (np.array(column) for column in zip(*(p for p, _, _ in rows)))
    mu0, iota0 = np.array([start for _, _, start in rows]).T
    caps = np.array([c for _, c, _ in rows])
    stacked = _capped_power_dual(quads, rhss, np.ones(2), 1.0, 1e-9, crosses, caps, mu0, iota0)
    assert [m > 0 for m in stacked[2]] == [False] * 3 + [True] * 4
    _assert_rows_equal(stacked, [_capped_power_dual(q, c, np.ones(2), 1.0, 1e-9, x, cap, *start)
                                 for (q, c, x), cap, start in rows])


def _fuzzed_cap_rows(seed, count=6):
    """count random _capped_power_dual problems of one shape (K 1-6, n 1-4,
    d <= n, 1-4 cross rows), each as (quad, rhs, scale, p_max, tol, cross,
    cap, mu0, iota0): A of random rank, so singular on some draws, with C in
    its range on half of them; a cap at 0.01-2x the uncapped
    self-interference; multipliers started at 0, near the cold root or 1e4
    from it."""
    rng = np.random.default_rng(seed)
    k, n, m = rng.integers(1, 7), rng.integers(1, 5), rng.integers(1, 5)
    d, rows = rng.integers(1, n + 1), []
    for _ in range(count):
        a = crandn_t(rng, (k, n, rng.integers(1, n + 1)))
        rhs = (a @ crandn_t(rng, (k, a.shape[2], d)) if rng.random() < 0.5
               else crandn_t(rng, (k, n, d)))
        quad, cross = a @ a.conj().swapaxes(1, 2), crandn_t(rng, (k, m, n))
        scale, p_max = rng.uniform(1.0, 2.0, n), rng.uniform(0.5, 2.0)
        v, _ = _solve_power_dual(quad, rhs, scale, p_max, 1e-9 * p_max)
        cap = 10 ** rng.uniform(-2, np.log10(2)) * float(np.vdot(cross @ v, cross @ v).real)
        row = (quad, rhs, scale, p_max, 1e-9 * p_max, cross, cap)
        try:
            _, iota, mu = _capped_power_dual(*row, 0.0)
        except DualSearchError:
            iota = mu = 0.0
        factor = (0.0, 1.0 + 1e-3 * rng.standard_normal(), 1e4 ** rng.choice([-1, 1]))[
            rng.integers(3)]
        rows.append(row + (factor * mu, factor * iota))
    return rows


# seeds 30 and 34 draw K = n = 1 problems, where G V and B V are parallel
@pytest.mark.parametrize("seed", [*range(20), 30, 34])
def test_fuzzed_cap_steps_meet_kkt_alone_and_stacked(seed):
    # each problem either meets the KKT conditions or raises DualSearchError,
    # and does the same inside one stacked call
    rows, results = _fuzzed_cap_rows(seed), []
    for row in rows:
        try:
            results.append(_capped_power_dual(*row))
        except DualSearchError as failure:
            results.append(str(failure))
        else:
            _assert_cap_kkt(row, results[-1])
    stack = [np.array(column) for column in zip(*rows)]
    failures = [r for r in results if isinstance(r, str)]
    if failures:                      # the first failing problem ends the call
        with pytest.raises(DualSearchError) as failure:
            _capped_power_dual(*stack)
        assert str(failure.value) == failures[0]
    else:
        _assert_rows_equal(_capped_power_dual(*stack), results)


@pytest.mark.parametrize("seed", [1400, 1503])
def test_power_dual_fit_on_singular_quad_stays_within_budget(seed):
    # the first fuzzed problem of these seeds has a rank-one A with C in its
    # range, and its minimum-norm V fits the budget: V is read off the
    # eigenbasis, so no ridge lifts roundoff off A's range into the power
    quad, rhs, scale, p_max, tol, *_ = _fuzzed_cap_rows(seed)[0]
    v, iota = _solve_power_dual(quad, rhs, scale, p_max, tol)
    power = float(np.einsum("knd,n,knd->", v.conj(), scale, v).real)
    assert iota == 0.0 and power <= p_max + tol
    assert np.linalg.norm(quad @ v - rhs) <= 1e-9 * np.linalg.norm(rhs)


def _cell_channels(spec, value, trial):
    """(config, estimated channels) of one cell, drawn as harness.run_trial
    draws them."""
    spec = ExperimentSpec.from_json(spec)
    config = spec.config_for(value)
    true = draw_channels(config, spec.channel_stats(value), [spec.seed, 11, trial])
    return config, perturb_csi(true, config, [spec.seed, 23, trial], mode="interior")[1]


def test_benchmark_hard_case_cell_meets_kkt(monkeypatch):
    # sweep_k4_full's cell of trial 54 (seed 1, kappa -60 dB): the blind
    # pth_low step's A is singular, and from the second iteration on, one
    # direction's minimum-norm solution at mu = 0 leaves the budget slack and
    # breaks the cap by more than any mu > 0 does: si(mu) jumps at mu = 0
    config, channels = _cell_channels(
        {"config": {"subcarriers": 4, "antennas": 2, "streams": 1, "noise_var": "-30 dB"},
         "sweep": {"param": "kappa_db", "values": [-60]}, "algorithms": ["pth_low"],
         "n_trials": 55, "seed": 1}, -60.0, 54)
    calls = _recorded_cap_calls(monkeypatch)
    run_baseline("pth_low", channels, config)
    jumps = 0
    for _, args, result in calls:
        _assert_cap_kkt(args, result)
        quad, rhs, scale, p_max, tol, cross, cap, *_ = args
        (v, iota), (v_near, _) = (_solve_power_dual(
            quad + mu * herm(cross.conj().swapaxes(1, 2) @ cross), rhs, scale, p_max, tol)
            for mu in (0.0, 1e-9))
        si, si_near = (np.vdot(cross @ x, cross @ x).real for x in (v, v_near))
        jumps += iota == 0.0 and si > 1.2 * si_near > cap
    assert jumps >= len(calls) // 3


@pytest.mark.parametrize("trial", [0, 1])
def test_threshold_designs_meet_cap_and_budget_at_low_noise(trial, monkeypatch):
    # sigma^2 = -50 dB: the blind precoder quadratic is nearly singular and
    # the cap multiplier's root can lie near 0; every capped step meets KKT
    config, channels = _cell_channels(
        {"config": {"subcarriers": 4, "antennas": 2, "streams": 1},
         "sweep": {"param": "sigma2_db", "values": [-50]}, "algorithms": ["pth_low"],
         "n_trials": 2, "seed": 7}, -50.0, trial)
    calls = _recorded_cap_calls(monkeypatch)
    for mode, fraction in (("pth_high", 1.0), ("pth_low", 0.1)):
        design, _ = run_baseline(mode, channels, config)
        for i in DIRECTIONS:
            v, budget = design.precoders[i], config.p_max[i]
            si = np.vdot(channels.h_est[(1 - i, i)] @ v, channels.h_est[(1 - i, i)] @ v).real
            assert np.vdot(v, v).real <= budget * (1 + POWER_REL_TOL)
            assert si <= fraction * budget + max(POWER_REL_TOL * budget, 1e-9 * fraction * budget)
    for _, args, result in calls:
        _assert_cap_kkt(args, result)


def test_cap_search_failure_names_where_it_stopped(monkeypatch):
    # one probe, at a cold start far from the root: the error names the mu
    # it probed, the bracket there and the cap residual of that probe
    import fdlink.altqcp as altqcp
    monkeypatch.setattr(altqcp, "CAP_PROBES", 1)
    quad, rhs, cross, si_free = _cap_problem()
    cap = 1e-3 * si_free
    with pytest.raises(DualSearchError) as failure:
        _capped_power_dual(quad, rhs, np.ones(2), 1.0, 1e-9, cross, cap, 0.0)
    found = re.search(r"at mu=(\S+) in \[(\S+), (\S+)\], cap residual (\S+)$",
                      str(failure.value))
    mu, lo, hi, cap_residual = map(float, found.groups())
    v, _ = _solve_power_dual(quad + mu * cross.conj().swapaxes(1, 2) @ cross, rhs,
                             np.ones(2), 1.0, 1e-9)
    assert (mu, lo, hi) == (0.0, 0.0, np.inf)
    assert cap_residual == pytest.approx(np.vdot(cross @ v, cross @ v).real - cap,
                                         rel=1e-2)
    assert cap_residual > 1e-9 * cap


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
    v_init = random_precoders(config, 7)
    u = update_receivers(v_init, channels, config)
    s = identity_weights(config)
    v_star, duals = update_precoders(u, s, channels, config)
    shares, g = _stack([(1.0, channels.h_est)])

    for i in DIRECTIONS:
        shape = v_star[i].shape
        n_real = 2 * int(np.prod(shape))

        def embed(x):
            z = x[:n_real // 2] + 1j * x[n_real // 2:]
            stack = [np.zeros_like(v_star[j]) for j in DIRECTIONS]
            stack[i] = z.reshape(shape)
            return stack

        def objective(v):
            sigmas = covariance_stacks(v, g, config, _sic_residual(g, channels.h_est))
            return _design_objective(v, u, s, shares, g, sigmas)

        def func(x):
            return objective(embed(x))

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
        solver_val = objective(
            [v_star[j] if j == i else np.zeros_like(v_star[j])
             for j in DIRECTIONS])
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
                                       kappa=0.0, beta=0.0)
    channels = _flat_channels({(0, 0): 1.1 - 0.4j, (1, 1): 0.7,
                               (0, 1): 0.3 + 0.2j, (1, 0): -0.5j})
    design, report = run_altqcp(channels, config,
                                SolverOptions(max_iters=100, rel_tol=1e-14))
    assert np.max(np.abs(design.precoders[1])) == 0.0
    trace = report.objective_trace
    assert abs(trace[-1] - trace[-2]) < 1e-8
    # at the fixed point the receiver error matches the MMSE closed form
    sigma = covariance_stacks(design.precoders, channels.h_est, config,
                              (None, None))[0][0]
    e = mse_matrix(design.decoders[0][0], design.precoders[0][0], sigma,
                   channels.h_est[(0, 0)][0])
    closed = mmse_error(design.precoders[0][0], sigma, channels.h_est[(0, 0)][0])
    assert np.max(np.abs(e - closed)) < 1e-10


def test_scenario_average_stays_monotone(default_config, default_channels):
    rng = np.random.default_rng(8)
    bumped = {pair: default_channels.h_est[pair]
              + 0.01 * crandn_t(rng, default_channels.h_est[pair].shape)
              for pair in PAIRS}
    scenarios = [(0.5, default_channels.h_est), (0.5, bumped)]
    _, (report,) = run_altqcp_scenarios([DesignProblem(scenarios, default_config)],
                                        SolverOptions())
    trace = np.asarray(report.objective_trace)
    assert np.all(np.diff(trace) <= 1e-9)


def test_power_tolerance_scales_with_budget(default_config, default_channels):
    # scaling the budget and the noise together only rescales the problem, so
    # the run must be the same: an absolute 1e-9 power tolerance stops the
    # dual search at a fraction of a 1e-12 budget and the run never converges
    _, reference = run_altqcp(default_channels, default_config)
    for scale in (1e-12, 1e6):
        config = SystemConfig.from_scalars(p_max=scale, noise_var=1e-3 * scale)
        design, report = run_altqcp(default_channels, config)
        assert report.converged
        assert report.iterations == reference.iterations
        assert (abs(report.objective_trace[-1] - reference.objective_trace[-1])
                <= 1e-9 * reference.objective_trace[-1])
        for i in DIRECTIONS:
            used = power_usage(design.precoders[i], config.tx_distortion[i])
            assert abs(used - scale) <= 1e-8 * scale


def test_run_is_deterministic(default_config, default_channels):
    d1, r1 = run_altqcp(default_channels, default_config)
    d2, r2 = run_altqcp(default_channels, default_config)
    assert np.array_equal(d1.precoders[0], d2.precoders[0])
    assert r1.objective_trace == r2.objective_trace


@pytest.mark.parametrize("n_scenarios", [1, 3])
def test_run_builds_one_covariance_per_scenario_and_iteration(
        default_config, default_channels, n_scenarios, monkeypatch):
    # each precoder update builds the covariances of the whole scenario
    # stack in one call; the objectives, the receiver step and the final
    # report all read that build
    import fdlink.altqcp as driver
    calls = []
    inner = driver.covariance_stacks

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    rng = np.random.default_rng(9)
    scenarios = [(1.0 / n_scenarios, default_channels.h_est)] + [
        (1.0 / n_scenarios,
         {pair: default_channels.h_est[pair]
          + 0.01 * crandn_t(rng, default_channels.h_est[pair].shape)
          for pair in PAIRS}) for _ in range(n_scenarios - 1)]
    monkeypatch.setattr(driver, "covariance_stacks", counted)
    _, (report,) = run_altqcp_scenarios([DesignProblem(scenarios, default_config)],
                                        SolverOptions())
    assert report.iterations > 1
    assert len(calls) == 1 + report.iterations


@pytest.mark.parametrize("weight_block", [False, True])
def test_fleet_member_equals_its_solo_run(weight_block):
    # altqcp, hd (no cross channels), kappa0, a non-binding pth_high, a
    # binding pth_low and a 0 dB distortion member cut at max_iters, designed
    # together: each member's run is its run alone, a fleet of one
    config = SystemConfig.from_scalars()
    true = draw_channels(config, ChannelStats(rho_si=0.3), [2])
    _, channels = perturb_csi(true, config, [2, 1], mode="interior")
    designer = DESIGNERS[weight_block]
    problems = ([design_problem(alg, channels, config, designer)[0]
                 for alg in (designer, "hd", "kappa0", "pth_high", "pth_low")]
                + [design_problem(designer, channels,
                                  SystemConfig.from_scalars(kappa=1.0))[0]])
    options = SolverOptions(max_iters=20)
    designs, reports = run_altqcp_scenarios(problems, options)
    iterations = [report.iterations for report in reports]
    assert min(iterations) < 10 and iterations[-1] == 20 and not reports[-1].converged
    assert reports[3].extras["si_duals"] == (0.0, 0.0)
    assert min(reports[4].extras["si_duals"]) > 0
    for problem, design, report in zip(problems, designs, reports):
        (alone,), (solo,) = run_altqcp_scenarios([problem], options)
        assert (report.iterations, report.converged) == (solo.iterations, solo.converged)
        assert report.objective_trace == solo.objective_trace
        assert report.rate_trace == solo.rate_trace and report.extras == solo.extras
        for name in ("precoders", "decoders", "mse_weights"):
            for got, want in zip(getattr(design, name), getattr(alone, name)):
                assert np.array_equal(got, want)


def test_fleet_of_mismatched_problems_raises(default_config, default_channels):
    # members must share their fleet_key: here they differ in the weight
    # block, in K, or in whether starting precoders are given
    base = DesignProblem([(1.0, default_channels.h_est)], default_config)
    k2 = SystemConfig.from_scalars(subcarriers=2)
    narrow = design_problem("altqcp", draw_channels(k2, ChannelStats(), [3]), k2)[0]
    start = dataclasses.replace(base, init=tuple(init_precoders(
        default_channels.h_est, default_config)))
    for other in (dataclasses.replace(base, weight_block=True), narrow, start):
        assert fleet_key(other) != fleet_key(base)
        with pytest.raises(ConfigError, match="fleet_key"):
            run_altqcp_scenarios([base, other], SolverOptions(max_iters=2))


def test_solver_options_reject_bad_values():
    # the limits themselves are valid; every value outside them, or of the
    # wrong type, raises where the options are built
    SolverOptions(max_iters=0, rel_tol=0.0)
    for bad in ({"max_iters": -1}, {"max_iters": 2.5}, {"max_iters": "5"},
                {"rel_tol": -1e-3}, {"rel_tol": np.inf}, {"rel_tol": np.nan},
                {"rel_tol": "1e-3"}, {"max_iters": True}, {"rel_tol": False}):
        with pytest.raises(ConfigError):
            SolverOptions(**bad)
