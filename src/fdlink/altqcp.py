"""Alternating weighted-MSE minimization with closed-form block updates.

Both directions' precoders and receive filters are updated in turn. The
receiver step is an MMSE filter against everything the design model predicts
the receiver will see; the precoder step solves a per-direction convex
quadratically-constrained program in closed form, with a scalar dual variable
enforcing the distortion-aware transmit power budget.

run_altqcp_scenarios is the one block-coordinate driver of the package: the
weighted sum-rate designer (wmmse), the cutting-set inner design (robust) and
the threshold baselines (baselines) are this loop with its weight block or its
self-interference cap switched on. All updates take a list of channel
scenarios (the cutting set designs against an averaged objective); the
nominal algorithm is the single-scenario case with the estimated channels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .model import (DIRECTIONS, ChannelRealization, SystemConfig,
                    TransceiverDesign, _design_objective, _scenario_sigma,
                    design_report, identity_weights, mse_stacks, power_usage,
                    rate_surrogate, weighted_rate)
from .util import (LN2, ConfigError, DualSearchError, crandn, dagger, herm,
                   rng_from, stabilized)


@dataclass(frozen=True)
class SolverOptions:
    max_iters: int = 100
    rel_tol: float = 1e-6
    dual_tol: float = 1e-9        # absolute tolerance on the power residual
    init: str = "rsm"             # "rsm" (right-singular-vector) or "random"
    init_seed: int = None
    max_cuts: int = 8             # cutting-set loop only
    cut_rel_tol: float = 1e-3


def init_precoders(channels: ChannelRealization, config: SystemConfig,
                   mode: str = "rsm", seed=None):
    """Starting precoders, scaled (one scalar per direction) so the
    distortion-aware power usage equals the budget exactly.

    rsm: columns are the dominant right singular vectors of the estimated
    desired channel per subcarrier. random: seeded complex Gaussian entries.
    """
    out = []
    for i in DIRECTIONS:
        k, n, d = config.subcarriers, config.tx_antennas[i], config.streams[i]
        if mode == "rsm":
            # numpy svd returns rows of vh as right singular vectors, descending
            _, _, vh = np.linalg.svd(channels.h_est[(i, i)], full_matrices=False)
            v = dagger(vh[:, :d, :])
        elif mode == "random":
            v = crandn(rng_from(seed if seed is not None else 0), (k, n, d))
        else:
            raise ConfigError(f"unknown precoder init mode {mode!r}")
        used = power_usage(v, config.tx_distortion[i], k)
        scale = np.sqrt(config.p_max[i] / used) if used > 0 else 0.0
        out.append(v * scale)
    return out


# ---------------------------------------------------------------------------
# scenario plumbing: a scenario is a full channel dict the design treats as a
# possible truth; SIC is always referenced to the estimated channels.
# ---------------------------------------------------------------------------

def _receiver_step(precoders, scenarios, sic, config):
    """Linear MMSE receivers for the (scenario-averaged) design objective."""
    acc = [np.zeros((config.subcarriers, config.rx_antennas[i],
                     config.rx_antennas[i]), dtype=complex) for i in DIRECTIONS]
    rhs = [np.zeros((config.subcarriers, config.rx_antennas[i],
                     config.streams[i]), dtype=complex) for i in DIRECTIONS]
    for weight, g in scenarios:
        sigmas = _scenario_sigma(precoders, g, sic, config)
        for i in DIRECTIONS:
            hv = g[(i, i)] @ precoders[i]
            acc[i] += weight * (sigmas[i] + np.einsum("kmd,kpd->kmp", hv, hv.conj()))
            rhs[i] += weight * hv
    return [np.linalg.solve(stabilized(herm(acc[i])), rhs[i]) for i in DIRECTIONS]


def _weighted_decoder_grams(decoders, mse_weights):
    """W_j^l = U S U^H per direction and subcarrier."""
    return [np.einsum("kmd,kde,kpe->kmp", decoders[j], mse_weights[j],
                      decoders[j].conj()) for j in DIRECTIONS]


def _leakage_stacks(decoders, mse_weights, g, config):
    """Distortion-leakage quadratic terms for the precoder update of every
    direction, all subcarriers at once.

    J_i^k = sum_l sum_j [ H_ji^k^H diag(U_j^l S_j^l U_j^l^H Theta_rx,j) H_ji^k
                          + diag(H_ji^l^H U_j^l S_j^l U_j^l^H H_ji^l Theta_tx,i) ]
    """
    grams = _weighted_decoder_grams(decoders, mse_weights)
    rx_profile = [config.rx_distortion[j]
                  * np.einsum("kmm->m", grams[j]).real for j in DIRECTIONS]
    out = []
    for i in DIRECTIONS:
        n = config.tx_antennas[i]
        term1 = np.zeros((config.subcarriers, n, n), dtype=complex)
        diag2 = np.zeros(n)
        for j in DIRECTIONS:
            h = g[(j, i)]
            term1 += np.einsum("kmn,m,kmp->knp", h.conj(), rx_profile[j], h)
            diag2 += np.einsum("kmn,kmp,kpn->n", h.conj(), grams[j], h).real
        diag2 = config.tx_distortion[i] * diag2
        term1[:, np.arange(n), np.arange(n)] += diag2[None, :]
        out.append(herm(term1))
    return out


def leakage_matrix(decoders, mse_weights, channels: ChannelRealization,
                   config: SystemConfig, i: int, k: int) -> np.ndarray:
    """Public single-(i, k) view of the leakage term, on estimated channels."""
    return _leakage_stacks(decoders, mse_weights, channels.h_est, config)[i][k]


def _solve_power_dual(quad, rhs, scale_diag, p_max, tol):
    """min_V sum_k tr(V^H A^k V) - 2 Re tr(C^k^H V) s.t. tr(B sum_k V V^H) <= P
    with B = diag(scale_diag) > 0; returns (V stack, dual iota >= 0).

    V(iota) = (A + iota B)^{-1} C; the power is a rational function of iota
    whose coefficients come from one batched eigendecomposition, so the
    bracketing/bisection runs on scalars.
    """
    k, n, _ = quad.shape
    if p_max <= 0 or not np.any(rhs):
        return np.zeros_like(rhs), 0.0
    bs = 1.0 / np.sqrt(scale_diag)
    whitened = herm(quad * bs[None, :, None] * bs[None, None, :])
    lam, basis = np.linalg.eigh(whitened)
    lam = np.maximum(lam, 0.0)
    coeff = np.einsum("knm,knd->kmd", basis.conj(), bs[None, :, None] * rhs)
    weight = np.einsum("kmd,kmd->km", coeff, coeff.conj()).real
    total = weight.sum()
    if total <= 0:
        return np.zeros_like(rhs), 0.0

    def power_of(iota):
        return float((weight / (lam + iota) ** 2).sum())

    def slope_of(iota):
        return float((-2.0 * weight / (lam + iota) ** 3).sum())

    # power at iota -> 0+: null-space weights of an exactly-consistent system
    # are pure roundoff; treat them as zero, otherwise the limit is infinite
    lam_floor = max(lam.max(), 1.0) * 1e-14
    tiny_w = total * 1e-13
    live = weight > tiny_w
    blocked = live & (lam <= lam_floor)
    if np.any(blocked):
        p_zero = np.inf
    else:
        safe = np.where(live, np.maximum(lam, lam_floor), 1.0)
        p_zero = float((np.where(live, weight, 0.0) / safe ** 2).sum())

    if p_zero <= p_max:
        v = np.linalg.solve(stabilized(quad), rhs)
        return v, 0.0

    hi = 1.0
    for _ in range(60):
        if power_of(hi) < p_max:
            break
        hi *= 2.0
    else:
        raise DualSearchError("power dual bracket expansion exceeded 60 doublings")
    lo = 0.0
    iota = hi
    residual = power_of(iota) - p_max
    for _ in range(400):
        if abs(residual) <= tol:
            break
        mid = 0.5 * (lo + hi)
        # Newton candidate accelerates the tail; fall back to plain bisection
        slope = slope_of(iota)
        newton = iota - residual / slope if slope < 0 else mid
        iota = newton if lo < newton < hi else mid
        residual = power_of(iota) - p_max
        if residual > 0:
            lo = iota
        else:
            hi = iota
    v = np.linalg.solve(quad + iota * np.diag(scale_diag)[None, :, :], rhs)
    return v, float(iota)


def _capped_power_dual(quad, rhs, scale_diag, p_max, tol, cross, cap):
    """_solve_power_dual with one more constraint, sum_k ||cross^k V^k||_F^2 <=
    cap (the self-interference power the precoder puts into its own node's
    receiver), by bisection on that constraint's multiplier mu, which adds
    mu cross^H cross to the quadratic. Returns (V stack, iota, mu)."""
    if cap <= 0:
        return np.zeros_like(rhs), 0.0, np.inf
    cross_gram = herm(np.einsum("kmn,kmp->knp", cross.conj(), cross))

    def solve_at(mu):
        v, iota = _solve_power_dual(herm(quad + mu * cross_gram), rhs,
                                    scale_diag, p_max, tol)
        fv = cross @ v
        return v, iota, float(np.einsum("kmd,kmd->", fv, fv.conj()).real)

    v, iota, si = solve_at(0.0)
    if si <= cap + tol:
        return v, iota, 0.0
    hi = 1.0
    for _ in range(200):
        v, iota, si = solve_at(hi)
        if si <= cap:
            break
        hi *= 2.0
    else:
        raise DualSearchError("interference-cap dual bracket expansion failed")
    lo = 0.0
    mu = hi
    for _ in range(200):
        if abs(si - cap) <= max(tol, 1e-9 * cap):
            break
        mu = 0.5 * (lo + hi)
        v, iota, si = solve_at(mu)
        if si > cap:
            lo = mu
        else:
            hi = mu
    return v, iota, mu


def _precoder_step(decoders, mse_weights, scenarios, sic, config, dual_tol,
                   si_caps=None):
    """Exact minimizer of the (scenario-averaged) weighted MSE over both
    directions' precoders, each under its own power constraint and, when
    si_caps is given, under a cap on the self-interference power it puts into
    its own node's receiver through the estimated cross channel.

    Returns (precoders, power duals, self-interference duals)."""
    grams = _weighted_decoder_grams(decoders, mse_weights)
    quads = [np.zeros((config.subcarriers, config.tx_antennas[i],
                       config.tx_antennas[i]), dtype=complex) for i in DIRECTIONS]
    rhss = [np.zeros((config.subcarriers, config.tx_antennas[i],
                      config.streams[i]), dtype=complex) for i in DIRECTIONS]
    for weight, g in scenarios:
        leaks = _leakage_stacks(decoders, mse_weights, g, config)
        for i in DIRECTIONS:
            hu = np.einsum("kmn,kmd->knd", g[(i, i)].conj(), decoders[i])
            signal = np.einsum("knd,kde,kpe->knp", hu, mse_weights[i], hu.conj())
            quads[i] += weight * (leaks[i] + signal)
            rhss[i] += weight * np.einsum("knd,kde->kne", hu, mse_weights[i])
            j = 1 - i
            d = g[(j, i)] - sic[(j, i)]      # residual SI leaks through the error
            if np.any(d):
                quads[i] += weight * np.einsum("kmn,kmp,kpq->knq", d.conj(), grams[j], d)
    precoders, duals, si_duals = [], [], []
    for i in DIRECTIONS:
        scale = 1.0 + config.subcarriers * config.tx_distortion[i]
        if si_caps is None:
            v, iota = _solve_power_dual(herm(quads[i]), rhss[i], scale,
                                        config.p_max[i], dual_tol)
            mu = 0.0
        else:
            v, iota, mu = _capped_power_dual(herm(quads[i]), rhss[i], scale,
                                             config.p_max[i], dual_tol,
                                             sic[(1 - i, i)], si_caps[i])
        precoders.append(v)
        duals.append(iota)
        si_duals.append(mu)
    return precoders, tuple(duals), tuple(si_duals)


# ---------------------------------------------------------------------------
# public single-step wrappers (nominal: estimated channels, one scenario)
# ---------------------------------------------------------------------------

def update_receivers(precoders, channels: ChannelRealization, config: SystemConfig):
    return _receiver_step(precoders, [(1.0, channels.h_est)], channels.h_est, config)


def update_precoders(decoders, mse_weights, channels: ChannelRealization,
                     config: SystemConfig, dual_tol: float = 1e-9):
    precoders, duals, _ = _precoder_step(decoders, mse_weights,
                                         [(1.0, channels.h_est)],
                                         channels.h_est, config, dual_tol)
    return precoders, duals


def _weight_block(precoders, decoders, g, sic, config):
    """S = E^{-1} at the current point; returns (S, the rate surrogate there,
    the design-model weighted sum rate in bits)."""
    errors, _ = mse_stacks(precoders, decoders, g, sic, config)
    weights = [herm(np.linalg.inv(e)) for e in errors]
    return (weights, rate_surrogate(errors, weights, config),
            weighted_rate(precoders, g, sic, config))


def run_altqcp_scenarios(scenarios, sic, config: SystemConfig,
                         options: SolverOptions, mse_weights=None,
                         init_precoders_override=None, channels_for_init=None,
                         weight_block=False, si_caps=None):
    """The block-coordinate driver behind every designer.

    One iteration updates the precoders (exact QCQP; with si_caps also capping
    each direction's self-interference power), then the MMSE receivers, then,
    with weight_block, the MSE weights S = E^{-1}, whose rate-weighted copy
    omega_i S_i the next precoder step minimizes (WMMSE, Shi et al. 2011).
    The tracked objective is the scenario-averaged weighted MSE, or with
    weight_block the rate surrogate on the first scenario; the loop stops
    when it moves by at most rel_tol. The report is the design view of the
    first scenario.
    """
    if init_precoders_override is not None:
        precoders = [v.copy() for v in init_precoders_override]
    else:
        precoders = init_precoders(channels_for_init, config, options.init,
                                   options.init_seed)
    g0 = scenarios[0][1]
    decoders = _receiver_step(precoders, scenarios, sic, config)

    def objective():
        if weight_block:
            errors, _ = mse_stacks(precoders, decoders, g0, sic, config)
            return rate_surrogate(errors, weights, config)
        return _design_objective(precoders, decoders, weights, scenarios, sic, config)

    rate_trace = None
    if weight_block:
        weights, value, rate_now = _weight_block(precoders, decoders, g0, sic, config)
        rate_trace = [rate_now]
    else:
        weights = mse_weights if mse_weights is not None else identity_weights(config)
        value = objective()
    trace = [value]
    seconds, blocks, slackness, tightness = [], [], [], []
    duals = si_duals = (0.0, 0.0)
    converged = False
    for _ in range(options.max_iters):
        t0 = time.perf_counter()
        step_weights = ([config.rate_weights[i] * weights[i] for i in DIRECTIONS]
                        if weight_block else weights)
        precoders, duals, si_duals = _precoder_step(
            decoders, step_weights, scenarios, sic, config, options.dual_tol, si_caps)
        block = [objective()]
        decoders = _receiver_step(precoders, scenarios, sic, config)
        block.append(objective())
        if weight_block:
            weights, value, rate_now = _weight_block(precoders, decoders, g0, sic, config)
            block.append(value)
            rate_trace.append(rate_now)
            tightness.append(abs(value - LN2 * rate_now))
        seconds.append(time.perf_counter() - t0)
        blocks.append(tuple(block))
        slackness.append(tuple(
            (duals[i], power_usage(precoders[i], config.tx_distortion[i],
                                   config.subcarriers)) for i in DIRECTIONS))
        trace.append(block[-1])
        if abs(trace[-1] - trace[-2]) <= options.rel_tol * max(abs(trace[-2]), 1e-300):
            converged = True
            break
    design = TransceiverDesign(precoders=tuple(precoders), decoders=tuple(decoders),
                               mse_weights=tuple(weights), duals=duals)
    extras = {"power_slackness": slackness}
    if weight_block:
        extras.update(surrogate_blocks=blocks, tightness_gap=tightness)
    else:
        extras["half_step_objectives"] = blocks
    if si_caps is not None:
        extras.update(si_duals=si_duals, thresholds=tuple(si_caps))
    report = replace(design_report(precoders, decoders, g0, sic, config),
                     objective_trace=trace, iteration_seconds=seconds,
                     iterations=len(seconds), converged=converged,
                     rate_trace=rate_trace, extras=extras)
    return design, report


def run_altqcp(channels: ChannelRealization, config: SystemConfig,
               options: SolverOptions = None, mse_weights=None):
    """Weighted sum-MSE minimizer (identity weights by default), designing on
    the estimated channels. Returns (TransceiverDesign, PerformanceReport)."""
    return run_altqcp_scenarios([(1.0, channels.h_est)], channels.h_est, config,
                                options or SolverOptions(), mse_weights=mse_weights,
                                channels_for_init=channels)
