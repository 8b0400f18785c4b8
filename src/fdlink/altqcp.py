"""Alternating weighted-MSE minimization with closed-form block updates.

Both directions' precoders and receive filters are updated in turn. The
receiver step is an MMSE filter against all the design model predicts the
receiver will see; the precoder step solves a per-direction convex QCQP exactly:
by a scalar power dual, searched by Newton's method from the last iteration's
value, or under a self-interference cap by Newton on two duals.

run_altqcp_scenarios is the one block-coordinate driver of the package: the
weighted sum-rate designer (wmmse), the cutting-set inner design (robust) and
the threshold baselines (baselines) are this loop with its weight block or its
self-interference cap switched on. All updates take a scenario stack, (S,)
weights and (S, K, M, N) channels, and reduce over its leading axis; the
nominal algorithm is the one-scenario stack of the estimated channels.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Integral, Real

import numpy as np

from .model import (DIRECTIONS, ChannelRealization, SystemConfig,
                    TransceiverDesign, _design_objective, _sic_residual, _stack,
                    covariance_stacks, design_report, identity_weights, mse_stacks,
                    power_usage, rate_surrogate, weighted_rate)
from .util import (LN2, ConfigError, DualSearchError, _rational_root, dagger,
                   herm, stabilized)


# the power dual stops when the power is within this fraction of the budget
POWER_REL_TOL = 1e-9
CAP_NEWTON_STEPS = 50   # Newton steps of a capped precoder step before DualSearchError


@dataclass(frozen=True)
class SolverOptions:
    max_iters: int = 100
    rel_tol: float = 1e-6

    def __post_init__(self):
        for name, kind, low in (("max_iters", Integral, 0), ("rel_tol", Real, 0)):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, kind)
                    or not low <= value < np.inf):
                raise ConfigError(f"{name} must be a finite {kind.__name__.lower()} "
                                  f"number >= {low}, got {value!r}")


def init_precoders(h_est, config: SystemConfig):
    """Starting precoders: per subcarrier, the dominant right singular vectors
    of the estimated desired channel h_est[(i, i)], scaled (one scalar per
    direction) so the distortion-aware power usage equals the budget exactly.
    """
    out = []
    for i in DIRECTIONS:
        # numpy svd returns rows of vh as right singular vectors, descending
        _, _, vh = np.linalg.svd(h_est[(i, i)], full_matrices=False)
        v = dagger(vh[:, :config.streams[i], :])
        used = power_usage(v, config.tx_distortion[i])
        scale = np.sqrt(config.p_max[i] / used) if used > 0 else 0.0
        out.append(v * scale)
    return out


# ---------------------------------------------------------------------------
# scenario stack: (S,) weights and (S, K, M, N) channels the design treats as
# possible truths; SIC is always referenced to the estimated channels.
# ---------------------------------------------------------------------------

def _receiver_step(precoders, shares, g, sigmas, config):
    """Linear MMSE receivers for the scenario-weighted design objective."""
    out = []
    for i in DIRECTIONS:
        hv = g[(i, i)] @ precoders[i]
        acc = (np.einsum("s,skmp->kmp", shares, sigmas[i])
               + np.einsum("s,skmd,skpd->kmp", shares, hv, hv.conj()))
        rhs = np.einsum("s,skmd->kmd", shares, hv)
        out.append(np.linalg.solve(stabilized(herm(acc)), rhs))
    return out


def _weighted_decoder_grams(decoders, mse_weights):
    """W_j^l = U S U^H per direction and subcarrier."""
    return [np.einsum("kmd,kde,kpe->kmp", decoders[j], mse_weights[j],
                      decoders[j].conj()) for j in DIRECTIONS]


def _leakage_stacks(grams, shares, g, config):
    """Scenario-weighted distortion-leakage quadratic terms for the precoder
    update of every direction, all subcarriers at once, from the decoder
    grams W_j^l = U_j^l S_j^l U_j^l^H, with H the channels of scenario s:

    J_i^k = sum_s shares_s sum_l sum_j [ H_ji^k^H diag(W_j^l Theta_rx,j) H_ji^k
                                         + diag(H_ji^l^H W_j^l H_ji^l Theta_tx,i) ]
    """
    rx_profile = [config.rx_distortion[j]
                  * np.einsum("kmm->m", grams[j]).real for j in DIRECTIONS]
    out = []
    for i in DIRECTIONS:
        n = config.tx_antennas[i]
        term1, diag2 = 0.0, 0.0
        for j in DIRECTIONS:
            h = g[(j, i)]
            term1 = term1 + np.einsum("s,skmn,m,skmp->knp", shares, h.conj(),
                                      rx_profile[j], h)
            diag2 = diag2 + np.einsum("s,skmn,kmp,skpn->n", shares, h.conj(),
                                      grams[j], h).real
        term1[:, np.arange(n), np.arange(n)] += config.tx_distortion[i] * diag2
        out.append(herm(term1))
    return out


def _solve_power_dual(quad, rhs, scale_diag, p_max, tol, iota0=0.0):
    """min_V sum_k tr(V^H A^k V) - 2 Re tr(C^k^H V) s.t. tr(B sum_k V V^H) <= P
    with A Hermitian and B = diag(scale_diag) > 0; returns (V stack, iota >= 0).

    With B^(-1/2) A B^(-1/2) = Q Lambda Q^H, one batched eigendecomposition,
    V(iota) = B^(-1/2) Q (Lambda + iota)^{-1} Q^H B^(-1/2) C, and the power is
    a sum of inverse squares in iota: its root is searched on scalars, from
    iota0 (the last iteration's dual), and V is read off the same basis.
    """
    if p_max <= 0:
        return np.zeros_like(rhs), 0.0
    bs = scale_diag ** -0.5
    col = bs[:, None]
    # eigh reads one triangle; scaling by a symmetric outer product keeps an
    # exactly Hermitian quad exactly Hermitian
    lam, basis = np.linalg.eigh(quad * (col * bs))
    lam = np.maximum(lam, 0.0)
    basis = col * basis                 # B^(-1/2) Q
    coeff = dagger(basis) @ rhs
    weight = np.add.reduce((coeff * coeff.conj()).real, 2)
    total = float(np.add.reduce(weight, None))
    if total <= 0:
        return np.zeros_like(rhs), 0.0

    # iota = 0 when the power at iota -> 0+ fits the budget. Null-space weights
    # of an exactly-consistent system are pure roundoff and count as zero; a
    # live weight on a zero eigenvalue makes that power infinite
    live = weight > total * 1e-13
    lam_live = lam[live]
    if (np.minimum.reduce(lam_live) > 1e-14 * max(np.maximum.reduce(lam, None), 1.0)
            and np.add.reduce(weight[live] / lam_live ** 2) <= p_max):
        return np.linalg.solve(stabilized(quad), rhs), 0.0

    iota = float(_rational_root(lam.reshape(1, -1), weight.reshape(1, -1), p_max, tol,
                                iota0)[0])
    return basis @ (coeff / (lam + iota)[:, :, None]), iota


def _capped_power_dual(quad, rhs, scale_diag, p_max, tol, cross, cap, mu0, iota0=0.0):
    """_solve_power_dual with one more constraint, si(V) = sum_k ||cross^k V^k||^2
    <= cap: projected Newton from x = (iota0, mu0) maximizes the concave dual
    g(x) = -Re sum_k tr(C^H V) - x.(P, cap) over x >= 0, V = M^{-1} C, M = A +
    iota B + mu cross^H cross (Boyd & Vandenberghe 2004, sections 5 and 9.5).
    At mu = 0 the exact uncapped solve is the answer if it meets the cap.
    Returns (V stack, iota, mu); when cap <= 0, V = 0, which meets the cap
    with any mu >= 0, and mu = 0."""
    if cap <= 0:
        return np.zeros_like(rhs), 0.0, 0.0
    ops = np.stack(np.broadcast_arrays(np.diag(scale_diag), herm(dagger(cross) @ cross)))
    budget, tols = np.array([p_max, cap]), np.array([tol, max(tol, 1e-9 * cap)])
    x, point, binds = np.array([iota0, mu0], dtype=float), None, False
    dual = (rhs, scale_diag, p_max, tol)

    def at(x):                        # (V, M^{-1}, g, grad g) at x
        inv = np.linalg.inv(quad + np.einsum("a,aknp->knp", x, ops))
        v = inv @ rhs
        used = np.einsum("knd,aknp,kpd->a", v.conj(), ops, v).real
        return v, inv, -np.vdot(rhs, v).real - x @ budget, used - budget

    for _ in range(CAP_NEWTON_STEPS):
        if x[1] == 0:
            (v, x[0]), point = _solve_power_dual(quad, *dual, x[0]), None
            binds = np.vdot(cross @ v, cross @ v).real > cap + tols[1]
            if not binds:
                return v, x[0], 0.0
        if x[0] == 0 and point is None:   # A may be singular: G on, iota exact
            x[1] = x[1] or np.einsum("knn->", quad).real / np.einsum("knn->", ops[1]).real
            x[0] = _solve_power_dual(quad + x[1] * ops[1], *dual, iota0)[1]
        v, inv, value, grad = point or at(x)
        if np.all(np.where(x > 0, np.abs(grad), grad) <= tols):
            return v, x[0], x[1]
        free, step, bv = (x > 0) | (grad > 0), np.zeros(2), ops @ v
        hess = -2.0 * np.einsum("aknd,bknd->ab", bv.conj(), inv @ bv).real
        step[free] = -np.linalg.solve(hess[np.ix_(free, free)], grad[free])
        for alpha in 0.5 ** np.arange(60):    # backtrack, or stop in g's rounding
            trial = np.maximum(x + alpha * step, 0.0)
            point, gain = at(trial) if trial[1] > 0 else None, grad @ (trial - x)
            if (not binds if point is None else point[2] - value >= 1e-4 * abs(gain)
                    or abs(gain) <= 1e-14 * (abs(value) + x @ budget)):
                break
        x = trial
    grad = (point or at(x))[3]        # the residuals where the search stopped
    raise DualSearchError(f"cap dual search stopped at iota={x[0]:.6g}, mu={x[1]:.6g}, "
                          f"residuals {grad[0]:.3g} (power), {grad[1]:.3g} (cap)")


def _precoder_step(decoders, mse_weights, shares, g, sic, residual, config,
                   si_caps=None, si_duals=(0.0, 0.0), duals=(0.0, 0.0)):
    """Exact minimizer of the scenario-weighted MSE over both directions'
    precoders, each under its power budget and, given si_caps, a cap on the
    self-interference it puts into its own receiver through the estimated cross
    channel sic, searched from the last duals; residual is _sic_residual(g,
    sic). Returns (precoders, duals, si_duals)."""
    grams = _weighted_decoder_grams(decoders, mse_weights)
    leaks = _leakage_stacks(grams, shares, g, config)
    out = []
    for i in DIRECTIONS:
        j = 1 - i
        hu = np.einsum("skmn,kmd->sknd", g[(i, i)].conj(), decoders[i])
        quad = leaks[i] + np.einsum("s,sknd,kde,skpe->knp", shares, hu,
                                    mse_weights[i], hu.conj())
        rhs = np.einsum("s,sknd,kde->kne", shares, hu, mse_weights[i])
        d = residual[j]                      # residual SI leaks through the error
        if d is not None:
            quad = quad + np.einsum("s,skmn,kmp,skpq->knq", shares, d.conj(),
                                    grams[j], d)
        args = (herm(quad), rhs, 1.0 + config.subcarriers * config.tx_distortion[i],
                config.p_max[i], POWER_REL_TOL * config.p_max[i])
        out.append((*_solve_power_dual(*args, duals[i]), 0.0) if si_caps is None else
                   _capped_power_dual(*args, sic[(j, i)], si_caps[i], si_duals[i], duals[i]))
    precoders, duals, mus = zip(*out)
    return list(precoders), duals, mus


# ---------------------------------------------------------------------------
# public single-step wrappers (nominal: estimated channels, one scenario)
# ---------------------------------------------------------------------------

def update_receivers(precoders, channels: ChannelRealization, config: SystemConfig):
    shares, g = _stack([(1.0, channels.h_est)])
    sigmas = covariance_stacks(precoders, g, config, (None, None))
    return _receiver_step(precoders, shares, g, sigmas, config)


def update_precoders(decoders, mse_weights, channels: ChannelRealization,
                     config: SystemConfig):
    shares, g = _stack([(1.0, channels.h_est)])
    precoders, duals, _ = _precoder_step(decoders, mse_weights, shares, g,
                                         channels.h_est, (None, None), config)
    return precoders, duals


def _weight_block(precoders, decoders, g, sigmas, config):
    """S = E^{-1} at the current point from one MSE evaluation; returns (E, S,
    the rate surrogate there, the design-model weighted sum rate in bits)."""
    errors = mse_stacks(precoders, decoders, g, sigmas)
    weights = [herm(np.linalg.inv(e)) for e in errors]
    return (errors, weights, rate_surrogate(errors, weights, config),
            weighted_rate(precoders, sigmas, g, config))


def run_altqcp_scenarios(scenarios, config: SystemConfig, options: SolverOptions,
                         init_precoders_override=None, weight_block=False,
                         si_caps=None):
    """The block-coordinate driver behind every designer.

    One iteration updates the precoders (exact QCQP; with si_caps also capping
    each direction's self-interference power), then the MMSE receivers, then,
    with weight_block, the MSE weights S = E^{-1}, whose rate-weighted copy
    omega_i S_i the next precoder step minimizes (WMMSE, Shi et al. 2011).
    The tracked objective is the scenario-weighted MSE (identity weights), or
    with weight_block the rate surrogate; the loop stops when it moves by at
    most rel_tol. The first scenario is the estimate: cancellation, the
    surrogate and the report are referenced to it. The scenarios are stacked
    once per run, and each precoder update builds their covariances once.
    """
    sic = scenarios[0][1]
    if init_precoders_override is not None:
        precoders = [v.copy() for v in init_precoders_override]
    else:
        precoders = init_precoders(sic, config)
    shares, g = _stack(scenarios)
    residual = _sic_residual(g, sic)

    def first():                      # the first scenario's covariances
        return [s[0] for s in sigmas]

    def objective():
        if weight_block:
            errors = mse_stacks(precoders, decoders, sic, first())
            return rate_surrogate(errors, weights, config)
        return _design_objective(precoders, decoders, weights, shares, g, sigmas)

    sigmas = covariance_stacks(precoders, g, config, residual)
    decoders = _receiver_step(precoders, shares, g, sigmas, config)

    rate_trace = None
    if weight_block:
        _, weights, value, rate_now = _weight_block(precoders, decoders, sic,
                                                    first(), config)
        rate_trace = [rate_now]
    else:
        weights = identity_weights(config)
        value = objective()
    trace = [value]
    blocks, slackness, tightness = [], [], []
    si_duals = duals = (0.0, 0.0)
    converged = False
    for _ in range(options.max_iters):
        step_weights = ([config.rate_weights[i] * weights[i] for i in DIRECTIONS]
                        if weight_block else weights)
        precoders, duals, si_duals = _precoder_step(
            decoders, step_weights, shares, g, sic, residual, config, si_caps,
            si_duals, duals)
        sigmas = covariance_stacks(precoders, g, config, residual)
        block = [objective()]
        decoders = _receiver_step(precoders, shares, g, sigmas, config)
        if weight_block:
            # the new point's MSE matrices also give the old-weight surrogate
            errors, new, value, rate_now = _weight_block(precoders, decoders, sic,
                                                         first(), config)
            block += [rate_surrogate(errors, weights, config), value]
            weights = new
            rate_trace.append(rate_now)
            tightness.append(abs(value - LN2 * rate_now))
        else:
            block.append(objective())
        blocks.append(tuple(block))
        slackness.append(tuple(
            (duals[i], power_usage(precoders[i], config.tx_distortion[i]))
            for i in DIRECTIONS))
        trace.append(block[-1])
        if abs(trace[-1] - trace[-2]) <= options.rel_tol * max(abs(trace[-2]), 1e-300):
            converged = True
            break
    design = TransceiverDesign(precoders=tuple(precoders), decoders=tuple(decoders),
                               mse_weights=tuple(weights))
    extras = {"power_slackness": slackness}
    if weight_block:
        extras.update(surrogate_blocks=blocks, tightness_gap=tightness)
    else:
        extras["half_step_objectives"] = blocks
    if si_caps is not None:
        extras["si_duals"] = si_duals
    report = replace(design_report(precoders, decoders, sic, first(), config),
                     objective_trace=trace, iterations=len(blocks),
                     converged=converged, rate_trace=rate_trace, extras=extras)
    return design, report


def run_altqcp(channels: ChannelRealization, config: SystemConfig,
               options: SolverOptions = None):
    """Sum-MSE minimizer designing on the estimated channels. Returns
    (TransceiverDesign, PerformanceReport)."""
    return run_altqcp_scenarios([(1.0, channels.h_est)], config,
                                options or SolverOptions())
