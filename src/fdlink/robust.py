"""Worst-case weighted MSE over norm-bounded channel estimation errors.

Every way an estimation error Delta_ij^k enters the weighted MSE is a squared
affine map of that single error matrix (desired-signal mismatch, residual
self-interference after cancellation, transmit-distortion leakage, and
receive-distortion pickup), and no term couples two different error matrices.
The objective therefore splits exactly into a Delta-independent remainder plus
one convex quadratic ||C vec(Delta) + c||^2 per (receiver, transmitter,
subcarrier) triple, each maximized in closed form over its own Frobenius
ball ||Delta_ij^k||_F <= zeta through a trust-region-style secular equation:
the precoder's power dual on the reversed spectrum, read off by the same
util._secular_solve. build_quadratic_form builds the K forms of any number
of (design, pair) on a leading axis and worst_case_error solves a stack of
forms; an oracle pass runs its designs' pairs through both, once per form
shape. It gives both the certified worst cases and the pessimizing channels
that attain them; a cutting-set loop appends that channel to its scenario set.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .altqcp import DesignProblem, SolverOptions, run_altqcp_scenarios
from .model import (DIRECTIONS, PAIRS, ChannelRealization, SystemConfig,
                    TransceiverDesign, _design_objective, _sic_residual, _stack,
                    covariance_stacks)
from .util import ConfigError, _secular_solve, dagger, herm

# the cut loop stops once the certified worst case is within this fraction of
# the design objective
CUT_REL_TOL = 1e-3
# and makes at most this many designs
MAX_CUTS = 8


def weighted_mse_with_errors(design: TransceiverDesign,
                             channels: ChannelRealization,
                             config: SystemConfig, deltas,
                             mse_weights=None) -> float:
    """Weighted MSE when the true channels are h_est + delta and cancellation
    is referenced to h_est; pass {} (or all-zero entries) for the nominal
    point."""
    weights = mse_weights if mse_weights is not None else design.mse_weights
    g = {pair: channels.h_est[pair] + deltas[pair]
         if deltas.get(pair) is not None else channels.h_est[pair]
         for pair in PAIRS}
    shares, g = _stack([(1.0, g)])
    sigmas = covariance_stacks(design.precoders, g, config,
                               _sic_residual(g, channels.h_est))
    return float(_design_objective(design.precoders, design.decoders, weights,
                                   shares, g, sigmas))


def _kron_stack(b, a):
    """kron(b^k^T, a^k) for every k of (..., K, n, c) and (..., K, r, m) stacks:
    the (..., K, c r, n m) maps with vec(a^k X b^k) = map^k vec(X), column-major vec."""
    x = np.einsum("...nc,...rm->...crnm", b, a)
    return x.reshape(x.shape[:-4] + (x.shape[-4] * x.shape[-3], -1))


def build_quadratic_form(precoders, decoders, mse_weights, h_nom, tx_distortion,
                         rx_distortion, pairs):
    """Exact quadratic dependence of the weighted MSE on Delta_ij^k for all k
    of F forms, from (F, K, ., .) stacks of V_j, U_i, S_i and h_nom = h_est_ij,
    (F, .) ones of theta_tx,j and theta_rx,i, and their (i, j) in pairs: (F, K,
    rows, M_i N_j) maps and (F, K, rows) offsets, ||maps^k vec(Delta_ij^k) +
    offsets^k||^2 with column-major vec.

    Three stacked blocks: (1) the filtered direct/residual term
    W^H U^H Delta V (minus the nominal target when j == i; cancellation
    removes the nominal cross term when j != i); (2) transmit-distortion
    leakage through Delta with chain power profile Q_tx^(1/2); (3) the
    receive-distortion pickup, one row scaling sqrt(g_hat) per antenna.
    """
    if not all(i in DIRECTIONS and j in DIRECTIONS for i, j in pairs):
        raise ConfigError(f"direction indices must be 0 or 1, got {pairs}")
    # weights enter as W with tr(W E) = tr(W^(1/2)^H E W^(1/2)); use a factor
    lam, q = np.linalg.eigh(herm(mse_weights))
    if np.any(lam.min(axis=-1) < -1e-12 * np.maximum(abs(lam).max(axis=-1), 1.0)):
        raise ConfigError("MSE weight matrices must be positive semidefinite")
    w_fac = q * np.sqrt(np.maximum(lam, 0.0))[..., None, :]
    u, v, direct = decoders, precoders, np.array([i == j for i, j in pairs])
    a1 = dagger(w_fac) @ dagger(u)                          # (F, K, d_i, M_i)
    c1 = np.zeros(a1.shape[:3] + v.shape[3:], complex)     # cancelled nominally
    if direct.any():
        c1[direct] = a1[direct] @ h_nom[direct] @ v[direct] - dagger(w_fac[direct])
    # (2) white across chains, flat across k
    q_tx = np.sqrt(tx_distortion * np.einsum("...knd,...knd->...n", v, v.conj()).real)
    b2 = (np.eye(v.shape[2]) * q_tx[:, None, None]).astype(complex)  # (F, 1, N_j, N_j)
    # (3) every subcarrier's chain power feels Delta_ij^k, so the K rows
    # collapse into one with summed filter gains
    gw = np.einsum("...kmd,...kde->...kme", u, w_fac)
    g_hat = rx_distortion * np.einsum("...kme,...kme->...m", gw, gw.conj()).real
    a3 = (np.eye(u.shape[2]) * np.sqrt(g_hat)[:, None, None]).astype(complex)
    maps = np.concatenate([_kron_stack(v, a1), _kron_stack(b2, a1),
                           _kron_stack(v, a3)], axis=2)
    offsets = np.concatenate([x.swapaxes(2, 3).reshape(x.shape[:2] + (-1,)) for x in  # vec
                              (c1, a1 @ h_nom @ b2, a3 @ h_nom @ v)], axis=2)
    return maps, offsets


def worst_case_error(maps, offsets, radii):
    """max_{||b|| <= z} ||G b + c||^2 for (F, rows, n) maps G, (F, rows)
    offsets c and (F,) radii z >= 0: the tuple (maximizers, multipliers rho,
    values, hard-case pad flags), one per form. At z = 0 the maximizer is
    b = 0 and the value ||c||^2; rho and the pad flag mean nothing there.

    With M = G^H G and m = G^H c, the maximum lies on the sphere ||b|| = z,
    where ||G b + c||^2 = lam_max z^2 + ||c||^2 - (b^H (lam_max I - M) b
    - 2 Re m^H b): the precoder's power dual on the reversed spectrum
    lam_max - lam with budget z^2, and rho = lam_max + iota. One stacked eigh
    of M and util._secular_solve solve it. Where iota = 0, its hard case, b
    is padded to the sphere along the top-space part of m the read-off
    dropped, or along the top eigenvector where there is none.
    """
    z = np.asarray(radii, dtype=float)
    if not np.all(np.isfinite(z) & (z >= 0)):
        raise ConfigError(f"error radii must be finite and nonnegative, got {z}")
    g, c = maps, offsets
    # a map below the rounding of its offset moves nothing: like the power
    # dual's roundoff weights, it counts as exactly zero
    roundoff = (np.einsum("frn,frn->f", g, g.conj()).real * z * z
                <= np.finfo(float).eps ** 2 * np.einsum("fr,fr->f", c, c.conj()).real)
    g = np.where(roundoff[:, None, None], 0.0, g)
    lam, basis = np.linalg.eigh(herm(dagger(g) @ g))
    lam = np.maximum(lam, 0.0)
    mh = np.einsum("fnm,fn->fm", basis.conj(), np.einsum("frn,fr->fn", g.conj(), c))
    x, iota, shifted = _secular_solve((lam[:, -1:] - lam)[:, None], mh[:, None, :, None],
                                      z * z, 1e-13 * z * z, np.zeros(len(z)))
    b = np.einsum("fnm,fm->fn", basis, x[:, 0, :, 0])
    norm, pad = np.linalg.norm(b, axis=1), iota == 0
    with np.errstate(divide="ignore", invalid="ignore"):   # onto the sphere exactly
        b = np.where(pad[:, None], b, b * (z / norm)[:, None])
    if pad.any():
        # pad along the dropped top-space part of m: to first order it adds
        # 2 tau ||m_top||; M = 0 with m = 0 leaves nothing to pad, so b stays 0
        tau = np.sqrt(np.maximum(z * z - norm * norm, 0.0)) * (lam[:, -1] > 0) * pad
        drop = np.where(np.isinf(shifted[:, 0]), mh, 0.0)
        drop[:, -1] += np.linalg.norm(drop, axis=1) == 0
        b += np.einsum("fnm,fm->fn", basis, drop * (tau / np.linalg.norm(drop, axis=1))[:, None])
    r = np.einsum("frn,fn->fr", g, b) + c
    return b, lam[:, -1] + iota, (r * r.conj()).real.sum(axis=1), pad


def _worst_cases(designs, worlds, config, weights):
    """[(worst_case_mse, the channel dict attaining it)] of each design in its
    world with its MSE weights, from one fleet nominal evaluation and one build
    and one solve per form shape; each design sums its pairs left to right."""
    v, u, w = ([np.array([x[i] for x in xs]) for i in DIRECTIONS] for xs in
               ([d.precoders for d in designs], [d.decoders for d in designs], weights))
    g = {pair: np.array([world.h_est[pair] for world in worlds])[:, None] for pair in PAIRS}
    totals = np.zeros((len(designs), 1 + len(PAIRS)))   # nominal, then each pair's increment
    totals[:, 0] = _design_objective(v, u, w, np.ones((len(designs), 1)), g,
                                     covariance_stacks(v, g, config, (None, None)))
    worst = [{pair: world.h_est[pair].copy() for pair in PAIRS} for world in worlds]
    live_forms = [(n, (i, j), (u[i].shape, v[j].shape)) for i, j in PAIRS
                  for n, world in enumerate(worlds) if (world.csi_radius[(i, j)] > 0).any()]
    for shape in dict.fromkeys(key for *_, key in live_forms):
        forms = [(n, pair) for n, pair, key in live_forms if key == shape]
        maps, offsets = build_quadratic_form(*map(np.array, zip(*[
            (v[j][n], u[i][n], w[i][n], g[(i, j)][n, 0], config.tx_distortion[j],
             config.rx_distortion[i]) for n, (i, j) in forms])), [pair for _, pair in forms])
        radii = np.array([worlds[n].csi_radius[pair] for n, pair in forms])
        live, c = radii > 0, offsets[radii > 0]
        b, _, value, _ = worst_case_error(maps[live], c, radii[live])
        ends = np.cumsum(live.sum(axis=1))[:-1]
        gains = np.split(np.maximum(value - (c * c.conj()).real.sum(axis=1), 0.0), ends)
        for (n, pair), gain, form_b, form_live in zip(forms, gains, np.split(b, ends), live):
            totals[n, 1 + PAIRS.index(pair)] = gain.sum()
            rows, cols = worst[n][pair].shape[1:]
            worst[n][pair][form_live] += form_b.reshape(-1, cols, rows).swapaxes(1, 2)
    return [(float(t), x) for t, x in zip(np.cumsum(totals, axis=1)[:, -1], worst)]


def worst_case_mse(design: TransceiverDesign, channels: ChannelRealization,
                   config: SystemConfig, mse_weights=None) -> float:
    """Exact worst-case weighted MSE over the product of per-(i, j, k) error
    balls: the nominal objective plus each form's worst-case increment
    (the objective is additively separable across error matrices); with
    the design's own MSE weights by default."""
    weights = mse_weights if mse_weights is not None else design.mse_weights
    return _worst_cases([design], [channels], config, [weights])[0][0]


def run_cutting_set(channels: ChannelRealization, config: SystemConfig,
                    options: SolverOptions = None, first_cut=None):
    """Robust weighted-MSE design: alternate between designing against the
    average of the scenario set and appending the current worst-case channel
    hypothesis, until the worst case is within CUT_REL_TOL of the design
    objective (or MAX_CUTS designs have been made). The first design is
    run_altqcp's on the estimate; first_cut, a (design, report) of that run
    made elsewhere, stands in for it and is left unchanged. Returns (design,
    run report, the cuts in extras); evaluate_design gives the metrics."""
    options = options or SolverOptions()
    scenarios = [channels.h_est]
    history = []
    best = None                      # (wc_value, cut index, design, report)
    warm = None
    robust_converged = False
    for cut in range(MAX_CUTS):
        weighted = [(1.0 / len(scenarios), g) for g in scenarios]
        if cut == 0 and first_cut is not None:
            design, report = first_cut
        else:
            (design,), (report,) = run_altqcp_scenarios(
                [DesignProblem(weighted, config, init=warm)], options)
        warm = design.precoders
        design_value = report.objective_trace[-1]
        ((wc_value, worst),) = _worst_cases([design], [channels], config,
                                            [design.mse_weights])
        gap = (wc_value - design_value) / max(abs(design_value), 1e-300)
        history.append({"scenarios": len(scenarios), "design": design_value,
                        "worst_case": wc_value, "gap": gap})
        if best is None or wc_value < best[0]:
            best = (wc_value, cut, design, report)
        if gap < CUT_REL_TOL:
            robust_converged = True
            break
        scenarios.append(worst)
    # the averaged objective is a proxy, so keep the incumbent with the best
    # certified worst case rather than whatever the last cut produced
    wc_value, cut, design, report = best
    return design, replace(report, extras={
        **report.extras, "cuts": history, "robust_converged": robust_converged,
        "selected_cut": cut, "worst_case": wc_value})
