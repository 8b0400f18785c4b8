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
util._secular_solve. build_quadratic_form builds one pair's K forms as a
stack and worst_case_error solves a stack of forms; the oracle runs each
pair through both. One oracle pass gives both the certified worst case and
the pessimizing channel that attains it; a cutting-set loop appends that
channel to its scenario set to reach a robust design.
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
    """kron(b^k^T, a^k) for every k of a (K, n, c) and a (K, r, m) stack: the
    (K, c r, n m) maps with vec(a^k X b^k) = map^k vec(X), column-major vec."""
    return np.einsum("knc,krm->kcrnm", b, a).reshape(len(a), b.shape[2] * a.shape[1], -1)


def build_quadratic_form(design: TransceiverDesign, channels: ChannelRealization,
                         config: SystemConfig, i: int, j: int, mse_weights=None):
    """Exact quadratic dependence of the weighted MSE on Delta_ij^k for all k
    at once, from pair-level pieces built once: (K, rows, M_i N_j) maps and
    (K, rows) offsets, ||maps^k vec(Delta_ij^k) + offsets^k||^2 with
    column-major vec.

    Three stacked blocks: (1) the filtered direct/residual term
    W^H U^H Delta V (minus the nominal target when j == i; cancellation
    removes the nominal cross term when j != i); (2) transmit-distortion
    leakage through Delta with chain power profile Q_tx^(1/2); (3) the
    receive-distortion pickup, one row scaling sqrt(g_hat) per antenna.
    """
    if i not in DIRECTIONS or j not in DIRECTIONS:
        raise ConfigError(f"direction indices must be 0 or 1, got ({i}, {j})")
    weights = mse_weights if mse_weights is not None else design.mse_weights
    # weights enter as W with tr(W E) = tr(W^(1/2)^H E W^(1/2)); use a factor
    lam, q = np.linalg.eigh(herm(weights[i]))
    if np.any(lam.min(axis=1) < -1e-12 * np.maximum(abs(lam).max(axis=1), 1.0)):
        raise ConfigError("MSE weight matrices must be positive semidefinite")
    w_fac = q * np.sqrt(np.maximum(lam, 0.0))[:, None, :]
    u, v, h_nom = design.decoders[i], design.precoders[j], channels.h_est[(i, j)]
    k, m_i, n_j = h_nom.shape
    a1 = dagger(w_fac) @ dagger(u)                          # (K, d_i, M_i)
    c1 = (a1 @ h_nom @ v - dagger(w_fac) if j == i     # cancelled nominally
          else np.zeros((k, a1.shape[1], v.shape[2])))
    # (2) white across chains, flat across k
    q_tx = np.sqrt(config.tx_distortion[j] * np.einsum("knd,knd->n", v, v.conj()).real)
    b2 = np.broadcast_to(np.diag(q_tx.astype(complex)), (k, n_j, n_j))
    # (3) every subcarrier's chain power feels Delta_ij^k, so the K rows
    # collapse into one with summed filter gains
    gw = np.einsum("kmd,kde->kme", u, w_fac)
    g_hat = config.rx_distortion[i] * np.einsum("kme,kme->m", gw, gw.conj()).real
    a3 = np.broadcast_to(np.diag(np.sqrt(g_hat).astype(complex)), (k, m_i, m_i))
    maps = np.concatenate([_kron_stack(v, a1), _kron_stack(b2, a1),
                           _kron_stack(v, a3)], axis=1)
    offsets = np.concatenate([x.swapaxes(1, 2).reshape(k, -1) for x in   # vec
                              (c1, a1 @ h_nom @ b2, a3 @ h_nom @ v)], axis=1)
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


def _worst_case(design, channels, config, mse_weights=None):
    """(worst_case_mse, the channel dict attaining it): each pair builds and
    solves its positive-radius forms as one stack; their increments join the
    nominal objective and their maximizers are added to h_est^k."""
    weights = mse_weights if mse_weights is not None else design.mse_weights
    total = weighted_mse_with_errors(design, channels, config, deltas={},
                                     mse_weights=weights)
    worst = {pair: channels.h_est[pair].copy() for pair in PAIRS}
    for (i, j) in PAIRS:
        radii = channels.csi_radius[(i, j)]
        live = radii > 0
        if not live.any():
            continue
        maps, offsets = build_quadratic_form(design, channels, config, i, j, weights)
        c = offsets[live]
        b, _, value, _ = worst_case_error(maps[live], c, radii[live])
        total += float(np.maximum(value - (c * c.conj()).real.sum(axis=1), 0.0).sum())
        rows, cols = worst[(i, j)].shape[1:]
        worst[(i, j)][live] += b.reshape(-1, cols, rows).swapaxes(1, 2)
    return float(total), worst


def worst_case_mse(design: TransceiverDesign, channels: ChannelRealization,
                   config: SystemConfig, mse_weights=None) -> float:
    """Exact worst-case weighted MSE over the product of per-(i, j, k) error
    balls: the nominal objective plus each form's worst-case increment
    (the objective is additively separable across error matrices)."""
    return _worst_case(design, channels, config, mse_weights)[0]


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
        wc_value, worst = _worst_case(design, channels, config)
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
