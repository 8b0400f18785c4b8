"""Worst-case weighted MSE over norm-bounded channel estimation errors.

Every way an estimation error Delta_ij^k enters the weighted MSE is a squared
affine map of that single error matrix (desired-signal mismatch, residual
self-interference after cancellation, transmit-distortion leakage, and
receive-distortion pickup), and no term couples two different error matrices.
The objective therefore splits exactly into a Delta-independent remainder plus
one convex quadratic ||C vec(Delta) + c||^2 per (receiver, transmitter,
subcarrier) triple, each maximized in closed form over its own Frobenius
ball ||Delta_ij^k||_F <= zeta through a trust-region-style secular equation,
solved by the same Newton search as the precoder's power dual. One oracle
pass gives both the certified worst case and the pessimizing channel that
attains it; a cutting-set loop appends that channel to its scenario set to
reach a robust design.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .altqcp import DesignProblem, SolverOptions, run_altqcp_scenarios
from .model import (DIRECTIONS, PAIRS, ChannelRealization, SystemConfig,
                    TransceiverDesign, _design_objective, _sic_residual, _stack,
                    covariance_stacks)
from .util import ConfigError, _rational_root, dagger, herm

# the cut loop stops once the certified worst case is within this fraction of
# the design objective
CUT_REL_TOL = 1e-3
# and makes at most this many designs
MAX_CUTS = 8


@dataclass(frozen=True)
class QuadraticErrorForm:
    """||map @ vec(Delta) + offset||^2 as a function of one error matrix,
    vec column-major, over the ball ||vec(Delta)|| <= radius."""
    map: np.ndarray
    offset: np.ndarray
    radius: float


@dataclass(frozen=True)
class WorstCaseResult:
    b_star: np.ndarray
    rho_star: float
    value: float
    hard_case: bool = False


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


def _pair_forms(design, channels, config, i, j, weights):
    """Exact quadratic dependence of the weighted MSE on Delta_ij^k for all k
    at once, from pair-level pieces built once: (K, rows, M_i N_j) maps and
    (K, rows) offsets.

    Three stacked blocks: (1) the filtered direct/residual term
    W^H U^H Delta V (minus the nominal target when j == i; cancellation
    removes the nominal cross term when j != i); (2) transmit-distortion
    leakage through Delta with chain power profile Q_tx^(1/2); (3) the
    receive-distortion pickup, one row scaling sqrt(g_hat) per antenna.
    """
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


def build_quadratic_form(design: TransceiverDesign,
                         channels: ChannelRealization, config: SystemConfig,
                         i: int, j: int, k: int,
                         mse_weights=None) -> QuadraticErrorForm:
    """The form of Delta_ij^k alone: subcarrier k of the pair's stack."""
    if i not in DIRECTIONS or j not in DIRECTIONS:
        raise ConfigError(f"direction indices must be 0 or 1, got ({i}, {j})")
    if not 0 <= k < config.subcarriers:
        raise ConfigError(f"subcarrier index {k} out of range")
    weights = mse_weights if mse_weights is not None else design.mse_weights
    maps, offsets = _pair_forms(design, channels, config, i, j, weights)
    return QuadraticErrorForm(map=maps[k], offset=offsets[k],
                              radius=float(channels.csi_radius[(i, j)][k]))


def _solve_forms(g, c, z):
    """max_{||b|| <= z} ||G b + c||^2 for (F, rows, n) maps G, (F, rows)
    offsets c and (F,) radii z > 0: (maximizers, multipliers rho, values,
    hard-case flags, KKT residuals), one per form.

    Boundary stationarity gives (rho I - M) b = m with rho >= lam_max,
    M = G^H G, m = G^H c: one stacked eigh of M and one batched secular
    equation solve it. In the hard case of More and Sorensen (1983), m has no
    component on the top eigenspace; if the solve off that space stays inside
    the ball, a top-eigenvector component pads it to the boundary.
    """
    # a map below the rounding of its offset moves nothing: like the power
    # dual's roundoff weights, it counts as exactly zero
    roundoff = (np.einsum("frn,frn->f", g, g.conj()).real * z * z
                <= np.finfo(float).eps ** 2 * np.einsum("fr,fr->f", c, c.conj()).real)
    g = np.where(roundoff[:, None, None], 0.0, g)
    m_mat = herm(dagger(g) @ g)
    m_vec = np.einsum("frn,fr->fn", g.conj(), c)
    lam, basis = np.linalg.eigh(m_mat)
    lam = np.maximum(lam, 0.0)
    lam_top, top_vec = lam[:, -1:], basis[:, :, -1]
    mh = np.einsum("fnm,fn->fm", basis.conj(), m_vec)
    w = (mh * mh.conj()).real
    top = lam >= lam_top - 1e-12 * np.maximum(lam_top, 1.0)
    hard = np.sqrt(np.where(top, w, 0.0).sum(axis=1)) <= 1e-10 * np.sqrt(w.sum(axis=1))
    coeff = np.divide(mh, lam_top - lam, out=np.zeros_like(mh), where=~top)
    b_perp = np.einsum("fnm,fm->fn", basis, coeff)
    norm_perp = np.linalg.norm(b_perp, axis=1)
    padded = hard & (norm_perp < z)
    # the rest solve sum_n w_n / (rho - lam_n)^2 = z^2 on rho >= lam_top for
    # t = rho - lam_top, so the top gap carries no cancellation; hard forms
    # drop their (zero-weight) top terms
    w, mh = np.where(hard[:, None] & top, 0.0, w), np.where(hard[:, None] & top, 0.0, mh)
    t, zs = np.zeros(z.shape), z[~padded]
    t[~padded] = _rational_root((lam_top - lam)[~padded], w[~padded], zs * zs,
                                1e-13 * zs * zs)
    gap = (lam_top - lam) + t[:, None]
    gap[gap <= 0] = np.inf                # only zero-weight terms can hit this
    b = np.einsum("fnm,fm->fn", basis, mh / gap)
    with np.errstate(divide="ignore", invalid="ignore"):
        b *= (z / np.linalg.norm(b, axis=1))[:, None]   # onto the boundary exactly
    # m = 0 with M = 0: nothing depends on b, so b stays 0
    tau = np.sqrt(np.maximum(z * z - norm_perp * norm_perp, 0.0)) * (lam_top[:, 0] > 0)
    b = np.where(padded[:, None], b_perp + tau[:, None] * top_vec, b)
    rho = lam_top[:, 0] + t
    r = np.einsum("frn,fn->fr", g, b) + c
    kkt = rho[:, None] * b - np.einsum("fnm,fm->fn", m_mat, b) - m_vec
    return b, rho, (r * r.conj()).real.sum(axis=1), padded, np.linalg.norm(kkt, axis=1)


def worst_case_error(form: QuadraticErrorForm) -> WorstCaseResult:
    """max_{||b|| <= radius} ||map b + offset||^2: one form through the
    stacked solve."""
    if form.radius == 0.0:
        b = np.zeros(form.map.shape[1], dtype=complex)
        rho, value, hard = np.inf, np.vdot(form.offset, form.offset).real, False
    else:
        b, rho, value, hard, _ = (x[0] for x in _solve_forms(
            form.map[None], form.offset[None], np.array([form.radius])))
    return WorstCaseResult(b_star=b, rho_star=float(rho), value=float(value),
                           hard_case=bool(hard))


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
        maps, offsets = _pair_forms(design, channels, config, i, j, weights)
        c = offsets[live]
        b, _, value, _, _ = _solve_forms(maps[live], c, radii[live])
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
    made elsewhere, stands in for it and is left unchanged."""
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
