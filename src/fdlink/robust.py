"""Worst-case weighted MSE over norm-bounded channel estimation errors.

Every way an estimation error Delta_ij^k enters the weighted MSE is a squared
affine map of that single error matrix (desired-signal mismatch, residual
self-interference after cancellation, transmit-distortion leakage, and
receive-distortion pickup), and no term couples two different error matrices.
The objective therefore splits exactly into a Delta-independent remainder plus
one convex quadratic ||C vec(Delta) + c||^2 per (receiver, transmitter,
subcarrier) triple, each maximized in closed form over its own ellipsoid by a
trust-region-style secular equation. One oracle pass gives both the certified
worst case and the pessimizing channel that attains it; a cutting-set loop
appends that channel to its scenario set to reach a robust design.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .altqcp import SolverOptions, run_altqcp_scenarios
from .model import (DIRECTIONS, PAIRS, ChannelRealization, SystemConfig,
                    TransceiverDesign, _design_objective)
from .util import ConfigError, _rational_root, dagger, herm, unvec, vec


@dataclass(frozen=True)
class QuadraticErrorForm:
    """||map @ vec(Delta) + offset||^2 as a function of one error matrix.

    `whitener` maps the unit-ball variable b to vec(Delta) when the error set
    is shaped (vec(Delta) = whitener @ b); identity when None. `rows`/`cols`
    give Delta's shape, `target` the (receiver, transmitter, subcarrier)
    triple, `radius` the norm bound on b.
    """
    map: np.ndarray
    offset: np.ndarray
    whitener: np.ndarray | None
    rows: int
    cols: int
    target: tuple
    radius: float


@dataclass(frozen=True)
class WorstCaseResult:
    b_star: np.ndarray
    rho_star: float
    value: float
    delta_star: np.ndarray
    hard_case: bool = False
    kkt_residual: float = 0.0


def weighted_mse_with_errors(design: TransceiverDesign,
                             channels: ChannelRealization,
                             config: SystemConfig, deltas=None,
                             mse_weights=None) -> float:
    """Weighted MSE when the true channels are h_est + delta and cancellation
    is referenced to h_est. deltas defaults to the realization's actual
    errors; pass {} (or all-zero entries) for the nominal point."""
    if deltas is None:
        deltas = channels.delta()
    weights = mse_weights if mse_weights is not None else design.mse_weights
    g = {pair: channels.h_est[pair] + deltas[pair]
         if deltas.get(pair) is not None else channels.h_est[pair]
         for pair in PAIRS}
    return _design_objective(design.precoders, design.decoders, weights,
                             [(1.0, g)], channels.h_est, config)


def build_quadratic_form(design: TransceiverDesign,
                         channels: ChannelRealization, config: SystemConfig,
                         i: int, j: int, k: int,
                         mse_weights=None) -> QuadraticErrorForm:
    """Exact quadratic dependence of the weighted MSE on Delta_ij^k.

    Three stacked blocks: (1) the filtered direct/residual term
    W^H U^H Delta V (minus the nominal target when j == i, with the nominal
    cross term removed by cancellation when j != i); (2) transmit-distortion
    leakage through Delta with per-chain power profile Q_tx^(1/2); (3)
    receive-distortion pickup, whose subcarrier sum collapses into one row
    scaling sqrt(g_hat) per receive antenna.
    """
    if i not in DIRECTIONS or j not in DIRECTIONS:
        raise ConfigError(f"direction indices must be 0 or 1, got ({i}, {j})")
    if not 0 <= k < config.subcarriers:
        raise ConfigError(f"subcarrier index {k} out of range")
    weights = mse_weights if mse_weights is not None else design.mse_weights
    u = design.decoders[i][k]
    v = design.precoders[j][k]
    h_nom = channels.h_est[(i, j)][k]
    # weights enter as W with tr(W E) = tr(W^(1/2)^H E W^(1/2)); use a factor
    lam, q = np.linalg.eigh(herm(weights[i]))
    if np.any(lam.min(axis=1) < -1e-12 * np.maximum(abs(lam).max(axis=1), 1.0)):
        raise ConfigError("MSE weight matrices must be positive semidefinite")
    w_fac = q * np.sqrt(np.maximum(lam, 0.0))[:, None, :]

    a1 = dagger(w_fac[k]) @ dagger(u)                      # (d_i, M_i)
    blocks_map = []
    blocks_off = []
    # (1) filtered signal / residual interference at subcarrier k
    blocks_map.append(np.kron(v.T, a1))
    c1 = a1 @ h_nom @ v
    if j == i:
        c1 = c1 - dagger(w_fac[k])
    else:
        c1 = np.zeros_like(c1)                            # cancelled nominally
    blocks_off.append(vec(c1))
    # (2) transmit-distortion leakage: white across chains, flat across k
    chain_power = np.einsum("knd,knd->n", design.precoders[j],
                            design.precoders[j].conj()).real
    q_tx = np.sqrt(config.tx_distortion[j] * chain_power)
    b2 = np.diag(q_tx.astype(complex))
    blocks_map.append(np.kron(b2.T, a1))
    blocks_off.append(vec(a1 @ h_nom @ b2))
    # (3) receive-distortion pickup: every subcarrier's chain power feels
    # Delta_ij^k, so the K rows collapse into one with summed filter gains
    gw = np.einsum("kmd,kde->kme", design.decoders[i], w_fac)
    g_hat = config.rx_distortion[i] * np.einsum(
        "kme,kme->m", gw, gw.conj()).real
    a3 = np.diag(np.sqrt(g_hat).astype(complex))
    blocks_map.append(np.kron(v.T, a3))
    blocks_off.append(vec(a3 @ h_nom @ v))

    cmat = np.vstack(blocks_map)
    coff = np.concatenate(blocks_off)
    shaping = channels.shaping.get((i, j)) if channels.shaping else None
    whitener = None
    if shaping is not None:
        n_cols = h_nom.shape[1]
        whitener = np.kron(np.eye(n_cols), np.linalg.inv(shaping[k]))
    return QuadraticErrorForm(map=cmat, offset=coff, whitener=whitener,
                              rows=h_nom.shape[0], cols=h_nom.shape[1],
                              target=(i, j, k),
                              radius=float(channels.csi_radius[(i, j)][k]))


def worst_case_error(form: QuadraticErrorForm, radius: float = None) -> WorstCaseResult:
    """max_{||b|| <= radius} ||G b + c||^2 with G = map @ whitener.

    Solved through the eigendecomposition of G^H G: boundary stationarity
    gives (rho I - M) b = m with rho >= lam_max; the degenerate (hard) case,
    where m has no component on the top eigenspace, adds a top-eigenvector
    component to reach the boundary.
    """
    z = form.radius if radius is None else float(radius)
    if z < 0:
        raise ConfigError("error-set radius must be nonnegative")
    g = form.map @ form.whitener if form.whitener is not None else form.map
    c = form.offset
    n = g.shape[1]
    base = float(np.vdot(c, c).real)
    if z == 0.0:
        b = np.zeros(n, dtype=complex)
        return WorstCaseResult(b_star=b, rho_star=np.inf, value=base,
                               delta_star=_delta_from(form, b))
    m_mat = herm(dagger(g) @ g)
    m_vec = dagger(g) @ c
    lam, basis = np.linalg.eigh(m_mat)
    lam = np.maximum(lam, 0.0)
    lam_top = lam[-1]
    mh = dagger(basis) @ m_vec
    w = (mh * mh.conj()).real
    m_norm = np.sqrt(w.sum())

    top = lam >= lam_top - 1e-12 * max(lam_top, 1.0)
    if m_norm <= 1e-300:
        # pure homogeneous quadratic: any top eigenvector direction is worst
        if lam_top <= 0:
            b = np.zeros(n, dtype=complex)
            return WorstCaseResult(b_star=b, rho_star=0.0, value=base,
                                   delta_star=_delta_from(form, b))
        b = z * basis[:, -1]
        value = float(np.vdot(g @ b + c, g @ b + c).real)
        return WorstCaseResult(b_star=b, rho_star=float(lam_top), value=value,
                               delta_star=_delta_from(form, b))

    hard = np.sqrt(w[top].sum()) <= 1e-10 * m_norm
    if hard:
        coeff = np.zeros_like(mh)
        np.divide(mh, lam_top - lam, out=coeff, where=~top)
        b_perp = basis @ coeff
        norm_perp = float(np.linalg.norm(b_perp))
        if norm_perp < z:
            tau = np.sqrt(z * z - norm_perp * norm_perp)
            b = b_perp + tau * basis[:, -1]
            rho = float(lam_top)
            value = float(np.vdot(g @ b + c, g @ b + c).real)
            resid = float(np.linalg.norm((rho * np.eye(n) - m_mat) @ b - m_vec))
            return WorstCaseResult(b_star=b, rho_star=rho, value=value,
                                   delta_star=_delta_from(form, b),
                                   hard_case=True, kkt_residual=resid)
        # perpendicular part alone already reaches the ball: fall through to
        # the secular equation, dropping the (zero-weight) top terms
        w = np.where(top, 0.0, w)
        mh = np.where(top, 0.0, mh)
    # secular equation sum_n w_n / (rho - lam_n)^2 = z^2 on rho >= lam_top,
    # solved for t = rho - lam_top so the top gap carries no cancellation
    t = _rational_root(lam_top - lam, w, z * z, 1e-13 * z * z)
    rho = lam_top + t
    gap = (lam_top - lam) + t
    gap[gap <= 0] = np.inf                # only zero-weight terms can hit this
    b = basis @ (mh / gap)
    b = b * (z / np.linalg.norm(b))      # polish onto the boundary exactly
    value = float(np.vdot(g @ b + c, g @ b + c).real)
    resid = float(np.linalg.norm((rho * np.eye(n) - m_mat) @ b - m_vec))
    return WorstCaseResult(b_star=b, rho_star=float(rho), value=value,
                           delta_star=_delta_from(form, b),
                           kkt_residual=resid)


def _delta_from(form: QuadraticErrorForm, b: np.ndarray) -> np.ndarray:
    vecd = form.whitener @ b if form.whitener is not None else b
    return unvec(vecd, form.rows, form.cols)


def _worst_case(design, channels, config, mse_weights=None):
    """(worst_case_mse, the channel dict attaining it): each positive-radius
    form is solved once; its increment joins the nominal objective and its
    maximizer is added to h_est^k."""
    zero = {pair: np.zeros_like(channels.h_est[pair]) for pair in PAIRS}
    total = weighted_mse_with_errors(design, channels, config, deltas=zero,
                                     mse_weights=mse_weights)
    worst = {pair: channels.h_est[pair].copy() for pair in PAIRS}
    for (i, j) in PAIRS:
        radii = channels.csi_radius[(i, j)]
        for k in range(config.subcarriers):
            if radii[k] <= 0:
                continue
            form = build_quadratic_form(design, channels, config, i, j, k,
                                        mse_weights=mse_weights)
            result = worst_case_error(form)
            base = float(np.vdot(form.offset, form.offset).real)
            total += max(result.value - base, 0.0)
            worst[(i, j)][k] += result.delta_star
    return float(total), worst


def worst_case_mse(design: TransceiverDesign, channels: ChannelRealization,
                   config: SystemConfig, mse_weights=None) -> float:
    """Exact worst-case weighted MSE over the product of per-(i, j, k) error
    ellipsoids: the nominal objective plus each form's worst-case increment
    (the objective is additively separable across error matrices)."""
    return _worst_case(design, channels, config, mse_weights)[0]


def run_cutting_set(channels: ChannelRealization, config: SystemConfig,
                    options: SolverOptions = None, mse_weights=None):
    """Robust weighted-MSE design: alternate between designing against the
    average of the scenario set and appending the current worst-case channel
    hypothesis, until the worst case is within cut_rel_tol of the design
    objective (or max_cuts scenarios accumulate)."""
    options = options or SolverOptions()
    scenarios = [channels.h_est]
    history = []
    best = None                      # (wc_value, cut index, design, report)
    warm = None
    robust_converged = False
    for cut in range(max(options.max_cuts, 1)):
        weighted = [(1.0 / len(scenarios), g) for g in scenarios]
        design, report = run_altqcp_scenarios(
            weighted, channels.h_est, config, options, mse_weights=mse_weights,
            init_precoders_override=warm, channels_for_init=channels)
        warm = design.precoders
        design_value = report.objective_trace[-1]
        wc_value, worst = _worst_case(design, channels, config, mse_weights)
        gap = (wc_value - design_value) / max(abs(design_value), 1e-300)
        history.append({"scenarios": len(scenarios), "design": design_value,
                        "worst_case": wc_value, "gap": gap})
        if best is None or wc_value < best[0]:
            best = (wc_value, cut, design, report)
        if gap < options.cut_rel_tol:
            robust_converged = True
            break
        scenarios.append(worst)
    # the averaged objective is a proxy, so keep the incumbent with the best
    # certified worst case rather than whatever the last cut produced
    wc_value, cut, design, report = best
    report.extras["cuts"] = history
    report.extras["robust_converged"] = robust_converged
    report.extras["selected_cut"] = cut
    report.extras["worst_case"] = wc_value
    return design, report
