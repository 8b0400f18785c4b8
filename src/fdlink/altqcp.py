"""Alternating weighted-MSE minimization with closed-form block updates.

Both directions' precoders and receive filters are updated in turn. The
receiver step is an MMSE filter against all the design model predicts the
receiver will see; the precoder step solves a per-direction convex QCQP exactly:
by a scalar power dual, searched by Newton's method from the last iteration's
value; under a self-interference cap, by probes of that exact solve at trial
multipliers mu of the cap. Its self-interference si(mu) can jump only at mu =
0, as for mu > 0 each null direction of the step's matrix carries none; that
hard case is closed in _capped_power_dual.

run_altqcp_scenarios is the one block-coordinate driver of the package: the
weighted sum-rate designer (wmmse), the cutting-set inner design (robust) and
the threshold baselines (baselines) are this loop with its weight block or its
self-interference cap switched on. All updates take a scenario stack, (S,)
weights and (S, K, M, N) channels, and reduce over its leading axis; the
nominal algorithm is the one-scenario stack of the estimated channels. The
driver designs a fleet of problems at once, on one more leading axis.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Integral, Real

import numpy as np

from .model import (DIRECTIONS, PAIRS, ChannelRealization, PerformanceReport,
                    SystemConfig, TransceiverDesign, _design_objective, _sic_residual,
                    _stack, covariance_stacks, identity_weights, mse_stacks, power_usage,
                    rate_surrogate, weighted_rate)
from .util import (LN2, ConfigError, DualSearchError, _secular_solve, dagger,
                   herm, stabilized)


# the power dual stops when the power is within this fraction of the budget
POWER_REL_TOL = 1e-9
CAP_PROBES = 60         # power-dual probes of a capped precoder step before DualSearchError


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
    direction, and per member of a fleet) so the distortion-aware power usage
    equals the budget exactly.
    """
    out = []
    for i in DIRECTIONS:
        # numpy svd returns rows of vh as right singular vectors, descending
        _, _, vh = np.linalg.svd(h_est[(i, i)], full_matrices=False)
        v = dagger(vh[..., :config.streams[i], :])
        used = power_usage(v, config.tx_distortion[i])
        scale = np.sqrt(config.p_max[i] / np.where(used > 0, used, np.inf))
        out.append(v * scale[..., None, None, None])
    return out


# ---------------------------------------------------------------------------
# scenario stack: (S,) weights and (S, K, M, N) channels the design treats as
# possible truths; SIC is always referenced to the estimated channels. A fleet
# puts its member axis in front: (B, S) weights, (B, S, K, M, N) channels and
# (B, K, ., .) precoders, decoders and weights.
# ---------------------------------------------------------------------------

def _receiver_step(precoders, shares, g, sigmas):
    """Linear MMSE receivers for the scenario-weighted design objective."""
    out = []
    for i in DIRECTIONS:
        hv = g[(i, i)] @ precoders[i][..., None, :, :, :]
        acc = (np.einsum("...s,...skmp->...kmp", shares, sigmas[i])
               + np.einsum("...s,...skmd,...skpd->...kmp", shares, hv, hv.conj()))
        rhs = np.einsum("...s,...skmd->...kmd", shares, hv)
        out.append(np.linalg.solve(stabilized(herm(acc)), rhs))
    return out


def _weighted_decoder_grams(decoders, mse_weights):
    """W_j^l = U S U^H per direction and subcarrier."""
    return [np.einsum("...kmd,...kde,...kpe->...kmp", decoders[j], mse_weights[j],
                      decoders[j].conj()) for j in DIRECTIONS]


def _leakage_stacks(grams, shares, g, config):
    """Scenario-weighted distortion-leakage quadratic terms for the precoder
    update of every direction, all subcarriers at once, from the decoder
    grams W_j^l = U_j^l S_j^l U_j^l^H, with H the channels of scenario s:

    J_i^k = sum_s shares_s sum_l sum_j [ H_ji^k^H diag(W_j^l Theta_rx,j) H_ji^k
                                         + diag(H_ji^l^H W_j^l H_ji^l Theta_tx,i) ]
    """
    rx_profile = [config.rx_distortion[j]
                  * np.einsum("...kmm->...m", grams[j]).real for j in DIRECTIONS]
    out = []
    for i in DIRECTIONS:
        n = config.tx_antennas[i]
        term1, diag2 = 0.0, 0.0
        for j in DIRECTIONS:
            h = g[(j, i)]
            term1 = term1 + np.einsum("...s,...skmn,...m,...skmp->...knp", shares,
                                      h.conj(), rx_profile[j], h)
            diag2 = diag2 + np.einsum("...s,...skmn,...kmp,...skpn->...n", shares,
                                      h.conj(), grams[j], h).real
        term1[..., np.arange(n), np.arange(n)] += (config.tx_distortion[i]
                                                   * diag2)[..., None, :]
        out.append(herm(term1))
    return out


def _rows(lead, a, core=()):
    """a broadcast to lead + core and flattened to one row per leading index."""
    a = np.asarray(a)
    return (a if a.shape == lead + core else np.broadcast_to(a, lead + core)).reshape(
        (-1,) + core)


def _dots(a, b):
    """Re sum conj(a) b for each row of two stacks, as np.vdot sums a pair."""
    return (a.reshape(len(a), 1, -1).conj() @ b.reshape(len(b), -1, 1))[:, 0, 0].real


def _solve_power_dual(quad, rhs, scale_diag, p_max, tol, iota0=0.0, spectrum=False):
    """min_V sum_k tr(V^H A^k V) - 2 Re tr(C^k^H V) s.t. tr(B sum_k V V^H) <= P
    with A Hermitian and B = diag(scale_diag) > 0; returns (V stack, iota >= 0)
    and, with spectrum, Lambda + iota and B^(-1/2) Q below, one row per problem.
    Leading axes of the arguments are independent problems; V and iota carry them.

    With B^(-1/2) A B^(-1/2) = Q Lambda Q^H, one batched eigendecomposition,
    V(iota) = B^(-1/2) Q (Lambda + iota)^{-1} Q^H B^(-1/2) C, and the power is
    a sum of inverse squares in iota: util._secular_solve finds its roots from
    iota0 (the last iteration's duals), and V is read off the same basis.
    """
    lead, (k, n, d) = quad.shape[:-3], rhs.shape[-3:]
    quad, rhs = quad.reshape(-1, k, n, n), rhs.reshape(-1, k, n, d)
    col = _rows(lead, scale_diag, (n,))[:, None, :, None] ** -0.5
    # eigh reads one triangle; scaling by a symmetric outer product keeps an
    # exactly Hermitian quad exactly Hermitian
    lam, basis = np.linalg.eigh(quad * (col * col.swapaxes(2, 3)))
    basis = col * basis                 # B^(-1/2) Q
    x, iota, shifted = _secular_solve(np.maximum(lam, 0.0), dagger(basis) @ rhs,
                                      *(_rows(lead, a) for a in (p_max, tol, iota0)))
    v, iota = (basis @ x).reshape(lead + (k, n, d)), iota.reshape(lead)
    return (v, iota, shifted, basis) if spectrum else (v, iota)


def _capped_power_dual(quad, rhs, scale_diag, p_max, tol, cross, cap, mu0, iota0=0.0):
    """_solve_power_dual with one more constraint, si(V) = sum_k ||cross^k V^k||^2
    <= cap; returns (V stack, iota, mu), with V = 0 and mu = 0 where cap <= 0.
    Leading axes are independent problems.

    At a fixed multiplier mu the step is the power-dual problem on A + mu G,
    G = cross^H cross, and si(mu) does not increase (the parametric Lagrangian,
    Boyd & Vandenberghe 2004, ch. 5). Each probe is one batched
    _solve_power_dual, warm in iota; mu steps from mu0 by Newton on si^(-1/2)
    inside a bracket, until |si - cap| <= max(tol, 1e-9 cap) or mu = 0 with
    si <= cap. For mu > 0 each null direction z of A + iota B + mu G has
    G z = 0 (all three are PSD), so si(mu) can jump only at mu = 0, where A is
    singular and the budget slack (the hard case, More and Sorensen 1983).
    There, and below the mu a probe resolves, the bracket closes short of the
    cap: a bracketed row also stops where si = cap on the segment between its
    ends (si and the power are convex on it), with the ends' multipliers
    interpolated, once its stationarity residual is within 1e-10 of C.
    """
    if np.all(np.isinf(cap)):
        v, iota = _solve_power_dual(quad, rhs, scale_diag, p_max, tol, iota0)
        return v, iota, np.zeros(iota.shape)
    lead, (k, n, d) = quad.shape[:-3], rhs.shape[-3:]
    quad, rhs = quad.reshape(-1, k, n, n), rhs.reshape(-1, k, n, d)
    scale, cross = _rows(lead, scale_diag, (n,)), _rows(lead, cross, cross.shape[-3:])
    p_max, tol, cap = (_rows(lead, a) for a in (p_max, tol, cap))
    gram, r = herm(dagger(cross) @ cross), np.flatnonzero(cap > 0)
    mu, iota = (np.where(cap > 0, _rows(lead, a), 0.0) for a in (mu0, iota0))
    # the bracket: V and (mu, iota) of the last probe over (0) and under (1) the cap
    v, ends = np.zeros(rhs.shape, complex), np.zeros((2,) + rhs.shape, complex)
    duals = np.array([[[-np.inf, 0.0]], [[np.inf, 0.0]]]).repeat(len(quad), 1)
    for probe in range(CAP_PROBES + 1):
        if not len(r):
            return v.reshape(lead + (k, n, d)), iota.reshape(lead), mu.reshape(lead)
        if probe == CAP_PROBES:
            raise DualSearchError(f"cap dual search stopped at mu={m[0]:.6g} in [{lo[0]:.6g}, "
                                  f"{hi[0]:.6g}], cap residual {miss[0]:.3g}")
        m, c, g = mu[r], cap[r], gram[r]
        vr, io, shift, basis = _solve_power_dual(
            quad[r] + m[:, None, None, None] * g, rhs[r], scale[r], p_max[r], tol[r], iota[r],
            spectrum=True)
        v[r], iota[r], gv = vr, io, cross[r] @ vr
        si = _dots(gv, gv)
        ends[(si <= c) * 1, r], duals[(si <= c) * 1, r] = vr, np.stack([m, io], 1)
        lo, hi = duals[:, r, 0]
        done = (np.abs(si - c) <= np.maximum(tol[r], 1e-9 * c)) | ((m == 0) & (si <= c))
        # -si'/2 from <x, M^+ y>, x, y in {G V, B V}, M = A + iota B + mu G; where iota > 0
        # the power dual holds the power and takes a share, until iota runs out at m + kink
        ya, yb = (dagger(basis) @ x for x in (g @ vr, scale[r, None, :, None] * vr))
        aa, ab, bb = (_dots(x, y / shift[..., None]) for x, y in ((ya, ya), (ya, yb), (yb, yb)))
        step = si * (np.sqrt(si / c) - 1.0)   # Newton on si^(-1/2), times the slope
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = aa - np.where(io > 0, ab * ab / bb, 0.0)
            kink = np.where((io > 0) & (ab > 0), io * bb / ab, np.inf)
            new = np.maximum(m + np.minimum(step / slope, kink)
                             + np.maximum(step - slope * kink, 0.0) / aa, 0.0)
            new = np.where((new > lo) & (new < hi), new, np.where(hi < np.inf, np.where(
                lo > 0, 0.5 * (lo + hi), np.where(lo < 0, 0.0, 1e-3 * hi)), m + step / aa))
        h = r[~done & (lo >= 0) & (hi < np.inf)]
        if len(h):
            gv, gd = cross[h] @ ends[1, h], cross[h] @ (ends[0, h] - ends[1, h])
            alpha, beta, gap = _dots(gd, gd), _dots(gv, gd), cap[h] - _dots(gv, gv)
            root = np.sqrt(beta * beta + alpha * gap)
            t = np.minimum(np.where(beta >= 0, gap / (beta + root), (root - beta) / alpha), 1.0)
            point = ends[1, h] + t[:, None, None, None] * (ends[0, h] - ends[1, h])
            at_mu, at_iota = ((1 - t)[:, None] * duals[1, h] + t[:, None] * duals[0, h]).T
            at_iota *= _dots(point, scale[h, None, :, None] * point) >= p_max[h] - tol[h]
            res = ((quad[h] + at_mu[:, None, None, None] * gram[h]) @ point
                   + at_iota[:, None, None, None] * scale[h, None, :, None] * point - rhs[h])
            ok = _dots(res, res) <= 1e-20 * _dots(rhs[h], rhs[h])
            v[h[ok]], iota[h[ok]], mu[h[ok]] = point[ok], at_iota[ok], at_mu[ok]
            done |= np.isin(r, h[ok])
        mu[r[~done]] = new[~done]
        r, m, miss, lo, hi = (x[~done] for x in (r, m, si - c, lo, hi))


def _precoder_step(decoders, mse_weights, shares, g, sic, residual, config,
                   si_caps=(np.inf, np.inf), si_duals=(0.0, 0.0), duals=(0.0, 0.0)):
    """Exact minimizer of the scenario-weighted MSE over both directions'
    precoders, each under its power budget and a cap (+inf: none) on the
    self-interference it puts into its own receiver through the estimated
    cross channel sic, searched from the last duals; residual is
    _sic_residual(g, sic). Caps and duals are indexed by direction first.
    Returns (precoders, duals, si_duals); directions of one shape share one
    batched dual solve."""
    grams = _weighted_decoder_grams(decoders, mse_weights)
    leaks = _leakage_stacks(grams, shares, g, config)
    terms = []
    for i in DIRECTIONS:
        j = 1 - i
        hu = np.einsum("...skmn,...kmd->...sknd", g[(i, i)].conj(), decoders[i])
        quad = leaks[i] + np.einsum("...s,...sknd,...kde,...skpe->...knp", shares, hu,
                                    mse_weights[i], hu.conj())
        rhs = np.einsum("...s,...sknd,...kde->...kne", shares, hu, mse_weights[i])
        d = residual[j]                      # residual SI leaks through the error
        if d is not None:
            quad = quad + np.einsum("...s,...skmn,...kmp,...skpq->...knq", shares,
                                    d.conj(), grams[j], d)
        terms.append((herm(quad), rhs, 1.0 + config.subcarriers * config.tx_distortion[i],
                      sic[(j, i)]))
    lead = (2,) + terms[0][1].shape[:-3]
    p_max = np.array(config.p_max).reshape((2,) + (1,) * (len(lead) - 1))
    limits = (p_max, POWER_REL_TOL * p_max)
    state = [np.asarray(a) for a in (si_caps, si_duals, duals)]
    if len(set(zip(config.tx_antennas, config.rx_antennas, config.streams))) == 1:
        quad, rhs, scale, cross = (np.array(column) for column in zip(*terms))
        precoders, duals, mus = _capped_power_dual(quad, rhs, scale, *limits, cross, *state)
        return list(precoders), duals, mus
    precoders, duals, mus = zip(*(_capped_power_dual(
        quad, rhs, scale, *(a[i] for a in limits), cross, *(a[i] for a in state))
        for i, (quad, rhs, scale, cross) in enumerate(terms)))
    return list(precoders), np.stack(duals), np.stack(mus)


# ---------------------------------------------------------------------------
# public single-step wrappers (nominal: estimated channels, one scenario)
# ---------------------------------------------------------------------------

def update_receivers(precoders, channels: ChannelRealization, config: SystemConfig):
    shares, g = _stack([(1.0, channels.h_est)])
    sigmas = covariance_stacks(precoders, g, config, (None, None))
    return _receiver_step(precoders, shares, g, sigmas)


def update_precoders(decoders, mse_weights, channels: ChannelRealization,
                     config: SystemConfig):
    shares, g = _stack([(1.0, channels.h_est)])
    precoders, duals, _ = _precoder_step(decoders, mse_weights, shares, g,
                                         channels.h_est, (None, None), config)
    return precoders, tuple(duals)


def _weight_block(precoders, decoders, g, sigmas, config):
    """S = E^{-1} at the current point from one MSE evaluation; returns (E, S,
    the rate surrogate there, the design-model weighted sum rate in bits)."""
    errors = mse_stacks(precoders, decoders, g, sigmas)
    weights = [herm(np.linalg.inv(e)) for e in errors]
    return (errors, weights, rate_surrogate(errors, weights, config),
            weighted_rate(precoders, sigmas, g, config))


@dataclass(frozen=True)
class DesignProblem:
    """One member of a driver fleet: weighted scenarios (weight, channel
    dict), the first of them the estimate; the config to design with; and,
    optionally, per-direction self-interference caps, starting precoders and
    the MSE-weight block (on for the weighted sum-rate designer)."""
    scenarios: list
    config: SystemConfig
    si_caps: tuple = None
    init: tuple = None
    weight_block: bool = False


def fleet_key(problem: DesignProblem):
    """What the members of one driver fleet share: every config field but
    the distortion, the scenario count, the weight block and whether
    starting precoders are given."""
    c = problem.config
    return (c.subcarriers, c.tx_antennas, c.rx_antennas, c.streams, c.p_max,
            tuple(c.noise_var.ravel().tolist()), c.rate_weights, len(problem.scenarios),
            problem.weight_block, problem.init is not None)


def _fleet_config(configs):
    """configs[0] with each direction's distortion vectors stacked to (B, N),
    one row per member."""
    return replace(configs[0], **{
        name: tuple(np.array([getattr(c, name)[i] for c in configs]) for i in DIRECTIONS)
        for name in ("tx_distortion", "rx_distortion")})


def run_altqcp_scenarios(problems, options: SolverOptions):
    """The block-coordinate driver behind every designer, run on a fleet of
    DesignProblems at once; returns (designs, run reports), one per problem.

    One iteration updates the precoders (exact QCQP; with si_caps also capping
    each direction's self-interference power), then the MMSE receivers, then,
    with the problems' weight_block, the MSE weights S = E^{-1}, whose
    rate-weighted copy omega_i S_i the next precoder step minimizes (WMMSE,
    Shi et al. 2011). The tracked objective is the scenario-weighted MSE
    (identity weights), or with weight_block the rate surrogate; a member
    stops when it moves by at most rel_tol. A member's first scenario is its
    estimate: cancellation and the surrogate are referenced to it.

    The members share their fleet_key, or the call raises ConfigError. They
    are stacked on one leading fleet axis B, each update is one batched call
    over it, and each member's arithmetic is that of its run alone (a fleet
    of one). A member that stops leaves the fleet with its state, trace and
    iteration count; the run ends when every member has.
    """
    if len({fleet_key(p) for p in problems}) > 1:
        raise ConfigError("a fleet's problems must share their fleet_key")
    weight_block, configs = problems[0].weight_block, [p.config for p in problems]
    config = _fleet_config(configs)
    shares = np.array([[w for w, _ in p.scenarios] for p in problems], dtype=float)
    g = {pair: np.array([[h[pair] for _, h in p.scenarios] for p in problems])
         for pair in PAIRS}
    sic = {pair: g[pair][:, 0] for pair in PAIRS}
    residual = _sic_residual(g, {pair: g[pair][:, :1] for pair in PAIRS})
    caps = np.array([p.si_caps or (np.inf, np.inf) for p in problems]).T
    precoders = (init_precoders(sic, config) if problems[0].init is None
                 else [np.array([p.init[i] for p in problems]) for i in DIRECTIONS])

    def first():                      # the first scenario's covariances
        return [s[:, 0] for s in sigmas]

    def objective():
        if weight_block:
            errors = mse_stacks(precoders, decoders, sic, first())
            return rate_surrogate(errors, weights, config)
        return _design_objective(precoders, decoders, weights, shares, g, sigmas)

    sigmas = covariance_stacks(precoders, g, config, residual)
    decoders = _receiver_step(precoders, shares, g, sigmas)
    if weight_block:
        _, weights, value, rate_now = _weight_block(precoders, decoders, sic,
                                                    first(), config)
        rate_traces = [[rate] for rate in rate_now.tolist()]
    else:
        weights = [np.broadcast_to(w, (len(problems),) + w.shape).copy()
                   for w in identity_weights(config)]
        value, rate_traces = objective(), [None] * len(problems)
    # each problem's report fills in as its run goes: its traces, and in
    # extras its power slackness, half-step blocks and surrogate tightness
    blocks = "surrogate_blocks" if weight_block else "half_step_objectives"
    keys = ("power_slackness", blocks) + (("tightness_gap",) if weight_block else ())
    reports = [PerformanceReport(objective_trace=[start], rate_trace=rate_trace,
                                 extras={key: [] for key in keys})
               for start, rate_trace in zip(value.tolist(), rate_traces)]
    designs = [None] * len(problems)
    members = list(range(len(problems)))          # the problem of each fleet row
    si_duals = duals = np.zeros((2, len(problems)))

    def finish(rows, converged):      # the members of these rows stop here
        for n in rows:
            b = members[n]
            report = reports[b]
            report.iterations, report.converged = len(report.objective_trace) - 1, converged
            if problems[b].si_caps is not None:
                report.extras["si_duals"] = tuple(si_duals[:, n].tolist())
            designs[b] = TransceiverDesign(*(tuple(x[n] for x in xs) for xs in
                                             (precoders, decoders, weights)))

    for _ in range(options.max_iters):
        step_weights = ([config.rate_weights[i] * weights[i] for i in DIRECTIONS]
                        if weight_block else weights)
        precoders, duals, si_duals = _precoder_step(
            decoders, step_weights, shares, g, sic, residual, config, caps,
            si_duals, duals)
        sigmas = covariance_stacks(precoders, g, config, residual)
        block = [objective()]
        decoders = _receiver_step(precoders, shares, g, sigmas)
        if weight_block:
            # the new point's MSE matrices also give the old-weight surrogate
            errors, new, value, rate_now = _weight_block(precoders, decoders, sic,
                                                         first(), config)
            block += [rate_surrogate(errors, weights, config), value]
            weights = new
        else:
            block.append(objective())
        used = [power_usage(precoders[i], config.tx_distortion[i]).tolist()
                for i in DIRECTIONS]
        dual, rates = duals.tolist(), rate_now.tolist() if weight_block else None
        stopped = []
        for n, values in enumerate(zip(*(x.tolist() for x in block))):
            report = reports[members[n]]
            trace, extras = report.objective_trace, report.extras
            extras[blocks].append(values)
            extras["power_slackness"].append(tuple((dual[i][n], used[i][n])
                                                   for i in DIRECTIONS))
            if weight_block:
                report.rate_trace.append(rates[n])
                extras["tightness_gap"].append(abs(values[-1] - LN2 * rates[n]))
            trace.append(values[-1])
            if abs(trace[-1] - trace[-2]) <= options.rel_tol * max(abs(trace[-2]), 1e-300):
                stopped.append(n)
        if stopped:
            finish(stopped, True)
            rest = [n for n in range(len(members)) if n not in stopped]
            if not rest:
                break
            members = [members[n] for n in rest]
            duals, si_duals, caps = duals[:, rest], si_duals[:, rest], caps[:, rest]
            precoders, decoders, weights, residual, sigmas = (
                [None if x is None else x[rest] for x in xs] for xs in
                (precoders, decoders, weights, residual, sigmas))
            shares, g, sic = shares[rest], *({p: h[rest] for p, h in d.items()}
                                             for d in (g, sic))
            config = _fleet_config([configs[b] for b in members])
    else:
        finish(range(len(members)), False)
    return designs, reports


def run_altqcp(channels: ChannelRealization, config: SystemConfig,
               options: SolverOptions = None):
    """Sum-MSE minimizer designing on the estimated channels. Returns
    (TransceiverDesign, run report); evaluate_design gives the metrics."""
    (design,), (report,) = run_altqcp_scenarios(
        [DesignProblem([(1.0, channels.h_est)], config)], options or SolverOptions())
    return design, report
