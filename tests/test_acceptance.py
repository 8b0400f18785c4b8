"""End-to-end acceptance checks.

Each test prints exactly one `[criterion NN] PASS/FAIL` line (visible even
under pytest's capture) and asserts the same verdict.  Heavy artifacts are
shared through module-scoped fixtures: one 100-trial solver fleet feeds
criteria 3, 6, 8, and 10, and one 10^5-block simulation feeds criteria 1-2.
"""

import time

import numpy as np
import pytest

from conftest import crandn_t, mmse_error, pair_form, random_psd
from fdlink import SystemConfig, run_altqcp, run_cutting_set, run_wmmse
from fdlink.altqcp import SolverOptions, identity_weights, run_altqcp_scenarios
from fdlink.baselines import design_problem, evaluate_run
from fdlink.channels import ChannelStats, draw_channels, perturb_csi
from fdlink.distortion import freq_distortion_variance, simulate_blocks
from fdlink.harness import ExperimentSpec, results_to_csv_text, run_experiment
from fdlink.model import (DIRECTIONS, PAIRS, aggregate_covariance,
                          covariance_stacks, mse_matrix, rate)
from fdlink.robust import (weighted_mse_with_errors, worst_case_error,
                           worst_case_mse)
from fdlink.util import LN2

STATS = ChannelStats()
N_FLEET = 100


def _verdict(capsys, num, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[criterion {num:02d}] {tag}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num:02d}: {detail}"


def _draw(cfg, trial, base=9000):
    channels = draw_channels(cfg, STATS, [base, trial])
    _, channels = perturb_csi(channels, cfg, [base + 100, trial], "interior")
    return channels


@pytest.fixture(scope="module")
def default_cfg():
    return SystemConfig.from_scalars()


def _designed(cfg, channels_list, algorithms, designer="altqcp"):
    """Each algorithm on every trial's channels, all in one driver fleet:
    {algorithm: [(design, driver report, evaluation world)]}, in trial order.
    Each member's run is its run alone."""
    built = [(alg, *design_problem(alg, channels, cfg, designer))
             for alg in algorithms for channels in channels_list]
    designs, reports = run_altqcp_scenarios([p for _, p, _ in built], SolverOptions())
    out = {alg: [] for alg in algorithms}
    for (alg, _, world), design, report in zip(built, designs, reports):
        out[alg].append((design, report, world))
    return out


@pytest.fixture(scope="module")
def fleet(default_cfg):
    """100 default trials: (channels, design, report) from the MSE solver."""
    channels_list = [_draw(default_cfg, t) for t in range(N_FLEET)]
    runs = _designed(default_cfg, channels_list, ["altqcp"])["altqcp"]
    return [(channels, design, report)
            for channels, (design, report, _) in zip(channels_list, runs)]


@pytest.fixture(scope="module")
def sim_run(default_cfg):
    """One 10^5-block hardware simulation of a designed default link with
    perfect CSI, plus its wall-clock time."""
    channels = draw_channels(default_cfg, STATS, [9900, 0])
    design, _ = run_altqcp(channels, default_cfg)
    t0 = time.perf_counter()
    stats = simulate_blocks(design, channels, default_cfg, 100_000, [9901])
    seconds = time.perf_counter() - t0
    return channels, design, stats, seconds


def test_criterion_01_covariance_model(default_cfg, sim_run, capsys):
    channels, design, stats, seconds = sim_run
    problems = []
    worst = 0.0
    for i in DIRECTIONS:
        for k in range(default_cfg.subcarriers):
            model = aggregate_covariance(design, channels, default_cfg, i, k)
            emp = stats.nu_cov[i][k]
            rel = np.linalg.norm(emp - model) / np.linalg.norm(model)
            worst = max(worst, rel)
            if rel >= 0.05:
                problems.append(f"(i={i},k={k}) rel={rel:.3f}")
    # noise-only limit: the covariance collapses to the thermal floor
    clean_cfg = SystemConfig.from_scalars(kappa=0.0, beta=0.0)
    clean_ch = draw_channels(clean_cfg, ChannelStats(csi_radius=0.0), [9902, 0])
    clean_design, _ = run_altqcp(clean_ch, clean_cfg)
    clean = simulate_blocks(clean_design, clean_ch, clean_cfg, 100_000, [9903])
    eye = clean_cfg.noise_var[0, 0] * np.eye(clean_cfg.rx_antennas[0])
    worst_clean = 0.0
    for i in DIRECTIONS:
        for k in range(clean_cfg.subcarriers):
            rel = np.linalg.norm(clean.nu_cov[i][k] - eye) / np.linalg.norm(eye)
            worst_clean = max(worst_clean, rel)
    if worst_clean >= 0.03:
        problems.append(f"noise-only rel={worst_clean:.3f}")
    if seconds >= 30.0:
        problems.append(f"runtime {seconds:.1f}s")
    _verdict(capsys, 1, not problems,
             f"worst rel {worst:.4f}, noise-only {worst_clean:.4f}, "
             f"{seconds:.1f}s" if not problems else "; ".join(problems))


def test_criterion_02_flat_distortion_spectrum(default_cfg, sim_run, capsys):
    _, design, stats, _ = sim_run
    problems = []
    worst_spread = 0.0
    worst_match = 0.0
    for i in DIRECTIONS:
        per_k = stats.et_var[i]            # (K, N)
        analytic = freq_distortion_variance(design.precoders[i],
                                            default_cfg.tx_distortion[i])  # (N,)
        for n in range(per_k.shape[1]):
            col = per_k[:, n]
            spread = (col.max() - col.min()) / col.mean()
            match = abs(col.mean() - analytic[n]) / analytic[n]
            worst_spread = max(worst_spread, spread)
            worst_match = max(worst_match, match)
            if spread >= 0.03:
                problems.append(f"chain ({i},{n}) spread {spread:.3f}")
            if match >= 0.03:
                problems.append(f"chain ({i},{n}) analytic gap {match:.3f}")
    _verdict(capsys, 2, not problems,
             f"spread {worst_spread:.4f}, analytic gap {worst_match:.4f}"
             if not problems else "; ".join(problems))


def test_criterion_03_monotone_and_fast(fleet, capsys):
    non_monotone = 0
    fast = 0
    for _, _, report in fleet:
        trace = np.asarray(report.objective_trace)
        if np.any(np.diff(trace) > 1e-9):
            non_monotone += 1
        rel = np.abs(np.diff(trace)) / np.maximum(np.abs(trace[:-1]), 1e-300)
        hits = np.nonzero(rel < 1e-6)[0]
        if hits.size and hits[0] + 1 <= 30:
            fast += 1
    ok = non_monotone == 0 and fast >= 0.9 * len(fleet)
    _verdict(capsys, 3, ok,
             f"{non_monotone} non-monotone, {fast}/{len(fleet)} converged "
             f"within 30 iterations")


def test_criterion_04_rate_identity(capsys):
    rng = np.random.default_rng(904)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        d = int(rng.integers(1, n + 1))
        h = crandn_t(rng, (m, n))
        v = crandn_t(rng, (n, d))
        sigma = random_psd(rng, m, scale=float(rng.uniform(0.1, 2.0)))
        sigma += 1e-3 * np.eye(m)
        r = rate(v, sigma, h)
        e = mmse_error(v, sigma, h)
        sign, logdet = np.linalg.slogdet(e)
        gap = abs(r + logdet / LN2)
        worst = max(worst, gap)
    _verdict(capsys, 4, worst < 1e-8, f"worst identity gap {worst:.2e}")


def test_criterion_05_surrogate_contracts(default_cfg, fleet, capsys):
    problems = []
    worst_dip = 0.0
    worst_tight = 0.0
    for t in range(20):
        channels = fleet[t][0]
        _, report = run_wmmse(channels, default_cfg)
        blocks = [report.objective_trace[0]]
        for tri in report.extras["surrogate_blocks"]:
            blocks.extend(tri)
        dips = -np.diff(blocks)
        worst_dip = max(worst_dip, float(dips.max(initial=0.0)))
        if np.any(dips > 1e-9):
            problems.append(f"trial {t} surrogate dip {dips.max():.2e}")
        tight = max(report.extras["tightness_gap"])
        worst_tight = max(worst_tight, tight)
        if tight > 1e-8:
            problems.append(f"trial {t} tightness {tight:.2e}")
        rates = np.asarray(report.rate_trace)
        if np.any(np.diff(rates) < -1e-8):
            problems.append(f"trial {t} rate trace dips")
    _verdict(capsys, 5, not problems,
             f"worst dip {worst_dip:.2e}, worst tightness {worst_tight:.2e}"
             if not problems else "; ".join(problems[:3]))


def test_criterion_06_kkt_conditions(default_cfg, fleet, capsys):
    problems = []
    worst_slack = 0.0
    for t, (_, _, report) in enumerate(fleet):
        for step in report.extras["power_slackness"]:
            for i in DIRECTIONS:
                iota, used = step[i]
                slack = abs(iota * (used - default_cfg.p_max[i]))
                worst_slack = max(worst_slack, slack)
                if slack >= 1e-7:
                    problems.append(f"trial {t} slackness {slack:.2e}")
                if used > default_cfg.p_max[i] + 1e-7:
                    problems.append(f"trial {t} infeasible power {used:.9f}")
    # receiver stationarity: finite-difference gradient at the MMSE point
    worst_grad = 0.0
    for t in range(10):
        channels, design, _ = fleet[t]
        sigmas = covariance_stacks(design.precoders, channels.h_est,
                                   default_cfg, (None, None))
        weights = identity_weights(default_cfg)

        def objective(decoders):
            total = 0.0
            for i in DIRECTIONS:
                for k in range(default_cfg.subcarriers):
                    e = mse_matrix(decoders[i][k], design.precoders[i][k],
                                   sigmas[i][k], channels.h_est[(i, i)][k])
                    total += np.trace(weights[i][k] @ e).real
            return total

        grad_sq = 0.0
        for i in DIRECTIONS:
            for k in range(default_cfg.subcarriers):
                for m in range(default_cfg.rx_antennas[i]):
                    for d in range(default_cfg.streams[i]):
                        for direction in (1.0, 1.0j):
                            up = [u.copy() for u in design.decoders]
                            dn = [u.copy() for u in design.decoders]
                            up[i][k, m, d] += 1e-4 * direction
                            dn[i][k, m, d] -= 1e-4 * direction
                            grad_sq += ((objective(up) - objective(dn))
                                        / 2e-4) ** 2
        worst_grad = max(worst_grad, float(np.sqrt(grad_sq)))
    if worst_grad >= 1e-6:
        problems.append(f"receiver gradient {worst_grad:.2e}")
    _verdict(capsys, 6, not problems,
             f"worst slackness {worst_slack:.2e}, worst gradient "
             f"{worst_grad:.2e}" if not problems else "; ".join(problems[:3]))


def test_criterion_07_worst_case_oracle(capsys):
    rng = np.random.default_rng(907)
    problems = []
    for trial in range(200):
        n = int(rng.integers(1, 5))
        out_dim = int(rng.integers(1, 5))
        zeta = float(rng.uniform(0.1, 1.5))
        mapping = crandn_t(rng, (out_dim, n))
        offset = crandn_t(rng, (out_dim,))
        b_star, rho_star, value, _ = (x[0] for x in worst_case_error(
            mapping[None], offset[None], np.array([zeta])))
        m_mat = mapping.conj().T @ mapping
        m_vec = mapping.conj().T @ offset
        c_sq = float(np.linalg.norm(offset) ** 2)
        samples = crandn_t(rng, (10_000, n))
        samples *= zeta / np.linalg.norm(samples, axis=1, keepdims=True)
        vals = (np.einsum("sn,nm,sm->s", samples.conj(), m_mat, samples).real
                + 2 * np.einsum("sn,n->s", samples.conj(), m_vec).real + c_sq)
        if value < float(vals.max()) - 1e-12 * max(value, 1.0):
            problems.append(f"trial {trial}: beaten by a sample")
        best = samples[int(np.argmax(vals))]
        for _ in range(300):
            g = m_mat @ best + m_vec
            norm = np.linalg.norm(g)
            if norm < 1e-14:
                break
            best = zeta * g / norm
        refined = float(np.real(best.conj() @ m_mat @ best
                                + 2 * np.real(best.conj() @ m_vec)) + c_sq)
        if abs(value - refined) > 1e-6 * max(refined, 1.0) \
                and value < refined:
            problems.append(f"trial {trial}: refined sample ahead by "
                            f"{refined - value:.2e}")
        resid = np.linalg.norm((rho_star * np.eye(n) - m_mat) @ b_star - m_vec)
        if resid >= 1e-8:
            problems.append(f"trial {trial}: KKT residual {resid:.2e}")
    # scalar closed form
    worst_scalar = 0.0
    for _ in range(100):
        a = crandn_t(rng, (1,))[0]
        c = crandn_t(rng, (1,))[0]
        zeta = float(rng.uniform(0.05, 2.0))
        value = worst_case_error(np.array([[[a]]]), np.array([[c]]),
                                 np.array([zeta]))[2][0]
        expected = (abs(a) * zeta + abs(c)) ** 2
        gap = abs(value - expected) / max(expected, 1.0)
        worst_scalar = max(worst_scalar, gap)
    if worst_scalar >= 1e-12:
        problems.append(f"scalar closed form off by {worst_scalar:.2e}")
    _verdict(capsys, 7, not problems,
             "200 instances dominated, scalar closed form exact"
             if not problems else "; ".join(problems[:3]))


def test_criterion_08_quadratic_form_fidelity(default_cfg, fleet, capsys):
    channels, design, _ = fleet[0]
    weights = identity_weights(default_cfg)
    zero = {pair: np.zeros_like(channels.h[pair]) for pair in PAIRS}
    base = weighted_mse_with_errors(design, channels, default_cfg,
                                    deltas=zero, mse_weights=weights)
    rng = np.random.default_rng(908)
    worst = 0.0
    checked = 0
    for i in DIRECTIONS:
        for j in DIRECTIONS:
            maps, offsets = pair_form(design, channels, default_cfg, i, j,
                                      mse_weights=weights)
            for k in range(default_cfg.subcarriers):
                for _ in range(7):
                    delta = 0.1 * crandn_t(rng, channels.h[(i, j)][k].shape)
                    deltas = {p: zero[p] for p in PAIRS}
                    deltas[(i, j)] = zero[(i, j)].copy()
                    deltas[(i, j)][k] = delta
                    direct = weighted_mse_with_errors(
                        design, channels, default_cfg, deltas=deltas,
                        mse_weights=weights)
                    b = delta.reshape(-1, order="F")
                    lifted = float(np.linalg.norm(maps[k] @ b
                                                  + offsets[k]) ** 2)
                    predicted = base - float(
                        np.linalg.norm(offsets[k]) ** 2) + lifted
                    rel = abs(direct - predicted) / max(abs(direct), 1.0)
                    worst = max(worst, rel)
                    checked += 1
    ok = worst < 1e-9 and checked >= 100
    _verdict(capsys, 8, ok, f"{checked} pairs, worst rel {worst:.2e}")


@pytest.fixture(scope="module")
def trend_channels(default_cfg):
    # the swept impairment levels never touch the channel draw, so one
    # realization per trial serves every sweep point
    return [_draw(default_cfg, t, base=9200) for t in range(N_FLEET)]


def _evaluated(cfg, channels_list, algorithms, designer="altqcp"):
    """{algorithm: [(design, true-model report)]}: _designed's runs, each
    finished as the harness finishes it."""
    return {alg: [evaluate_run(alg, design, report, world, cfg)
                  for design, report, world in runs]
            for alg, runs in _designed(cfg, channels_list, algorithms, designer).items()}


def _mean_true_rate(cfg, channels_list):
    total = [report.weighted_sum_rate()
             for _, report in _evaluated(cfg, channels_list, ["wmmse"])["wmmse"]]
    return float(np.mean(total)), total


def test_criterion_09_trend_reproduction(default_cfg, trend_channels, capsys):
    problems = []
    # (a) sum rate falls as transmit-side distortion grows
    kappa_rates = []
    for kdb in (-60.0, -40.0, -20.0):
        cfg = SystemConfig.from_scalars(kappa=10 ** (kdb / 10))
        mean, _ = _mean_true_rate(cfg, trend_channels)
        kappa_rates.append(mean)
    if not (kappa_rates[0] > kappa_rates[1] > kappa_rates[2]):
        problems.append(f"(a) rates {kappa_rates}")
    # (b) sum rate rises with power and falls with noise
    power_rates = []
    for p in (0.1, 1.0, 10.0):
        cfg = SystemConfig.from_scalars(p_max=p)
        mean, _ = _mean_true_rate(cfg, trend_channels)
        power_rates.append(mean)
    if not (power_rates[0] < power_rates[1] < power_rates[2]):
        problems.append(f"(b) power rates {power_rates}")
    noise_rates = []
    for sdb in (-40.0, -30.0, -20.0):
        cfg = SystemConfig.from_scalars(noise_var=10 ** (sdb / 10))
        mean, _ = _mean_true_rate(cfg, trend_channels)
        noise_rates.append(mean)
    if not (noise_rates[0] > noise_rates[1] > noise_rates[2]):
        problems.append(f"(b) noise rates {noise_rates}")
    # (c) the duplex advantage: clear win at low distortion, shrinking margin
    margins = {}
    for kdb in (-50.0, -10.0):
        cfg = SystemConfig.from_scalars(kappa=10 ** (kdb / 10))
        wins = 0
        fd_mean, hd_mean = 0.0, 0.0
        runs = _evaluated(cfg, trend_channels, ["wmmse", "hd"], designer="wmmse")
        for (_, fd_rep), (_, hd_rep) in zip(runs["wmmse"], runs["hd"]):
            fd = fd_rep.weighted_sum_rate()
            hd = hd_rep.weighted_sum_rate()
            wins += fd > hd
            fd_mean += fd
            hd_mean += hd
        margins[kdb] = (fd_mean - hd_mean) / len(trend_channels)
        if kdb == -50.0 and wins < 0.9 * len(trend_channels):
            problems.append(f"(c) duplex wins only {wins}")
    if not margins[-50.0] > margins[-10.0]:
        problems.append(f"(c) margins {margins}")
    # (d) blind designs blow up with distortion; the aware worst case
    # stays under the total stream count
    cap = sum(default_cfg.subcarriers * default_cfg.streams[i]
              for i in DIRECTIONS)
    blind_means = []
    for kdb in (-20.0, 0.0):
        cfg = SystemConfig.from_scalars(kappa=10 ** (kdb / 10))
        blind_vals = []
        runs = _evaluated(cfg, trend_channels, ["kappa0", "altqcp"])
        for channels, (_, blind_rep), (design, _) in zip(trend_channels, runs["kappa0"],
                                                          runs["altqcp"]):
            blind_vals.append(blind_rep.sum_mse())
            wc = worst_case_mse(design, channels, cfg)
            if wc > cap + 1e-9:
                problems.append(f"(d) worst case {wc:.3f} above {cap}")
        blind_means.append(float(np.mean(blind_vals)))
    if not blind_means[1] > 2.0 * blind_means[0]:
        problems.append(f"(d) blind means {blind_means}")
    _verdict(capsys, 9, not problems,
             f"rates(a) {np.round(kappa_rates, 2).tolist()}, margins(c) "
             f"{{-50: {margins[-50.0]:.2f}, -10: {margins[-10.0]:.2f}}}, "
             f"blind(d) {np.round(blind_means, 1).tolist()}"
             if not problems else "; ".join(problems[:3]))


def test_criterion_10_robust_benefit(default_cfg, fleet, capsys):
    held = 0
    trials = 50
    for t in range(trials):
        channels, nominal_design, _ = fleet[t]
        robust_design, _ = run_cutting_set(channels, default_cfg)
        wc_nominal = worst_case_mse(nominal_design, channels, default_cfg)
        wc_robust = worst_case_mse(robust_design, channels, default_cfg)
        if wc_robust <= wc_nominal + 1e-12:
            held += 1
    _verdict(capsys, 10, held >= 0.8 * trials,
             f"robust no worse on {held}/{trials} trials")


def test_criterion_11_byte_determinism(capsys):
    spec = ExperimentSpec.from_json({
        "config": {"subcarriers": 2, "antennas": 2, "streams": 1,
                   "max_iters": 15},
        "sweep": {"param": "kappa_db", "values": [-40.0, -20.0]},
        "algorithms": ["altqcp", "wmmse", "kappa0"],
        "n_trials": 2,
        "seed": 11,
    })
    rows1, _ = run_experiment(spec)
    rows2, _ = run_experiment(spec)
    text1 = results_to_csv_text(rows1, spec)
    text2 = results_to_csv_text(rows2, spec)
    ok = text1.encode() == text2.encode()
    _verdict(capsys, 11, ok,
             f"{len(text1.encode())} bytes identical across runs" if ok
             else "outputs differ")
