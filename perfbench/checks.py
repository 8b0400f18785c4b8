"""Output checks. Each returns a list of violations; an empty list means the
operation's output is correct.

numpy is imported inside the functions that need it, so that importing this
module does not load BLAS before run.py pins its thread count."""

from __future__ import annotations

import math

# traces the algorithm guarantees to be monotone, by direction
NON_INCREASING = ("altqcp", "cutting_set", "hd", "kappa0", "sc")
NON_DECREASING = ("wmmse",)
# distortion-blind baselines overshoot the budget by the distortion overhead
# by design, and sc by its per-subcarrier dual tolerance
POWER_CHECKED = ("altqcp", "wmmse", "cutting_set", "hd")
SCALARS = ("sum_mse", "wc_mse", "sum_rate", "power_1", "power_2")
REL_TOL = 1e-9


def sweep_violations(rows, algorithms, p_max):
    """Rows of one harness.run_trial cell against the solvers' guarantees."""
    out = []
    scalars = {alg: {} for alg in algorithms}
    traces = {alg: [] for alg in algorithms}
    for row in rows:
        alg, metric, value = row["algorithm"], row["metric"], row["value"]
        if not math.isfinite(value):
            out.append(f"{alg} {metric}[{row['iteration']}] = {value}")
        if alg not in scalars:
            out.append(f"unexpected algorithm {alg!r}")
        elif metric == "objective":
            traces[alg].append((row["iteration"], value))
        else:
            scalars[alg][metric] = value
    for alg in algorithms:
        got = scalars[alg]
        missing = [m for m in SCALARS if m not in got]
        if missing:
            out.append(f"{alg} is missing {missing}")
            continue
        if got["wc_mse"] < got["sum_mse"] * (1.0 - REL_TOL):
            out.append(f"{alg} wc_mse {got['wc_mse']} < sum_mse {got['sum_mse']}")
        if alg in POWER_CHECKED:
            for i, key in enumerate(("power_1", "power_2")):
                if got[key] > p_max[i] * (1.0 + REL_TOL):
                    out.append(f"{alg} {key} {got[key]} over budget {p_max[i]}")
        trace = [v for _, v in sorted(traces[alg])]
        if not trace:
            out.append(f"{alg} has no objective trace")
        if alg in NON_INCREASING or alg in NON_DECREASING:
            sign = 1.0 if alg in NON_INCREASING else -1.0
            for t in range(1, len(trace)):
                prev, cur = trace[t - 1], trace[t]
                if sign * (cur - prev) > REL_TOL * max(abs(prev), 1.0):
                    out.append(f"{alg} objective not monotone at iteration "
                               f"{t}: {prev} -> {cur}")
                    break
    return out


def covariance_gap_bound(predicted, n_blocks):
    """Monte Carlo floor of the relative Frobenius gap between a sample
    covariance of n complex Gaussian vectors and its mean Sigma:
    E||S - Sigma||_F^2 = tr(Sigma)^2 / n. The bound allows three times that
    root-mean-square floor plus 1% for the first-order covariance model."""
    import numpy as np
    trace = np.trace(predicted).real
    floor = trace / (np.linalg.norm(predicted) * math.sqrt(n_blocks))
    return 3.0 * floor + 0.01


def simulation_violations(stats, predicted, bounds, n_blocks):
    """simulate_blocks statistics against the analytic covariances."""
    out = []
    if getattr(stats, "n_blocks", None) != n_blocks:
        out.append(f"simulated {getattr(stats, 'n_blocks', None)} blocks, "
                   f"asked for {n_blocks}")
    gaps, worst = covariance_violations(stats.nu_cov, predicted, bounds)
    return out + gaps, worst


def covariance_violations(nu_cov, predicted, bounds):
    """Relative Frobenius gap of each direction's and subcarrier's simulated
    covariance to the analytic one. Returns (violations, worst gap)."""
    import numpy as np
    out = []
    worst = 0.0
    for i, per_k in enumerate(predicted):
        seen = nu_cov[i]
        for k, cov in enumerate(per_k):
            if not np.all(np.isfinite(seen[k])):
                out.append(f"direction {i} subcarrier {k}: non-finite covariance")
                continue
            gap = float(np.linalg.norm(seen[k] - cov) / np.linalg.norm(cov))
            worst = max(worst, gap)
            if gap > bounds[i][k]:
                out.append(f"direction {i} subcarrier {k}: covariance gap "
                           f"{gap:.4f} > {bounds[i][k]:.4f}")
    return out, worst
