"""Channel generator: seeding, fading statistics and error-ball sampling."""

import dataclasses

import numpy as np
import pytest

from fdlink import (ChannelStats, ConfigError, SystemConfig, draw_channels,
                    perturb_csi)
from fdlink.model import PAIRS


def _inside_balls(delta, channels):
    """Every error draw within its ball, ||Delta^k||_F <= radius (1 + 1e-12)."""
    return all(np.all(np.linalg.norm(delta[pair], axis=(1, 2))
                      <= channels.csi_radius[pair] * (1 + 1e-12)) for pair in PAIRS)


def test_same_seed_is_bit_identical(default_config):
    a = draw_channels(default_config, ChannelStats(), 99)
    b = draw_channels(default_config, ChannelStats(), 99)
    for pair in PAIRS:
        assert np.array_equal(a.h[pair], b.h[pair])
        assert np.array_equal(a.h_est[pair], b.h_est[pair])


def test_different_seeds_differ(default_config):
    a = draw_channels(default_config, ChannelStats(), 1)
    b = draw_channels(default_config, ChannelStats(), 2)
    assert not np.allclose(a.h[(0, 0)], b.h[(0, 0)])


def test_draw_leaves_estimate_equal_to_truth(default_config):
    ch = draw_channels(default_config, ChannelStats(), 5)
    for pair in PAIRS:
        assert np.array_equal(ch.h[pair], ch.h_est[pair])


def test_fading_moments():
    # 10^4 draws: direct-link variance within 5% of rho, mean within 3 sigma;
    # self-interference mean equals the Rician line-of-sight level
    config = SystemConfig.from_scalars(subcarriers=2)
    stats = ChannelStats(csi_radius=0.0)  # rho=0.01, rho_si=1, K_R=10
    n = 10_000
    direct = np.empty((n, 2, 2, 2), dtype=complex)
    cross = np.empty_like(direct)
    for t in range(n):
        ch = draw_channels(config, stats, [77, t])
        direct[t] = ch.h[(0, 0)]
        cross[t] = ch.h[(0, 1)]
    var = np.mean(np.abs(direct) ** 2)
    assert abs(var - stats.rho) / stats.rho < 0.05
    mean_err = np.abs(direct.mean())
    assert mean_err < 3 * np.sqrt(stats.rho / (n * 8))
    los = np.sqrt(stats.rho_si * stats.k_rician / (1 + stats.k_rician))
    cross_mean = cross.mean()
    assert abs(cross_mean - los) < 3 * np.sqrt(stats.si_scatter_var() / (n * 8))
    scatter = np.mean(np.abs(cross - los) ** 2)
    assert abs(scatter - stats.si_scatter_var()) / stats.si_scatter_var() < 0.05


def test_perturb_zero_radius_is_identity(perfect_csi_config):
    ch = draw_channels(perfect_csi_config, ChannelStats(csi_radius=0.0), 11)
    err, out = perturb_csi(ch, perfect_csi_config, 12, mode="interior")
    for pair in PAIRS:
        assert np.array_equal(out.h_est[pair], ch.h[pair])
        assert np.all(err[pair] == 0)


def test_perturb_boundary_hits_radius_exactly(default_config):
    ch = draw_channels(default_config, ChannelStats(), 13)
    err, out = perturb_csi(ch, default_config, 14, mode="boundary")
    zeta = 10 ** -1.5
    for pair in PAIRS:
        for k in range(default_config.subcarriers):
            delta = out.h[pair][k] - out.h_est[pair][k]
            assert abs(np.linalg.norm(delta) - zeta) < 1e-12
    assert _inside_balls(err, out)


def test_perturb_interior_feasible_and_radius_law(default_config):
    # the documented rule: ||Delta||/zeta pushed through r^(2*m*n) is uniform
    ch = draw_channels(default_config, ChannelStats(), 15)
    zeta = 10 ** -1.5
    mn2 = 2 * 2 * 2  # 2 * M * N
    u_samples = []
    for t in range(1000):
        err, out = perturb_csi(ch, default_config, [16, t], mode="interior")
        assert _inside_balls(err, out)
        delta = out.h[(0, 1)][0] - out.h_est[(0, 1)][0]
        u_samples.append((np.linalg.norm(delta) / zeta) ** mn2)
    u = np.sort(u_samples)
    grid = (np.arange(1000) + 0.5) / 1000
    assert np.max(np.abs(u - grid)) < 0.06  # KS-style band for n=1000


def test_perturb_unknown_mode_raises(default_config):
    ch = draw_channels(default_config, ChannelStats(), 17)
    with pytest.raises(ConfigError):
        perturb_csi(ch, default_config, 18, mode="edge")


def test_draw_carries_the_stats_radius(default_config):
    # every pair and subcarrier gets the one radius of the statistics
    ch = draw_channels(default_config, ChannelStats(csi_radius=0.25), 23)
    for pair in PAIRS:
        assert np.array_equal(ch.csi_radius[pair],
                              np.full(default_config.subcarriers, 0.25))
    with pytest.raises(ConfigError):
        ChannelStats(csi_radius=-1)


BAD_RADII = {     # K = 4
    "negative_radius": np.full(4, -0.1),
    "short_radius": np.full(2, 0.1),
    "misshaped_radius": np.full((4, 1), 0.1),
    "nan_radius": np.full(4, np.nan),
}


@pytest.mark.parametrize("case", BAD_RADII)
def test_bad_error_sets_rejected_where_built(default_config, case):
    # a bad radius raises when the realization is built, instead of being
    # certified as radius 0
    ch = draw_channels(default_config, ChannelStats(), 19)
    with pytest.raises(ConfigError):
        dataclasses.replace(ch, csi_radius={**ch.csi_radius, (0, 1): BAD_RADII[case]})
