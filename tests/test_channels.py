"""Channel generator: seeding, fading statistics, error-ball sampling, and the
JSON round trip."""

import dataclasses
import json

import numpy as np
import pytest

from conftest import with_shaping
from fdlink import (ChannelStats, ConfigError, SystemConfig,
                    channels_from_json, channels_to_json, draw_channels,
                    perturb_csi)
from fdlink.model import PAIRS


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
        assert np.all(err.delta[pair] == 0)


def test_perturb_boundary_hits_radius_exactly(default_config):
    ch = draw_channels(default_config, ChannelStats(), 13)
    err, out = perturb_csi(ch, default_config, 14, mode="boundary")
    zeta = 10 ** -1.5
    for pair in PAIRS:
        for k in range(default_config.subcarriers):
            delta = out.h[pair][k] - out.h_est[pair][k]
            assert abs(np.linalg.norm(delta) - zeta) < 1e-12
    assert err.max_violation() < 1e-12


def test_perturb_interior_feasible_and_radius_law(default_config):
    # the documented rule: ||Delta||/zeta pushed through r^(2*m*n) is uniform
    ch = draw_channels(default_config, ChannelStats(), 15)
    zeta = 10 ** -1.5
    mn2 = 2 * 2 * 2  # 2 * M * N
    u_samples = []
    for t in range(1000):
        err, out = perturb_csi(ch, default_config, [16, t], mode="interior")
        assert err.max_violation() <= 1e-12
        delta = out.h[(0, 1)][0] - out.h_est[(0, 1)][0]
        u_samples.append((np.linalg.norm(delta) / zeta) ** mn2)
    u = np.sort(u_samples)
    grid = (np.arange(1000) + 0.5) / 1000
    assert np.max(np.abs(u - grid)) < 0.06  # KS-style band for n=1000


def test_perturb_unknown_mode_raises(default_config):
    ch = draw_channels(default_config, ChannelStats(), 17)
    with pytest.raises(ConfigError):
        perturb_csi(ch, default_config, 18, mode="edge")


def test_json_round_trip(default_config):
    ch = draw_channels(default_config, ChannelStats(), 19)
    _, ch = perturb_csi(ch, default_config, 20, mode="interior")
    text = channels_to_json(ch)
    back = channels_from_json(text)
    for pair in PAIRS:
        assert np.array_equal(back.h[pair], ch.h[pair])
        assert np.array_equal(back.h_est[pair], ch.h_est[pair])
        assert np.array_equal(back.csi_radius[pair], ch.csi_radius[pair])


def test_shaped_sets_boundary_and_json_round_trip(default_config):
    # ellipsoidal sets {Delta : ||D^k Delta||_F <= radius}: boundary draws sit
    # on the shaped sphere, and the JSON round trip keeps D bit for bit
    ch = with_shaping(draw_channels(default_config, ChannelStats(), 21), 22)
    err, ch = perturb_csi(ch, default_config, 23, mode="boundary")
    assert err.max_violation() <= 1e-12
    for pair in PAIRS:
        shaped = ch.shaping[pair] @ err.delta[pair]
        norms = np.linalg.norm(shaped, axis=(1, 2))
        assert np.allclose(norms, ch.csi_radius[pair], rtol=1e-12)
    back = channels_from_json(channels_to_json(ch))
    for pair in PAIRS:
        assert np.array_equal(back.shaping[pair], ch.shaping[pair])
        assert np.array_equal(back.h_est[pair], ch.h_est[pair])


def test_json_malformed_raises():
    with pytest.raises(ConfigError):
        channels_from_json("{not json")
    with pytest.raises(ConfigError):
        channels_from_json(json.dumps({"subcarriers": 2}))


def test_draw_carries_the_stats_radius(default_config):
    # every pair and subcarrier gets the one radius of the statistics
    ch = draw_channels(default_config, ChannelStats(csi_radius=0.25), 23)
    for pair in PAIRS:
        assert np.array_equal(ch.csi_radius[pair],
                              np.full(default_config.subcarriers, 0.25))
    with pytest.raises(ConfigError):
        ChannelStats(csi_radius=-1)


BAD_ERROR_SETS = {     # K = 4, pair (0, 1) has M = 2 receive antennas
    "negative_radius": ("radius", np.full(4, -0.1)),
    "short_radius": ("radius", np.full(2, 0.1)),
    "misshaped_radius": ("radius", np.full((4, 1), 0.1)),
    "nan_radius": ("radius", np.full(4, np.nan)),
    "shaping_antennas": ("shaping", np.ones((4, 3, 3))),
    "shaping_subcarriers": ("shaping", np.ones((2, 2, 2))),
}


@pytest.mark.parametrize("case", BAD_ERROR_SETS)
def test_bad_error_sets_rejected_where_built(default_config, case):
    # a bad radius or shaping raises when the realization is built, and so
    # when it is read from JSON, instead of being certified as radius 0
    field, bad = BAD_ERROR_SETS[case]
    ch = draw_channels(default_config, ChannelStats(), 19)
    key = "csi_radius" if field == "radius" else "shaping"
    with pytest.raises(ConfigError):
        dataclasses.replace(ch, **{key: {**getattr(ch, key), (0, 1): bad}})
    payload = json.loads(channels_to_json(ch))
    payload["pairs"]["12"][field] = (np.stack([bad, 0 * bad], axis=-1).tolist()
                                     if field == "shaping" else bad.tolist())
    with pytest.raises(ConfigError):
        channels_from_json(json.dumps(payload))
