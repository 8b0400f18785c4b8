import numpy as np
import pytest

from fdlink import (ChannelStats, SystemConfig, draw_channels, mse_matrix,
                    perturb_csi, power_usage)
from fdlink.model import DIRECTIONS
from fdlink.util import crandn, stabilized


@pytest.fixture(scope="session")
def default_config():
    """Desk-scale defaults: K=4, 2x2 antennas, single stream per direction."""
    return SystemConfig.from_scalars()


@pytest.fixture(scope="session")
def perfect_csi_config():
    return SystemConfig.from_scalars()


@pytest.fixture(scope="session")
def default_channels(default_config):
    """One seeded realization with estimation error inside the default ball."""
    true = draw_channels(default_config, ChannelStats(), 1234)
    _, channels = perturb_csi(true, default_config, 4321, mode="interior")
    return channels


@pytest.fixture(scope="session")
def perfect_channels(perfect_csi_config):
    return draw_channels(perfect_csi_config, ChannelStats(csi_radius=0.0), 1234)


def random_psd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (a @ a.conj().T) + 1e-6 * np.eye(n)


def crandn_t(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def mmse_error(v, sigma, h):
    """E from mse_matrix at the MMSE receiver (Sigma + H V V^H H^H)^{-1} H V,
    with Sigma the stabilized covariance that rate() inverts, so that
    rate = -log2 det E holds to rounding."""
    sigma = stabilized(sigma)
    hv = h @ v
    return mse_matrix(np.linalg.solve(sigma + hv @ hv.conj().T, hv), v, sigma, h)


def random_precoders(config, seed):
    """Complex Gaussian precoders from a fresh default_rng(seed) per
    direction, scaled so the distortion-aware power equals the budget."""
    out = []
    for i in DIRECTIONS:
        v = crandn(np.random.default_rng(seed),
                   (config.subcarriers, config.tx_antennas[i], config.streams[i]))
        out.append(v * np.sqrt(config.p_max[i] / power_usage(v, config.tx_distortion[i])))
    return out

