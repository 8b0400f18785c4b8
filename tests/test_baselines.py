"""Reference schemes: equivalences in their degenerate corners, the
half-duplex rate split, and the self-interference power cap."""

import dataclasses

import numpy as np
import pytest

from fdlink import (ConfigError, SystemConfig, evaluate_design, run_altqcp,
                    run_baseline)
from fdlink.altqcp import SolverOptions, run_altqcp_scenarios
from fdlink.baselines import BASELINE_MODES, DESIGNERS, half_duplex_world
from fdlink.channels import ChannelStats, draw_channels, perturb_csi
from fdlink.model import DIRECTIONS, PAIRS


@pytest.fixture(scope="module")
def ideal_setup():
    # no hardware impairments and perfect CSI: several baselines collapse
    # onto the plain solver
    config = SystemConfig.from_scalars(kappa=0.0, beta=0.0)
    channels = draw_channels(config, ChannelStats(csi_radius=0.0), [501])
    return config, channels


def test_blind_design_matches_plain_when_hardware_is_ideal(ideal_setup):
    config, channels = ideal_setup
    design, _ = run_altqcp(channels, config)
    blind_design, report = run_baseline("kappa0", channels, config)
    for i in DIRECTIONS:
        assert np.max(np.abs(design.precoders[i]
                             - blind_design.precoders[i])) < 1e-8
    assert report.extras["mode"] == "kappa0"


def test_single_carrier_identical_when_already_flat(ideal_setup):
    # K = 1 leaves nothing to average: the flat design is the plain design
    config, _ = ideal_setup
    flat_cfg = SystemConfig.from_scalars(subcarriers=1, kappa=0.0, beta=0.0)
    channels = draw_channels(flat_cfg, ChannelStats(csi_radius=0.0), [502])
    design, _ = run_altqcp(channels, flat_cfg)
    sc_design, _ = run_baseline("sc", channels, flat_cfg)
    for i in DIRECTIONS:
        assert np.max(np.abs(design.precoders[i]
                             - sc_design.precoders[i])) < 1e-10


def test_single_carrier_replicates_and_respects_power(default_config,
                                                      default_channels):
    from fdlink.model import power_usage
    design, report = run_baseline("sc", default_channels, default_config)
    for i in DIRECTIONS:
        v = design.precoders[i]
        for k in range(1, default_config.subcarriers):
            assert np.array_equal(v[k], v[0])
        used = power_usage(v, default_config.tx_distortion[i])
        assert abs(used - default_config.p_max[i]) < 1e-9
    assert report.extras["mode"] == "sc"


def test_half_duplex_halves_rate_and_silences_cross(default_config,
                                                    default_channels):
    design, report = run_baseline("hd", default_channels, default_config)
    world = report.extras["eval_channels"]
    for i in DIRECTIONS:
        for j in DIRECTIONS:
            if i != j:
                assert np.all(world.h[(i, j)] == 0)
                assert np.all(world.h_est[(i, j)] == 0)
                assert np.all(world.csi_radius[(i, j)] == 0)
    unhalved = evaluate_design(design, world, default_config)
    assert np.max(np.abs(report.rate_bits - 0.5 * unhalved.rate_bits)) < 1e-12
    # time sharing does not reduce the per-slot power budget
    from fdlink.model import power_usage
    for i in DIRECTIONS:
        used = power_usage(design.precoders[i],
                           default_config.tx_distortion[i])
        assert used <= default_config.p_max[i] + 1e-9


def test_half_duplex_world_keeps_direct_links(default_channels):
    world = half_duplex_world(default_channels)
    for i in DIRECTIONS:
        assert np.array_equal(world.h[(i, i)], default_channels.h[(i, i)])
        assert np.array_equal(world.h_est[(i, i)],
                              default_channels.h_est[(i, i)])


def test_threshold_cap_binds_when_low(default_config, default_channels):
    design, report = run_baseline("pth_low", default_channels, default_config)
    h_est = default_channels.h_est
    for i in DIRECTIONS:
        other = 1 - i
        cross = h_est[(other, i)]
        fv = cross @ design.precoders[i]
        si = float(np.einsum("kmd,kmd->", fv, fv.conj()).real)
        cap = default_config.p_max[i] / 10.0
        mu = report.extras["si_duals"][i]
        assert mu >= 0.0
        assert si <= cap + 1e-6
        if mu > 1e-9:
            assert abs(si - cap) < 1e-6 * max(cap, 1.0)


def test_threshold_modes_ordered_by_cap(default_config, default_channels):
    # a tighter self-interference cap cannot raise the achieved leakage;
    # the distortion-blind design is the uncapped end
    results = {}
    for mode in ("pth_low", "pth_high", "kappa0"):
        design, _ = run_baseline(mode, default_channels, default_config)
        total = 0.0
        for i in DIRECTIONS:
            cross = default_channels.h_est[(1 - i, i)]
            fv = cross @ design.precoders[i]
            total += float(np.einsum("kmd,kmd->", fv, fv.conj()).real)
        results[mode] = total
    assert results["pth_low"] <= results["pth_high"] + 1e-9
    assert results["pth_high"] <= results["kappa0"] + 1e-9


def test_rate_designed_threshold_modes_iterate(default_config,
                                               default_channels):
    # with refit MSE weights the thresholded design maximizes the rate
    # surrogate: it runs until the surrogate settles, and the surrogate never
    # drops after the first step (the full-power start breaks the cap, so
    # that first step may go either way)
    for mode in ("pth_high", "pth_low"):
        _, report = run_baseline(mode, default_channels, default_config,
                                 designer="wmmse")
        assert report.iterations > 1
        trace = np.asarray(report.objective_trace[1:])
        assert np.all(np.diff(trace) >= -1e-9 * np.maximum(np.abs(trace[:-1]), 1.0))


def test_blind_design_power_uses_ideal_model(default_config,
                                             default_channels):
    # the blind scheme budgets power as if kappa were zero: its design-model
    # power tr(V V^H) sits exactly at the budget
    design, _ = run_baseline("kappa0", default_channels, default_config)
    for i in DIRECTIONS:
        v = design.precoders[i]
        raw = float(np.einsum("knd,knd->", v, v.conj()).real)
        assert abs(raw - default_config.p_max[i]) < 1e-9


def test_all_modes_run_with_rate_designer(default_config, default_channels):
    # also with a silent direction 1: its pth_* cap is 0, so its precoder is
    # exactly zero, returned without a solve, and its cap multiplier is 0
    silent = SystemConfig.from_scalars(p_max=(1.0, 0.0))
    for config in (default_config, silent):
        for mode in BASELINE_MODES:
            design, report = run_baseline(mode, default_channels, config,
                                          designer="wmmse")
            assert report.extras["mode"] == mode
            assert np.isfinite(report.sum_mse())
            assert np.isfinite(report.weighted_sum_rate())
            assert np.all(np.isfinite(report.power))
            for i in DIRECTIONS:
                assert np.all(np.isfinite(design.precoders[i]))
            assert np.all(np.isfinite(report.extras.get("si_duals", ())))
            if config is silent:
                assert np.all(design.precoders[1] == 0)


def test_unknown_mode_and_designer_raise(default_config, default_channels):
    with pytest.raises(ConfigError):
        run_baseline("tdma", default_channels, default_config)
    with pytest.raises(ConfigError):
        run_baseline("hd", default_channels, default_config,
                     designer="genie")


def _driver_inputs(mode, channels, config):
    """(estimated channels, design config, self-interference caps) each mode
    designs on, restated from the mode descriptions."""
    if mode == "hd":
        return half_duplex_world(channels).h_est, config, None
    if mode == "sc":
        k = config.subcarriers
        flat = dataclasses.replace(
            config, subcarriers=1, noise_var=config.noise_var.mean(axis=1, keepdims=True),
            tx_distortion=tuple(k * d for d in config.tx_distortion),
            rx_distortion=tuple(k * d for d in config.rx_distortion),
            p_max=tuple(p / k for p in config.p_max))
        return {pair: channels.h_est[pair].mean(axis=0, keepdims=True)
                for pair in PAIRS}, flat, None
    blind = dataclasses.replace(
        config, tx_distortion=tuple(0.0 * d for d in config.tx_distortion),
        rx_distortion=tuple(0.0 * d for d in config.rx_distortion))
    caps = {"kappa0": None, "pth_high": config.p_max,
            "pth_low": tuple(p / 10.0 for p in config.p_max)}[mode]
    return channels.h_est, blind, caps


@pytest.mark.parametrize("designer", DESIGNERS)
@pytest.mark.parametrize("mode", BASELINE_MODES)
def test_baseline_is_one_driver_call(mode, designer, default_config,
                                     default_channels):
    # every mode is the driver run once on its own inputs, the weight block
    # on for the rate designer; sc then repeats its flat design over K
    options = SolverOptions(max_iters=20)
    design, _ = run_baseline(mode, default_channels, default_config, options,
                             designer=designer)
    h_est, config, caps = _driver_inputs(mode, default_channels, default_config)
    direct, _ = run_altqcp_scenarios([(1.0, h_est)], config, options,
                                     weight_block=designer == "wmmse", si_caps=caps)
    repeats = default_config.subcarriers if mode == "sc" else 1
    for name in ("precoders", "decoders", "mse_weights"):
        for got, want in zip(getattr(design, name), getattr(direct, name)):
            assert np.array_equal(got, np.repeat(want, repeats, axis=0))
