"""Worst-case CSI error oracle and the cutting-set loop: quadratic-form
fidelity, closed forms, an engineered degenerate instance, brute-force
dominance, KKT/duality certificates, and worst-case design behavior."""

import dataclasses

import numpy as np
import pytest

import fdlink.robust as robust
from conftest import crandn_t, random_psd
from fdlink import (ConfigError, SystemConfig, evaluate_design, run_altqcp,
                    run_cutting_set)
from fdlink.altqcp import _solve_power_dual, identity_weights
from fdlink.channels import ChannelStats, draw_channels, perturb_csi
from fdlink.model import DIRECTIONS, PAIRS
from fdlink.robust import (_worst_case, build_quadratic_form,
                           weighted_mse_with_errors, worst_case_error,
                           worst_case_mse)
from fdlink.util import _rational_root


def _make_form(rng, out_dim, n, scale=1.0):
    # (map, offset): map sends an n-vector error (an n x 1 matrix,
    # vectorized) to an out_dim-vector
    mapping = scale * crandn_t(rng, (out_dim, n))
    offset = scale * crandn_t(rng, (out_dim,))
    return mapping, offset


def _solve_one(mapping, offset, radius):
    """worst_case_error on a stack of one form: (b, rho, value, hard)."""
    return tuple(x[0] for x in worst_case_error(mapping[None], offset[None],
                                                np.array([radius])))


def _zero_deltas(channels):
    return {pair: np.zeros_like(channels.h[pair]) for pair in PAIRS}


@pytest.fixture(scope="module")
def designed(default_config, default_channels):
    design, _ = run_altqcp(default_channels, default_config)
    return design


@pytest.fixture(scope="module")
def two_stream_case():
    """(config, channels, design) with two streams per direction."""
    config = SystemConfig.from_scalars(antennas=3, streams=2)
    channels = draw_channels(config, ChannelStats(), 51)
    _, channels = perturb_csi(channels, config, 52, "interior")
    design, _ = run_altqcp(channels, config)
    return config, channels, design


# ---------------------------------------------------------------------------
# quadratic-form fidelity: the lifted forms must reproduce the true objective
# ---------------------------------------------------------------------------

def test_forms_reproduce_objective_shift(default_config, default_channels,
                                         designed):
    """For >= 100 random single-pair perturbations, the lifted quadratic
    must equal the directly-evaluated objective to 1e-9 relative."""
    config, channels = default_config, default_channels
    rng = np.random.default_rng(21)
    weights = identity_weights(config)
    base = weighted_mse_with_errors(designed, channels, config,
                                    deltas=_zero_deltas(channels),
                                    mse_weights=weights)
    checked = 0
    for i in DIRECTIONS:
        for j in DIRECTIONS:
            maps, offsets = build_quadratic_form(designed, channels, config,
                                                 i, j, mse_weights=weights)
            for k in range(config.subcarriers):
                for _ in range(7):
                    delta = 0.1 * crandn_t(rng, channels.h[(i, j)][k].shape)
                    deltas = _zero_deltas(channels)
                    deltas[(i, j)] = deltas[(i, j)].copy()
                    deltas[(i, j)][k] = delta
                    direct = weighted_mse_with_errors(
                        designed, channels, config, deltas=deltas,
                        mse_weights=weights)
                    b = delta.reshape(-1, order="F")
                    lifted = float(np.linalg.norm(maps[k] @ b
                                                  + offsets[k]) ** 2)
                    offset_sq = float(np.linalg.norm(offsets[k]) ** 2)
                    predicted = base - offset_sq + lifted
                    assert abs(direct - predicted) \
                        < 1e-9 * max(abs(direct), 1.0)
                    checked += 1
    assert checked >= 100


def test_weights_indefinite_on_one_subcarrier_raise(two_stream_case):
    config, channels, design = two_stream_case
    weights = identity_weights(config)
    weights[0][2] = np.diag([1.0, 0.0]).astype(complex)      # PSD, singular
    build_quadratic_form(design, channels, config, 0, 0, mse_weights=weights)
    weights[0][2] = np.diag([1.0, -1.0]).astype(complex)     # indefinite
    with pytest.raises(ConfigError):
        build_quadratic_form(design, channels, config, 0, 0,
                             mse_weights=weights)


def test_form_index_validation(default_config, default_channels, designed):
    with pytest.raises(ConfigError):
        build_quadratic_form(designed, default_channels, default_config, 2, 0)
    with pytest.raises(ConfigError):
        build_quadratic_form(designed, default_channels, default_config, 0, -1)


@pytest.mark.parametrize("radius", [-0.7, np.nan, np.inf])
def test_radius_validation(radius):
    # a negative radius would solve the ball of its magnitude, then flip the
    # maximizer to the far side of the sphere
    mapping, offset = _make_form(np.random.default_rng(22), 4, 3)
    with pytest.raises(ConfigError):
        _solve_one(mapping, offset, radius)


# ---------------------------------------------------------------------------
# worst_case_error closed forms and invariants
# ---------------------------------------------------------------------------

def test_zero_radius_returns_center_value():
    rng = np.random.default_rng(22)
    mapping, offset = _make_form(rng, 4, 3)
    b, _, value, _ = _solve_one(mapping, offset, 0.0)
    assert value == pytest.approx(float(np.linalg.norm(offset) ** 2))
    assert np.all(b == 0)


def test_scalar_closed_form_and_alignment():
    # |a b + c|^2 over |b| <= zeta peaks at (|a| zeta + |c|)^2 with b aligned
    b, _, value, _ = _solve_one(np.array([[1.0 + 0j]]), np.array([1.0 + 0j]), 0.5)
    assert abs(value - 2.25) < 1e-12
    assert abs(b[0] - 0.5) < 1e-10
    rng = np.random.default_rng(23)
    for _ in range(50):
        a = crandn_t(rng, (1,))[0]
        c = crandn_t(rng, (1,))[0]
        zeta = float(rng.uniform(0.05, 2.0))
        _, _, value, _ = _solve_one(np.array([[a]]), np.array([c]), zeta)
        expected = (abs(a) * zeta + abs(c)) ** 2
        assert abs(value - expected) < 1e-12 * max(expected, 1.0)


def test_gradient_vanishes_only_at_stationary_center():
    # at b = 0 the ascent direction is 2 M b + 2 m = 2 m: finite differences
    # of the quadratic must match it to 1e-6
    rng = np.random.default_rng(24)
    mapping, offset = _make_form(rng, 5, 4)
    m_mat = mapping.conj().T @ mapping
    m_vec = mapping.conj().T @ offset

    def value(b):
        return float(np.linalg.norm(mapping @ b + offset) ** 2)

    h = 1e-5
    for a in range(4):
        e = np.zeros(4, dtype=complex)
        e[a] = h
        fd_re = (value(e) - value(-e)) / (2 * h)
        e[a] = 1j * h
        fd_im = (value(e) - value(-e)) / (2 * h)
        grad = 2 * m_vec[a]
        assert abs(fd_re - grad.real) < 1e-6
        assert abs(fd_im - grad.imag) < 1e-6
    del m_mat


def test_engineered_degenerate_instance():
    # top eigenspace orthogonal to the linear term: the maximizer needs a
    # manual top-space component.  G = diag(2, 1), c aligned with the second
    # column: M = diag(4, 1), m = (0, 1).  Interior solve reaches
    # ||b_perp|| = 1/3 < zeta = 1, so the top direction is padded to the
    # boundary: value = 4 * 8/9 + (1/3 + 1)^2 = 16/3.
    b, rho, value, hard = _solve_one(np.diag([2.0 + 0j, 1.0]),
                                     np.array([0.0j, 1.0]), 1.0)
    assert hard
    assert abs(value - 16.0 / 3.0) < 1e-10
    assert abs(np.linalg.norm(b) - 1.0) < 1e-10
    assert abs(abs(b[1]) - 1.0 / 3.0) < 1e-10
    assert abs(rho - 4.0) < 1e-10


def test_degenerate_instance_reaching_the_ball_uses_secular_root():
    # top eigenspace orthogonal to the linear term again, but the interior
    # solve alone leaves the ball: G = diag(2, 1), c = (0, 3), M = diag(4, 1),
    # m = (0, 3), ||b_perp|| = 3 / (4 - 1) = 1 >= zeta = 0.5.  The top terms
    # drop out and 9 / (rho - 1)^2 = 1/4 gives rho = 7, b = (0, 0.5).
    b, rho, value, hard = _solve_one(np.diag([2.0 + 0j, 1.0]),
                                     np.array([0.0j, 3.0]), 0.5)
    assert not hard
    assert abs(value - 12.25) < 1e-12
    assert np.max(np.abs(b - np.array([0.0, 0.5]))) < 1e-12
    assert abs(rho - 7.0) < 1e-10


def test_brute_force_never_beats_oracle():
    """Random instances: dense boundary sampling plus conditional-gradient
    refinement never exceeds the oracle, and the refined best comes within
    1e-6 of it."""
    rng = np.random.default_rng(25)
    for trial in range(30):
        n = int(rng.integers(1, 5))
        rows = int(rng.integers(1, 6))
        zeta = float(rng.uniform(0.1, 1.5))
        mapping, offset = _make_form(rng, rows, n)
        _, _, result_value, _ = _solve_one(mapping, offset, zeta)
        m_mat = mapping.conj().T @ mapping
        m_vec = mapping.conj().T @ offset
        c_sq = float(np.linalg.norm(offset) ** 2)

        def value(b):
            return float(np.real(b.conj() @ m_mat @ b
                                 + 2 * np.real(b.conj() @ m_vec)) + c_sq)

        samples = crandn_t(rng, (2000, n))
        samples *= zeta / np.linalg.norm(samples, axis=1, keepdims=True)
        vals = (np.einsum("sn,nm,sm->s", samples.conj(), m_mat,
                          samples).real
                + 2 * np.einsum("sn,n->s", samples.conj(), m_vec).real
                + c_sq)
        best_b = samples[int(np.argmax(vals))]
        for _ in range(200):
            g = m_mat @ best_b + m_vec
            norm = np.linalg.norm(g)
            if norm < 1e-14:
                break
            best_b = zeta * g / norm
        refined = value(best_b)
        assert result_value >= max(float(vals.max()), refined) - 1e-12 \
            * max(result_value, 1.0)
        assert result_value <= refined + 1e-6 * max(refined, 1.0)


def test_kkt_and_duality_certificates():
    rng = np.random.default_rng(26)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        zeta = float(rng.uniform(0.1, 2.0))
        mapping, offset = _make_form(rng, int(rng.integers(1, 7)), n)
        b, rho, value, hard = _solve_one(mapping, offset, zeta)
        m_mat = mapping.conj().T @ mapping
        m_vec = mapping.conj().T @ offset
        lam_top = float(np.linalg.eigvalsh(m_mat)[-1])
        # primal feasibility and boundary attainment
        assert np.linalg.norm(b) <= zeta + 1e-10
        assert abs(np.linalg.norm(b) - zeta) < 1e-8 * max(zeta, 1.0)
        # stationarity (rho I - M) b = m and curvature rho >= lam_max
        resid = np.linalg.norm((rho * np.eye(n) - m_mat) @ b - m_vec)
        assert resid < 1e-8 * max(np.linalg.norm(m_vec), 1.0)
        assert rho >= lam_top - 1e-10 * max(lam_top, 1.0)
        # value never below the center value
        assert value >= float(np.linalg.norm(offset) ** 2) - 1e-12
        # weak duality: value <= g(rho') for feasible rho' > lam_max, and
        # g(rho*) matches the value when the solve is non-degenerate
        c_sq = float(np.linalg.norm(offset) ** 2)

        def dual(rho_val):
            shift = rho_val * np.eye(n) - m_mat
            return float(rho_val * zeta ** 2 + c_sq
                         + np.real(m_vec.conj()
                                   @ np.linalg.solve(shift, m_vec)))

        for bump in (1e-3, 1e-1, 1.0):
            assert value <= dual(rho + bump
                                        + max(lam_top - rho, 0.0)) + 1e-8
        if not hard and rho > lam_top + 1e-8:
            assert abs(dual(rho) - value) < 1e-6 * max(value, 1.0)


# ---------------------------------------------------------------------------
# worst_case_mse
# ---------------------------------------------------------------------------

def test_worst_case_mse_limits(default_config, designed, default_channels):
    config = default_config
    nominal = weighted_mse_with_errors(designed, default_channels, config,
                                       deltas=_zero_deltas(default_channels))
    zero_cfg = SystemConfig.from_scalars()
    certain = draw_channels(zero_cfg, ChannelStats(csi_radius=0.0), [77])
    wc0 = worst_case_mse(designed, certain, zero_cfg)
    nom0 = weighted_mse_with_errors(designed, certain, zero_cfg,
                                    deltas=_zero_deltas(certain))
    assert wc0 == pytest.approx(nom0, rel=1e-12)
    wc = worst_case_mse(designed, default_channels, config)
    assert wc >= nominal - 1e-12
    # doubling every radius can only hurt
    doubled = default_channels.__class__(
        h=default_channels.h, h_est=default_channels.h_est,
        csi_radius={p: 2.0 * default_channels.csi_radius[p] for p in PAIRS})
    assert worst_case_mse(designed, doubled, config) >= wc - 1e-12


def test_worst_case_mse_idle_design_bounded(default_config, default_channels):
    # an all-zero transceiver leaves E = I: the worst case cannot exceed the
    # total stream count regardless of the error radius
    config = default_config
    from fdlink import TransceiverDesign
    zeros_v = [np.zeros((config.subcarriers, config.tx_antennas[i],
                         config.streams[i]), dtype=complex)
               for i in DIRECTIONS]
    zeros_u = [np.zeros((config.subcarriers, config.rx_antennas[i],
                         config.streams[i]), dtype=complex)
               for i in DIRECTIONS]
    weights = identity_weights(config)
    design = TransceiverDesign(precoders=zeros_v, decoders=zeros_u,
                               mse_weights=weights)
    total = sum(config.subcarriers * config.streams[i] for i in DIRECTIONS)
    wc = worst_case_mse(design, default_channels, config)
    assert wc <= total + 1e-9


def _oracle_case(name, default_config, default_channels, designed,
                 two_stream_case):
    if name == "identity":
        return (default_config, default_channels, designed,
                identity_weights(default_config))
    if name == "weighted":
        config, channels, design = two_stream_case
        rng = np.random.default_rng(61)
        weights = [np.stack([random_psd(rng, config.streams[i])
                             for _ in range(config.subcarriers)])
                   for i in DIRECTIONS]
        return config, channels, design, weights
    channels = draw_channels(default_config, ChannelStats(), 62)      # zero_radii
    radius = {p: r.copy() for p, r in channels.csi_radius.items()}
    radius[(0, 1)][2] = radius[(1, 1)][0] = 0.0
    radius[(1, 0)][:] = 0.0
    channels = dataclasses.replace(channels, csi_radius=radius)
    _, channels = perturb_csi(channels, default_config, 63, "interior")
    return default_config, channels, designed, None


@pytest.mark.parametrize("name", ["identity", "weighted", "zero_radii"])
def test_worst_scenario_attains_certified_value(name, default_config,
                                                default_channels, designed,
                                                two_stream_case):
    """The channel dict the oracle returns (and the cutting set appends)
    evaluates to the certified worst case: the objective separates across
    error matrices, so the per-form maximizers are jointly worst."""
    config, channels, design, weights = _oracle_case(
        name, default_config, default_channels, designed, two_stream_case)
    _, worst = _worst_case(design, channels, config, weights)
    certified = worst_case_mse(design, channels, config, mse_weights=weights)
    deltas = {p: worst[p] - channels.h_est[p] for p in PAIRS}
    attained = weighted_mse_with_errors(design, channels, config,
                                        deltas=deltas, mse_weights=weights)
    assert attained == pytest.approx(certified, rel=1e-9)
    nominal = weighted_mse_with_errors(design, channels, config,
                                       deltas=_zero_deltas(channels),
                                       mse_weights=weights)
    assert certified > nominal
    for pair in PAIRS:
        radii = channels.csi_radius[pair]
        for k in range(config.subcarriers):
            if radii[k] <= 0:
                assert np.array_equal(worst[pair][k], channels.h_est[pair][k])
                continue
            assert np.linalg.norm(deltas[pair][k]) <= radii[k] * (1 + 1e-9)


# ---------------------------------------------------------------------------
# the stacked oracle against a per-form reference
# ---------------------------------------------------------------------------

def _reference_form(design, channels, config, i, j, k, weights):
    """(map, offset) of Delta_ij^k alone, by explicit Kronecker
    products: vec(A X B) = (B^T kron A) vec(X) with column-major vec."""
    lam, q = np.linalg.eigh(weights[i])
    w_fac = (q * np.sqrt(np.maximum(lam, 0.0))[:, None, :])[k]
    u, v = design.decoders[i][k], design.precoders[j][k]
    h_nom = channels.h_est[(i, j)][k]
    a1 = w_fac.conj().T @ u.conj().T
    chain_power = np.einsum("knd,knd->n", design.precoders[j],
                            design.precoders[j].conj()).real
    b2 = np.diag(np.sqrt(config.tx_distortion[j] * chain_power)).astype(complex)
    gw = np.einsum("kmd,kde->kme", design.decoders[i],
                   q * np.sqrt(np.maximum(lam, 0.0))[:, None, :])
    g_hat = config.rx_distortion[i] * np.einsum("kme,kme->m", gw, gw.conj()).real
    a3 = np.diag(np.sqrt(g_hat)).astype(complex)
    c1 = (a1 @ h_nom @ v - w_fac.conj().T if i == j
          else np.zeros((a1.shape[0], v.shape[1]), dtype=complex))
    mapping = np.vstack([np.kron(v.T, a1), np.kron(b2.T, a1), np.kron(v.T, a3)])
    offset = np.concatenate([x.reshape(-1, order="F")
                             for x in (c1, a1 @ h_nom @ b2, a3 @ h_nom @ v)])
    return mapping, offset


def _reference_solve(g, c, z):
    """(b, value, hard) maximizing ||G b + c||^2 over ||b|| <= z > 0 for one
    form: one eigendecomposition and a bisection on the secular equation."""
    m_mat = g.conj().T @ g
    lam, basis = np.linalg.eigh(0.5 * (m_mat + m_mat.conj().T))
    lam = np.maximum(lam, 0.0)
    mh = basis.conj().T @ (g.conj().T @ c)
    w = np.abs(mh) ** 2
    top = lam >= lam[-1] - 1e-12 * max(lam[-1], 1.0)
    hard = np.sqrt(w[top].sum()) <= 1e-10 * np.sqrt(w.sum())
    if hard:
        coeff = np.zeros_like(mh)
        coeff[~top] = mh[~top] / (lam[-1] - lam[~top])
        b_perp = basis @ coeff
        if np.linalg.norm(b_perp) < z:
            if lam[-1] > 0:
                tau = np.sqrt(z * z - np.linalg.norm(b_perp) ** 2)
                b_perp = b_perp + tau * basis[:, -1]
            return b_perp, float(np.linalg.norm(g @ b_perp + c) ** 2), True
        w[top], mh[top] = 0.0, 0.0
    gap, live = lam[-1] - lam, w > 0
    lo, hi = 0.0, float(np.sqrt(w.sum())) / z
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if (w[live] / (gap[live] + mid) ** 2).sum() > z * z:
            lo = mid
        else:
            hi = mid
    b = basis @ (mh / np.where(gap + hi > 0, gap + hi, np.inf))
    b *= z / np.linalg.norm(b)
    return b, float(np.linalg.norm(g @ b + c) ** 2), False


def _kkt_residual(g, c, b, rho):
    """||rho b - M b - m||, M = G^H G and m = G^H c: boundary stationarity of
    one form's maximizer."""
    return float(np.linalg.norm(rho * b - g.conj().T @ (g @ b) - g.conj().T @ c))


def _reference_worst_case(design, channels, config, weights):
    weights = weights if weights is not None else design.mse_weights
    total = weighted_mse_with_errors(design, channels, config,
                                     deltas=_zero_deltas(channels),
                                     mse_weights=weights)
    worst = {pair: channels.h_est[pair].copy() for pair in PAIRS}
    for (i, j) in PAIRS:
        for k in range(config.subcarriers):
            z = float(channels.csi_radius[(i, j)][k])
            if z <= 0:
                continue
            mapping, offset = _reference_form(design, channels, config,
                                              i, j, k, weights)
            b, value, _ = _reference_solve(mapping, offset, z)
            total += max(value - float(np.vdot(offset, offset).real), 0.0)
            worst[(i, j)][k] += b.reshape(worst[(i, j)].shape[1:], order="F")
    return total, worst


@pytest.mark.parametrize("name", ["identity", "weighted", "zero_radii"])
def test_stacked_oracle_matches_per_form_reference(name, default_config,
                                                   default_channels, designed,
                                                   two_stream_case):
    """The per-pair stacks give the certified value and the worst channel of
    per-form Kronecker builds and scalar secular solves."""
    config, channels, design, weights = _oracle_case(
        name, default_config, default_channels, designed, two_stream_case)
    expected, expected_worst = _reference_worst_case(design, channels, config,
                                                     weights)
    value, worst = _worst_case(design, channels, config, weights)
    assert abs(value - expected) <= 1e-12 * abs(expected)
    assert worst_case_mse(design, channels, config, mse_weights=weights) == value
    for pair in PAIRS:
        scale = np.max(np.abs(expected_worst[pair]))
        assert np.max(np.abs(worst[pair] - expected_worst[pair])) <= 1e-9 * scale
        k = 1
        maps, offsets = build_quadratic_form(design, channels, config, *pair,
                                             mse_weights=weights)
        mapping, offset = _reference_form(
            design, channels, config, *pair, k,
            weights if weights is not None else design.mse_weights)
        assert np.max(np.abs(maps[k] - mapping)) <= 1e-12 * np.max(np.abs(mapping))
        assert np.max(np.abs(offsets[k] - offset)) <= 1e-12 * max(
            np.max(np.abs(offset)), 1.0)


def test_stacked_solve_matches_scalar_reference_on_hard_cases():
    """One stack holding a hard-case form padded along the top eigenvector,
    a hard-case form whose solve off the top space reaches the ball (secular
    root), a pure quadratic (m = 0) and generic forms."""
    rng = np.random.default_rng(27)
    forms = [(np.diag([2.0 + 0j, 1.0]), np.array([0.0j, 1.0]), 1.0),
             (np.diag([2.0 + 0j, 1.0]), np.array([0.0j, 3.0]), 0.5),
             (np.diag([2.0 + 0j, 1.0]), np.zeros(2, dtype=complex), 0.7)]
    forms += [(crandn_t(rng, (2, 2)), crandn_t(rng, (2,)),
               float(rng.uniform(0.1, 1.5))) for _ in range(5)]
    g = np.stack([f[0] for f in forms])
    c = np.stack([f[1] for f in forms])
    z = np.array([f[2] for f in forms])
    b, rho, value, hard = worst_case_error(g, c, z)
    assert list(hard[:3]) == [True, False, True] and not hard[3:].any()
    for n, (gf, cf, zf) in enumerate(forms):
        ref_b, ref_value, _ = _reference_solve(gf, cf, zf)
        assert abs(value[n] - ref_value) <= 1e-12 * max(ref_value, 1.0)
        assert np.max(np.abs(b[n] - ref_b)) <= 1e-9 * zf
        assert _kkt_residual(gf, cf, b[n], rho[n]) < 1e-9
    assert rho[0] == pytest.approx(4.0) and rho[1] == pytest.approx(7.0)


@pytest.mark.parametrize("top_share", [0.0, 1e-18, 1e-14, 1e-8])
def test_near_hard_forms_match_reference(top_share):
    """Forms whose m = G^H c puts top_share of its weight on the top
    eigenvector of M, the band where a 1e-20 and a 1e-13 roundoff rule
    disagree, with the solve off the top space inside the ball (hard when
    the top weight is below the read-off's floor) and outside it (never
    hard). Value, boundary and stationarity hold either way; a padded form
    leaves at most its dropped top component in the KKT residual."""
    rng = np.random.default_rng(31)
    u, _ = np.linalg.qr(crandn_t(rng, (3, 3)))
    w, _ = np.linalg.qr(crandn_t(rng, (3, 3)))
    s = np.array([2.0, 1.5, 1.0])
    g = u @ np.diag(s) @ w.conj().T               # M = w diag(s^2) w^H
    mh = crandn_t(rng, (3,))
    off = np.linalg.norm(mh[1:])
    mh[0] *= np.sqrt(top_share / (1.0 - top_share)) * off / abs(mh[0])
    c = u @ (mh / s)                              # m = w mh
    norm_perp = np.linalg.norm(mh[1:] / (s[0] ** 2 - s[1:] ** 2))
    z = norm_perp * np.array([2.0, 0.5])          # inside, outside
    b, rho, value, hard = worst_case_error(np.stack([g, g]), np.stack([c, c]), z)
    assert list(hard) == [top_share <= 1e-14, False]
    for n in range(2):
        _, ref_value, _ = _reference_solve(g, c, z[n])
        assert abs(value[n] - ref_value) <= 1e-12 * ref_value
        assert abs(np.linalg.norm(b[n]) - z[n]) <= 1e-12 * z[n]
        assert _kkt_residual(g, c, b[n], rho[n]) <= 1e-9 * off + hard[n] * abs(mh[0])


def test_forms_solve_as_power_dual_on_reversed_spectrum():
    """On the sphere, max ||G b + c||^2 is min b^H (lam_max I - M) b
    - 2 Re m^H b: random dense forms, and diagonal ones whose m misses the
    top eigenvector inside the ball, give _solve_power_dual's minimizer at
    budget z^2, padded along the top eigenvector where its iota is 0."""
    rng = np.random.default_rng(32)
    dense = [(crandn_t(rng, (3, 3)), crandn_t(rng, (3,)), rng.uniform(0.1, 2.0))
             for _ in range(12)]
    diagonal = []
    for _ in range(4):
        s = np.sort(rng.uniform(0.5, 2.0, 3))
        c = crandn_t(rng, (3,)) * np.array([1.0, 1.0, 0.0])
        diagonal.append((np.diag(s.astype(complex)), c,
                         2.0 * np.linalg.norm(s[:2] * c[:2] / (s[2] ** 2 - s[:2] ** 2))))
    g, c, z = (np.stack(x) for x in zip(*dense, *diagonal))
    b, rho, _, hard = worst_case_error(g, c, z)
    assert list(hard) == [False] * 12 + [True] * 4
    m_mat = g.conj().swapaxes(1, 2) @ g
    lam, basis = np.linalg.eigh(m_mat)
    quad = lam[:, -1, None, None] * np.eye(3) - m_mat
    m_vec = np.einsum("frn,fr->fn", g.conj(), c)
    v, iota = _solve_power_dual(quad[:, None], m_vec[:, None, :, None], np.ones(3),
                                z * z, 1e-13 * z * z)
    v = v[:, 0, :, 0]
    tau = np.sqrt(np.maximum(z * z - np.linalg.norm(v, axis=1) ** 2, 0.0))
    v += np.where(iota == 0, tau, 0.0)[:, None] * basis[:, :, -1]
    assert np.all(np.linalg.norm(b - v, axis=1) <= 1e-9 * z)
    assert np.allclose(rho, lam[:, -1] + iota, rtol=1e-9)


def test_root_search_batch_equals_batches_of_one():
    """Each element of a batched secular solve takes the same steps as its
    own batch-of-one search: equal roots, bit for bit, at per-element
    tolerances, including rows with zero weights and zero gaps."""
    rng = np.random.default_rng(28)
    gap = rng.exponential(size=(12, 5))
    gap -= gap.min(axis=1, keepdims=True)
    weight = rng.uniform(0.0, 1.0, (12, 5))
    weight[3, 1:] = 0.0
    weight[7, np.argmin(gap[7])] = 0.0
    roots = rng.uniform(0.05, 2.0, 12)
    target = (weight / (gap + roots[:, None]) ** 2).sum(axis=1)
    tol = np.where(np.arange(12) % 2 == 0, 1e-13, 1e-6) * target
    batch = _rational_root(gap, weight, target, tol)
    single = [_rational_root(gap[e:e + 1], weight[e:e + 1], target[e], tol[e])[0]
              for e in range(12)]
    assert np.array_equal(batch, np.array(single))
    reached = (weight / (gap + batch[:, None]) ** 2).sum(axis=1)
    assert np.all(np.abs(reached - target) <= tol)


def _secular_rows():
    # rows with known roots, spread gaps and one zero-weight term
    rng = np.random.default_rng(31)
    gap = rng.exponential(size=(6, 4))
    gap -= gap.min(axis=1, keepdims=True)
    weight = rng.uniform(0.1, 1.0, (6, 4))
    weight[2, 3] = 0.0
    roots = rng.uniform(0.05, 3.0, 6)
    target = (weight / (gap + roots[:, None]) ** 2).sum(axis=1)
    return gap, weight, roots, target


@pytest.mark.parametrize("factor", [0.0, 0.5, 2.0, 10.0])
def test_newton_root_meets_tolerance_from_any_start(factor):
    # a start left of the root climbs; one right of it steps back left first
    gap, weight, roots, target = _secular_rows()
    tol = 1e-12 * target
    found = _rational_root(gap, weight, target, tol, factor * roots)
    reached = (weight / (gap + found[:, None]) ** 2).sum(axis=1)
    assert np.all(np.abs(reached - target) <= tol)
    assert np.allclose(found, roots, rtol=1e-10)


def test_newton_root_with_zero_gap_is_finite():
    # a zero gap with positive weight has a pole at t = 0; the one-term bound
    # starts the search right of it
    gap = np.array([[0.0, 0.5, 2.0], [0.0, 0.0, 1.0]])
    weight = np.array([[0.3, 1.0, 1.0], [1e-20, 0.0, 2.0]])
    target = np.array([4.0, 0.5])
    found = _rational_root(gap, weight, target, 1e-12 * target)
    assert np.all(np.isfinite(found)) and np.all(found > 0)
    reached = (weight / (gap + found[:, None]) ** 2).sum(axis=1)
    assert np.all(np.abs(reached - target) <= 1e-12 * target)


def test_newton_root_failure_names_the_tolerance(monkeypatch):
    import fdlink.util as util
    monkeypatch.setattr(util, "_ROOT_ITERS", 1)
    gap, weight, _, target = _secular_rows()
    with pytest.raises(util.DualSearchError, match=r"tolerance 1\.5e-13 in 1 steps"):
        _rational_root(gap, weight, target, 1.5e-13)


# ---------------------------------------------------------------------------
# cutting-set loop
# ---------------------------------------------------------------------------

def test_cutting_set_solves_each_form_once_per_cut(default_config,
                                                   default_channels,
                                                   monkeypatch):
    # one oracle pass per cut gives both the certified value and the next
    # scenario: one stacked build and one stacked solve of each pair's K forms
    # per cut, none after the last cut
    built, solved = [], []
    build, solve = robust.build_quadratic_form, robust.worst_case_error

    def counted_build(*args, **kwargs):
        built.append(args[3:5])
        return build(*args, **kwargs)

    def counted_solve(*args, **kwargs):
        solved.append(len(args[2]))
        return solve(*args, **kwargs)

    monkeypatch.setattr(robust, "build_quadratic_form", counted_build)
    monkeypatch.setattr(robust, "worst_case_error", counted_solve)
    monkeypatch.setattr(robust, "MAX_CUTS", 3)
    _, report = run_cutting_set(default_channels, default_config)
    cuts = len(report.extras["cuts"])
    assert cuts == 3 and not report.extras["robust_converged"]
    assert all(np.all(r > 0) for r in default_channels.csi_radius.values())
    assert built == list(PAIRS) * cuts
    assert solved == [default_config.subcarriers] * len(PAIRS) * cuts


def test_cutting_set_zero_radius_single_cut():
    config = SystemConfig.from_scalars()
    channels = draw_channels(config, ChannelStats(csi_radius=0.0), [99])
    nominal_design, _ = run_altqcp(channels, config)
    robust_design, report = run_cutting_set(channels, config)
    assert len(report.extras["cuts"]) == 1
    assert report.extras["robust_converged"]
    for i in DIRECTIONS:
        assert np.max(np.abs(robust_design.precoders[i]
                             - nominal_design.precoders[i])) < 1e-10


def test_cutting_set_certified_no_worse_than_nominal(default_config):
    """The returned design's certified worst case never exceeds the nominal
    design's certified worst case (the incumbent rule makes this exact)."""
    wins = 0
    trials = 5
    for t in range(trials):
        config = default_config
        channels = draw_channels(config, ChannelStats(), [300 + t])
        _, channels = perturb_csi(channels, config, [400 + t], "interior")
        nominal_design, _ = run_altqcp(channels, config)
        robust_design, report = run_cutting_set(channels, config)
        wc_nominal = worst_case_mse(nominal_design, channels, config)
        wc_robust = worst_case_mse(robust_design, channels, config)
        assert wc_robust <= wc_nominal + 1e-12
        if wc_robust < wc_nominal - 1e-9:
            wins += 1
        assert report.extras["worst_case"] == pytest.approx(wc_robust,
                                                            rel=1e-9)
    # the robust loop should strictly improve on at least one draw
    assert wins >= 1


def test_cutting_set_leaves_first_cut_unchanged():
    # with no CSI error the loop selects its first cut, whose report comes
    # back as a copy with the loop's extras; the passed report keeps its own
    config = SystemConfig.from_scalars()
    channels = draw_channels(config, ChannelStats(csi_radius=0.0), [99])
    first = run_altqcp(channels, config)
    extras = first[1].extras
    before = dict(extras)
    _, report = run_cutting_set(channels, config, None, first)
    assert report.extras["selected_cut"] == 0
    assert first[1].extras is extras and extras == before
    assert "worst_case" not in extras and "worst_case" in report.extras


def test_cutting_set_history_shapes(default_config, default_channels,
                                    monkeypatch):
    monkeypatch.setattr(robust, "MAX_CUTS", 4)
    _, report = run_cutting_set(default_channels, default_config)
    history = report.extras["cuts"]
    assert 1 <= len(history) <= 4
    for step in history:
        assert step["worst_case"] >= 0
        assert step["gap"] >= -1e-12
    assert report.extras["selected_cut"] < len(history)


def test_shut_down_direction_gives_no_overflow():
    # kappa = 0 dB, seed 7, trial 4 of the default link: the cut loop's
    # design shuts a direction down to about 1e-150, so some forms' maps lie
    # far below the rounding of their offsets; they count as zero, and the
    # oracle gives their exact value |c|^2 without an overflow on the way
    from fdlink.harness import ExperimentSpec, run_trial
    spec = ExperimentSpec.from_json({
        "config": {"subcarriers": 4, "antennas": 2, "streams": 1},
        "sweep": {"param": "kappa_db", "values": [0]},
        "algorithms": ["cutting_set"], "seed": 7})
    rows, _ = run_trial(spec, 0.0, 4)
    got = {r["metric"]: r["value"] for r in rows if r["iteration"] == -1}
    assert all(np.isfinite(r["value"]) for r in rows)
    assert min(got["power_1"], got["power_2"]) < 1e-100
    assert got["wc_mse"] >= got["sum_mse"]
