"""Core domain types and closed-form performance expressions.

Bidirectional full-duplex MIMO-OFDM link: two directions share the band on K
subcarriers. Each transmit chain adds distortion proportional to its own signal
power, each receive chain adds distortion proportional to the total power it
observes, and self-interference cancellation leaves behind exactly the distorted
part of the loopback signal (plus whatever a CSI estimation error lets through).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from .util import LN2, ConfigError, dagger, herm, stabilized

DIRECTIONS = (0, 1)
PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemConfig:
    """Static link description, immutable after construction.

    Distortion vectors hold per-chain coefficients already divided by the
    subcarrier count, so that subcarriers * tx_distortion[i] recovers the
    per-chain kappa values of the physical transmit chains (same for rx/beta).
    All power-like fields are linear (not dB).
    """

    subcarriers: int
    tx_antennas: tuple
    rx_antennas: tuple
    streams: tuple
    p_max: tuple
    noise_var: np.ndarray          # (2, K)
    tx_distortion: tuple           # per direction: (N_i,) = kappa_l / K
    rx_distortion: tuple           # per direction: (M_i,) = beta_l / K
    rate_weights: tuple = (1.0, 1.0)
    csi_radius: np.ndarray = None  # (2, 2, K) Frobenius radii of the error sets

    def __post_init__(self):
        if self.subcarriers < 1:
            raise ConfigError("need at least one subcarrier")
        for i in DIRECTIONS:
            if min(self.tx_antennas[i], self.rx_antennas[i], self.streams[i]) < 1:
                raise ConfigError("antenna/stream counts must be positive")
            if self.streams[i] > min(self.tx_antennas[i], self.rx_antennas[i]):
                raise ConfigError("streams cannot exceed min(tx, rx) antennas")
            if self.p_max[i] < 0:
                raise ConfigError("transmit power budget must be >= 0")
        nv = np.asarray(self.noise_var, dtype=float)
        if nv.shape != (2, self.subcarriers) or np.any(nv < 0):
            raise ConfigError("noise_var must be a nonnegative (2, K) array")
        object.__setattr__(self, "noise_var", _freeze(nv))
        for name, sizes in (("tx_distortion", self.tx_antennas),
                            ("rx_distortion", self.rx_antennas)):
            vecs = []
            for i in DIRECTIONS:
                v = np.asarray(getattr(self, name)[i], dtype=float)
                if v.shape != (sizes[i],) or np.any(v < 0):
                    raise ConfigError(f"{name}[{i}] must be a nonnegative ({sizes[i]},) vector")
                vecs.append(_freeze(v))
            object.__setattr__(self, name, tuple(vecs))
        cz = self.csi_radius
        if cz is None:
            cz = np.zeros((2, 2, self.subcarriers))
        cz = np.asarray(cz, dtype=float)
        if cz.shape != (2, 2, self.subcarriers) or np.any(cz < 0):
            raise ConfigError("csi_radius must be a nonnegative (2, 2, K) array")
        object.__setattr__(self, "csi_radius", _freeze(cz))
        if min(self.rate_weights) <= 0:
            raise ConfigError("rate weights must be positive")

    @classmethod
    def from_scalars(cls, subcarriers=4, antennas=2, streams=1, p_max=1.0,
                     noise_var=1e-3, kappa=1e-3, beta=None, csi_radius=10 ** -1.5,
                     rate_weights=(1.0, 1.0), tx_antennas=None,
                     rx_antennas=None) -> "SystemConfig":
        """Uniform construction from scalar parameters (kappa/beta are per-chain,
        linear; they get divided by the subcarrier count internally)."""
        if beta is None:
            beta = kappa
        k = int(subcarriers)
        n_tx = tuple(tx_antennas) if tx_antennas is not None else (antennas, antennas)
        n_rx = tuple(rx_antennas) if rx_antennas is not None else (antennas, antennas)
        return cls(
            subcarriers=k,
            tx_antennas=n_tx,
            rx_antennas=n_rx,
            streams=(streams, streams) if np.isscalar(streams) else tuple(streams),
            p_max=(p_max, p_max) if np.isscalar(p_max) else tuple(p_max),
            noise_var=np.full((2, k), float(noise_var)),
            tx_distortion=tuple(np.full(n_tx[i], float(kappa) / k) for i in DIRECTIONS),
            rx_distortion=tuple(np.full(n_rx[i], float(beta) / k) for i in DIRECTIONS),
            rate_weights=tuple(rate_weights),
            csi_radius=np.full((2, 2, k), float(csi_radius)),
        )

    def replace(self, **kw) -> "SystemConfig":
        return replace(self, **kw)


@dataclass(frozen=True)
class ChannelRealization:
    """True and estimated channels plus the CSI uncertainty description.

    h[(i, j)] has shape (K, M_i, N_j): subcarrier-k response from the
    transmitter of direction j to the receiver of direction i. h_est is what
    the design sees; draw_channels leaves h_est == h, perturb_csi moves it.
    shaping[(i, j)] is an optional (K, M_i, M_i) left-shaping matrix D with the
    feasible errors { Delta : ||D^k Delta||_F <= radius[k] }; None means identity.
    """

    h: dict
    h_est: dict
    csi_radius: dict
    shaping: dict = field(default_factory=lambda: {pair: None for pair in PAIRS})

    def __post_init__(self):
        for store in (self.h, self.h_est):
            for pair in PAIRS:
                if pair not in store:
                    raise ConfigError(f"channel set missing pair {pair}")
        k0 = self.h[(0, 0)].shape[0]
        for pair in PAIRS:
            if self.h[pair].shape != self.h_est[pair].shape or self.h[pair].shape[0] != k0:
                raise ConfigError("inconsistent channel array shapes")

    @property
    def subcarriers(self) -> int:
        return self.h[(0, 0)].shape[0]

    def delta(self) -> dict:
        """Actual estimation errors, h - h_est (zero when CSI is perfect)."""
        return {pair: self.h[pair] - self.h_est[pair] for pair in PAIRS}

    def hash_hex(self) -> str:
        digest = hashlib.sha256()
        for pair in PAIRS:
            digest.update(np.ascontiguousarray(self.h[pair]).tobytes())
            digest.update(np.ascontiguousarray(self.h_est[pair]).tobytes())
        return digest.hexdigest()[:16]


@dataclass(frozen=True)
class TransceiverDesign:
    """Per-direction precoder/decoder stacks plus MSE weights and power duals.

    precoders[i]: (K, N_i, d_i), decoders[i]: (K, M_i, d_i),
    mse_weights[i]: (K, d_i, d_i) Hermitian PD, duals: (iota_1, iota_2) >= 0.
    """

    precoders: tuple
    decoders: tuple
    mse_weights: tuple
    duals: tuple = (0.0, 0.0)

    def stream_counts(self) -> tuple:
        return tuple(self.precoders[i].shape[2] for i in DIRECTIONS)


@dataclass
class PerformanceReport:
    mse: np.ndarray                 # (2, K), unweighted tr(E)
    rate_bits: np.ndarray           # (2, K)
    power: np.ndarray               # (2,)
    objective_trace: list = field(default_factory=list)
    iteration_seconds: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    rate_trace: list = None
    extras: dict = field(default_factory=dict)

    def sum_mse(self) -> float:
        return float(np.sum(self.mse))

    def weighted_sum_rate(self, rate_weights=(1.0, 1.0)) -> float:
        return float(sum(rate_weights[i] * np.sum(self.rate_bits[i]) for i in DIRECTIONS))


# ---------------------------------------------------------------------------
# closed-form expressions
# ---------------------------------------------------------------------------

def covariance_stacks(precoders, channels_dict, config: SystemConfig):
    """Aggregate interference-plus-noise covariance for all (i, k) at once.

    Per direction i and subcarrier k:
        sum_j H_ij^k Theta_tx,j diag(sum_l V_j^l V_j^l^H) H_ij^k^H
        + sigma_ik^2 I
        + Theta_rx,i diag(sum_l (sigma_il^2 I + sum_j H_ij^l V_j^l V_j^l^H H_ij^l^H))
    first order in the distortion coefficients. Returns [ (K, M_i, M_i) ]_i.
    """
    k_count = config.subcarriers
    # per-direction transmit distortion profile: q_j[n] = theta_j[n] * sum_l (V V^H)_nn
    q = [config.tx_distortion[j] * np.einsum("knd,knd->n", precoders[j],
                                             precoders[j].conj()).real
         for j in DIRECTIONS]
    out = []
    for i in DIRECTIONS:
        m_i = config.rx_antennas[i]
        sig = np.zeros((k_count, m_i, m_i), dtype=complex)
        received = np.full(m_i, config.noise_var[i].sum())  # sum_l sigma_il^2 per antenna
        for j in DIRECTIONS:
            h = channels_dict[(i, j)]
            sig += np.einsum("kmn,n,kpn->kmp", h, q[j], h.conj())
            hv = h @ precoders[j]                      # (K, M_i, d_j)
            received = received + np.einsum("kmd,kmd->m", hv, hv.conj()).real
        rx_diag = config.rx_distortion[i] * received
        sig[:, np.arange(m_i), np.arange(m_i)] += config.noise_var[i][:, None] + rx_diag[None, :]
        out.append(herm(sig))
    return out


def _scenario_sigma(precoders, g, sic, config: SystemConfig):
    """Design-model interference covariance stacks when the channels are g and
    self-interference cancellation is referenced to sic: covariance_stacks on g
    plus the cancellation residual (g - sic)_ij V_j V_j^H (g - sic)_ij^H of the
    cross links, j = 1 - i. Returns [ (K, M_i, M_i) ]_i."""
    sigmas = covariance_stacks(precoders, g, config)
    for i in DIRECTIONS:
        j = 1 - i
        d = g[(i, j)] - sic[(i, j)]
        if np.any(d):
            dv = d @ precoders[j]
            sigmas[i] = sigmas[i] + np.einsum("kmd,kpd->kmp", dv, dv.conj())
    return sigmas


def aggregate_covariance(design: TransceiverDesign, channels: ChannelRealization,
                         config: SystemConfig, i: int, k: int,
                         use_estimate: bool = False) -> np.ndarray:
    """Interference-plus-noise covariance at receiver i, subcarrier k."""
    if i not in DIRECTIONS:
        raise ConfigError("direction index must be 0 or 1")
    if not 0 <= k < config.subcarriers:
        raise ConfigError("subcarrier index out of range")
    source = channels.h_est if use_estimate else channels.h
    for j in DIRECTIONS:
        if design.precoders[j].shape != (config.subcarriers, config.tx_antennas[j],
                                         design.precoders[j].shape[2]):
            raise ConfigError("precoder stack shape does not match config")
        if source[(i, j)].shape[1:] != (config.rx_antennas[i], config.tx_antennas[j]):
            raise ConfigError("channel dimensions do not match config")
    return covariance_stacks(design.precoders, source, config)[i][k]


def mse_matrix(decoder: np.ndarray, precoder: np.ndarray, sigma: np.ndarray,
               h_direct: np.ndarray) -> np.ndarray:
    """E = (U^H H V - I)(U^H H V - I)^H + U^H Sigma U for one (i, k), or for a
    whole (K, ., .) stack of them."""
    d = precoder.shape[-1]
    if decoder.shape[-2] != h_direct.shape[-2] or precoder.shape[-2] != h_direct.shape[-1]:
        raise ConfigError("decoder/precoder dimensions do not match the channel")
    r = dagger(decoder) @ h_direct @ precoder - np.eye(d)
    return herm(r @ dagger(r) + dagger(decoder) @ sigma @ decoder)


def mmse_error_matrix(precoder: np.ndarray, sigma: np.ndarray,
                      h_direct: np.ndarray) -> np.ndarray:
    """Error matrix at the MMSE receiver: (I + V^H H^H Sigma^{-1} H V)^{-1}."""
    hv = h_direct @ precoder
    gram = dagger(hv) @ np.linalg.solve(stabilized(sigma), hv)
    d = precoder.shape[1]
    return herm(np.linalg.inv(np.eye(d) + gram))


def rate(precoder: np.ndarray, sigma: np.ndarray, h_direct: np.ndarray,
         streams: int = None):
    """Mutual information in bits, log2 det(I + V^H H^H Sigma^{-1} H V): a float
    for one subcarrier, a (K,) array for a (K, ., .) stack.

    Raises numpy.linalg.LinAlgError if sigma is singular.
    """
    hv = h_direct @ precoder
    gram = dagger(hv) @ np.linalg.solve(stabilized(sigma), hv)
    d = streams if streams is not None else precoder.shape[-1]
    sign, logdet = np.linalg.slogdet(np.eye(d) + gram)
    if np.any(sign.real <= 0):
        raise np.linalg.LinAlgError("rate argument lost positive definiteness")
    bits = np.maximum(logdet / LN2, 0.0)
    return float(bits) if bits.ndim == 0 else bits


def power_usage(precoders_i: np.ndarray, tx_distortion_i: np.ndarray,
                subcarriers: int = None) -> float:
    """Transmit power including the chain distortion overhead:
    tr((I + K Theta_tx) sum_l V^l V^l^H)."""
    k = subcarriers if subcarriers is not None else precoders_i.shape[0]
    gram_diag = np.einsum("knd,knd->n", precoders_i, precoders_i.conj()).real
    return float(gram_diag.sum() + k * (tx_distortion_i * gram_diag).sum())


# ---------------------------------------------------------------------------
# scenario evaluators: channels g as the truth, cancellation against sic.
# (g, sic) = (h_est, h_est) is the design view, (h, h_est) the true model.
# ---------------------------------------------------------------------------

def identity_weights(config: SystemConfig):
    return [np.broadcast_to(np.eye(config.streams[i], dtype=complex),
                            (config.subcarriers, config.streams[i],
                             config.streams[i])).copy()
            for i in DIRECTIONS]


def mse_stacks(precoders, decoders, g, sic, config: SystemConfig):
    """MSE matrices [ (K, d_i, d_i) ]_i of every (i, k) and the scenario
    covariances [ (K, M_i, M_i) ]_i they were built from."""
    sigmas = _scenario_sigma(precoders, g, sic, config)
    errors = [mse_matrix(decoders[i], precoders[i], sigmas[i], g[(i, i)])
              for i in DIRECTIONS]
    return errors, sigmas


def _design_objective(precoders, decoders, mse_weights, scenarios, sic, config):
    """sum over (weight, g) scenarios of weight * sum_i sum_k tr(S_i^k E_i^k).

    Terms are added one at a time in (scenario, i, k) order, the order the
    recorded objective traces and worst-case values have always used."""
    total = 0.0
    for weight, g in scenarios:
        errors, _ = mse_stacks(precoders, decoders, g, sic, config)
        for i in DIRECTIONS:
            for value in np.trace(mse_weights[i] @ errors[i], axis1=1, axis2=2).real:
                total += weight * value
    return float(total)


def rate_surrogate(errors, mse_weights, config: SystemConfig) -> float:
    """sum_i omega_i sum_k (ln det S_i^k + d_i - tr(S_i^k E_i^k)), natural log.

    Raises numpy.linalg.LinAlgError if a weight matrix is not positive definite.
    """
    total = 0.0
    for i in DIRECTIONS:
        sign, logdet = np.linalg.slogdet(mse_weights[i])
        if np.any(sign.real <= 0):
            raise np.linalg.LinAlgError("MSE weight matrix is not positive definite")
        fit = np.trace(mse_weights[i] @ errors[i], axis1=1, axis2=2).real
        for value, misfit in zip(logdet, fit):
            total += config.rate_weights[i] * (value + config.streams[i] - misfit)
    return float(total)


def weighted_rate(precoders, g, sic, config: SystemConfig) -> float:
    """sum_i omega_i sum_k rate_i^k in bits per channel use."""
    sigmas = _scenario_sigma(precoders, g, sic, config)
    return float(sum(config.rate_weights[i]
                     * np.sum(rate(precoders[i], sigmas[i], g[(i, i)]))
                     for i in DIRECTIONS))


def design_report(precoders, decoders, g, sic, config: SystemConfig) -> PerformanceReport:
    """Per-(i, k) unweighted MSE tr(E) with the given decoders, MMSE-receiver
    rates, and the distortion-aware power of each direction."""
    errors, sigmas = mse_stacks(precoders, decoders, g, sic, config)
    mse = np.array([np.trace(errors[i], axis1=1, axis2=2).real for i in DIRECTIONS])
    rate_bits = np.array([rate(precoders[i], sigmas[i], g[(i, i)]) for i in DIRECTIONS])
    power = np.array([power_usage(precoders[i], config.tx_distortion[i],
                                  config.subcarriers) for i in DIRECTIONS])
    return PerformanceReport(mse=mse, rate_bits=rate_bits, power=power)


def weighted_mse_objective(design: TransceiverDesign, channels: ChannelRealization,
                           config: SystemConfig, use_weights: bool = True,
                           use_estimate: bool = False) -> float:
    """sum_i sum_k tr(S_i^k E_i^k); S = I when use_weights is False."""
    source = channels.h_est if use_estimate else channels.h
    weights = design.mse_weights if use_weights else identity_weights(config)
    return _design_objective(design.precoders, design.decoders, weights,
                             [(1.0, source)], source, config)


def evaluate_design(design: TransceiverDesign, channels: ChannelRealization,
                    config: SystemConfig) -> PerformanceReport:
    """True-model evaluation: actual channels, actual distortion profile, SIC
    against the estimated channel (the residual shows up as extra interference).

    MSE uses the design's own decoders (identity weights); rates assume the
    desired-link receiver can realize the MMSE front end for the true channel.
    """
    return design_report(design.precoders, design.decoders, channels.h,
                         channels.h_est, config)
