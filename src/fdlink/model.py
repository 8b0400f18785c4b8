"""Core domain types and closed-form performance expressions.

Bidirectional full-duplex MIMO-OFDM link: two directions share the band on K
subcarriers. Each transmit chain adds distortion proportional to its own signal
power, each receive chain adds distortion proportional to the total power it
observes, and self-interference cancellation leaves behind exactly the distorted
part of the loopback signal (plus whatever a CSI estimation error lets through).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .util import LN2, ConfigError, as_count, dagger, herm, stabilized

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
    tx_distortion: tuple           # per direction: (N_i,) = kappa_l / K, or a fleet's (B, N_i)
    rx_distortion: tuple           # per direction: (M_i,) = beta_l / K, or a fleet's (B, M_i)
    rate_weights: tuple = (1.0, 1.0)

    def __post_init__(self):
        object.__setattr__(self, "subcarriers", as_count(self.subcarriers, "subcarriers"))
        if self.subcarriers < 1:
            raise ConfigError("need at least one subcarrier")
        if any(len(getattr(self, name)) != 2 for name in ("tx_antennas", "rx_antennas",
               "streams", "p_max", "tx_distortion", "rx_distortion", "rate_weights")):
            raise ConfigError("per-direction fields need one entry per direction")
        for name in ("tx_antennas", "rx_antennas", "streams"):
            object.__setattr__(self, name, tuple(as_count(c, name) for c in getattr(self, name)))
        for i in DIRECTIONS:
            if min(self.tx_antennas[i], self.rx_antennas[i], self.streams[i]) < 1:
                raise ConfigError("antenna/stream counts must be positive")
            if self.streams[i] > min(self.tx_antennas[i], self.rx_antennas[i]):
                raise ConfigError("streams cannot exceed min(tx, rx) antennas")
            if not 0 <= self.p_max[i] < np.inf:
                raise ConfigError("transmit power budget must be finite and >= 0")
        nv = np.asarray(self.noise_var, dtype=float)
        if nv.shape != (2, self.subcarriers) or not np.all((nv >= 0) & (nv < np.inf)):
            raise ConfigError("noise_var must be a finite, nonnegative (2, K) array")
        object.__setattr__(self, "noise_var", _freeze(nv))
        for name, sizes in (("tx_distortion", self.tx_antennas),
                            ("rx_distortion", self.rx_antennas)):
            vecs = []
            for i in DIRECTIONS:
                v = np.asarray(getattr(self, name)[i], dtype=float)
                if (v.ndim not in (1, 2) or v.shape[-1] != sizes[i]
                        or not np.all((v >= 0) & (v < np.inf))):
                    raise ConfigError(f"{name}[{i}] must be a finite, nonnegative "
                                      f"({sizes[i]},) vector or (B, {sizes[i]}) stack")
                vecs.append(_freeze(v))
            object.__setattr__(self, name, tuple(vecs))
        if not all(0 < w < np.inf for w in self.rate_weights):
            raise ConfigError("rate weights must be positive and finite")

    @classmethod
    def from_scalars(cls, subcarriers=4, antennas=2, streams=1, p_max=1.0,
                     noise_var=1e-3, kappa=1e-3, beta=None, rate_weights=(1.0, 1.0),
                     tx_antennas=None, rx_antennas=None) -> "SystemConfig":
        """Uniform construction from scalar parameters (kappa/beta are per-chain,
        linear; they get divided by the subcarrier count internally)."""
        if beta is None:
            beta = kappa
        k = as_count(subcarriers, "subcarriers")  # k and the antennas size the arrays below
        if k < 1:
            raise ConfigError("need at least one subcarrier")
        n_tx = tuple(tx_antennas) if tx_antennas is not None else (antennas, antennas)
        n_rx = tuple(rx_antennas) if rx_antennas is not None else (antennas, antennas)
        n_tx, n_rx = (tuple(as_count(n, "antennas") for n in ns) for ns in (n_tx, n_rx))
        return cls(
            subcarriers=k,
            tx_antennas=n_tx,
            rx_antennas=n_rx,
            streams=(streams, streams) if np.isscalar(streams) else tuple(streams),
            p_max=(p_max, p_max) if np.isscalar(p_max) else tuple(p_max),
            noise_var=np.full((2, k), float(noise_var)),
            tx_distortion=tuple(np.full(n, float(kappa) / k) for n in n_tx),
            rx_distortion=tuple(np.full(n, float(beta) / k) for n in n_rx),
            rate_weights=tuple(rate_weights),
        )


@dataclass(frozen=True)
class ChannelRealization:
    """True and estimated channels plus the CSI uncertainty description.

    h[(i, j)] has shape (K, M_i, N_j): subcarrier-k response from the
    transmitter of direction j to the receiver of direction i. h_est is what
    the design sees; draw_channels leaves h_est == h, perturb_csi moves it.
    The feasible errors are the balls ||Delta^k||_F <= csi_radius[(i, j)][k],
    with csi_radius[(i, j)] a finite, nonnegative (K,) array.
    """

    h: dict
    h_est: dict
    csi_radius: dict

    def __post_init__(self):
        for store in (self.h, self.h_est):
            for pair in PAIRS:
                if pair not in store:
                    raise ConfigError(f"channel set missing pair {pair}")
        k0 = self.h[(0, 0)].shape[0]
        radii = {pair: np.asarray(self.csi_radius.get(pair), dtype=float) for pair in PAIRS}
        for pair, r in radii.items():
            if self.h[pair].shape != self.h_est[pair].shape or self.h[pair].shape[0] != k0:
                raise ConfigError("inconsistent channel array shapes")
            if r.shape != (k0,) or not np.all((r >= 0) & (r < np.inf)):
                raise ConfigError(f"csi_radius{pair} must be finite, nonnegative, ({k0},)")
        object.__setattr__(self, "csi_radius", radii)

    def hash_hex(self) -> str:
        digest = hashlib.sha256()
        for pair in PAIRS:
            digest.update(np.ascontiguousarray(self.h[pair]).tobytes())
            digest.update(np.ascontiguousarray(self.h_est[pair]).tobytes())
        return digest.hexdigest()[:16]


@dataclass(frozen=True)
class TransceiverDesign:
    """Per-direction precoder/decoder stacks plus MSE weights.

    precoders[i]: (K, N_i, d_i), decoders[i]: (K, M_i, d_i),
    mse_weights[i]: (K, d_i, d_i) Hermitian PD.
    """

    precoders: tuple
    decoders: tuple
    mse_weights: tuple


@dataclass
class PerformanceReport:
    """A design run's record; a run's own report leaves the metrics None
    until it is evaluated (evaluate_design, baselines.evaluate_run)."""
    mse: np.ndarray = None          # (2, K), unweighted tr(E)
    rate_bits: np.ndarray = None    # (2, K)
    power: np.ndarray = None        # (2,)
    objective_trace: list = field(default_factory=list)
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

def covariance_stacks(precoders, g, config: SystemConfig, residual):
    """Design-model interference-plus-noise covariance for all (i, k) at once,
    when the channels are g and the cancellation residual is residual
    (_sic_residual, or (None, None) where cancellation is exact).

    Per direction i and subcarrier k:
        sum_j H_ij^k Theta_tx,j diag(sum_l V_j^l V_j^l^H) H_ij^k^H
        + sigma_ik^2 I
        + Theta_rx,i diag(sum_l (sigma_il^2 I + sum_j H_ij^l V_j^l V_j^l^H H_ij^l^H))
        + D_ij^k V_j^k V_j^k^H D_ij^k^H, j = 1 - i, D the residual,
    first order in the distortion coefficients. Channels may carry leading
    axes (a scenario stack); returns [ (..., K, M_i, M_i) ]_i with the same.
    A driver fleet adds one more axis in front: its precoders (B, K, N, d)
    and distortion vectors (B, N) meet channels (B, S, K, M, N).
    """
    tx, rx = config.tx_distortion, config.rx_distortion
    if g[(0, 0)].ndim > precoders[0].ndim:   # a scenario axis the members lack
        precoders = [v[..., None, :, :, :] for v in precoders]
        tx, rx = ([t[..., None, :] for t in thetas] for thetas in (tx, rx))
    # per-direction transmit distortion profile: q_j[n] = theta_j[n] * sum_l (V V^H)_nn
    q = [tx[j] * np.einsum("...knd,...knd->...n", precoders[j], precoders[j].conj()).real
         for j in DIRECTIONS]
    out = []
    for i in DIRECTIONS:
        m_i = config.rx_antennas[i]
        sig, received = 0.0, config.noise_var[i].sum()  # sum_l sigma_il^2 per antenna
        for j in DIRECTIONS:
            h = g[(i, j)]
            sig = sig + np.einsum("...kmn,...n,...kpn->...kmp", h, q[j], h.conj())
            hv = h @ precoders[j]                      # (..., K, M_i, d_j)
            received = received + np.einsum("...kmd,...kmd->...m", hv, hv.conj()).real
        rx_diag = (rx[i] * received)[..., None, :]
        sig[..., np.arange(m_i), np.arange(m_i)] += config.noise_var[i][:, None] + rx_diag
        sig = herm(sig)
        if residual[i] is not None:
            dv = residual[i] @ precoders[1 - i]
            sig = sig + np.einsum("...kmd,...kpd->...kmp", dv, dv.conj())
        out.append(sig)
    return out


def _stack(scenarios):
    """(S,) weights and {pair: (S, K, M, N)} channels of (weight, dict) scenarios."""
    return (np.array([w for w, _ in scenarios], dtype=float),
            {pair: np.array([g[pair] for _, g in scenarios]) for pair in PAIRS})


def _sic_residual(g, sic):
    """Per receiver i, the cross channel left after cancellation referenced to
    sic, (g - sic)_ij with j = 1 - i, or None where it is zero; g may be a
    stack. It is fixed for a run, so a run computes it once."""
    residual = [g[(i, 1 - i)] - sic[(i, 1 - i)] for i in DIRECTIONS]
    return [d if np.any(d) else None for d in residual]


def aggregate_covariance(design: TransceiverDesign, channels: ChannelRealization,
                         config: SystemConfig, i: int, k: int) -> np.ndarray:
    """Truth-view interference-plus-noise covariance at receiver i, subcarrier
    k: true channels h, cancellation against the estimate h_est."""
    if i not in DIRECTIONS:
        raise ConfigError("direction index must be 0 or 1")
    if not 0 <= k < config.subcarriers:
        raise ConfigError("subcarrier index out of range")
    for j in DIRECTIONS:
        if design.precoders[j].shape != (config.subcarriers, config.tx_antennas[j],
                                         design.precoders[j].shape[2]):
            raise ConfigError("precoder stack shape does not match config")
        if channels.h[(i, j)].shape[1:] != (config.rx_antennas[i], config.tx_antennas[j]):
            raise ConfigError("channel dimensions do not match config")
    return covariance_stacks(design.precoders, channels.h, config,
                             _sic_residual(channels.h, channels.h_est))[i][k]


def mse_matrix(decoder: np.ndarray, precoder: np.ndarray, sigma: np.ndarray,
               h_direct: np.ndarray) -> np.ndarray:
    """E = (U^H H V - I)(U^H H V - I)^H + U^H Sigma U for one (i, k), or for a
    whole (K, ., .) stack of them."""
    d = precoder.shape[-1]
    if decoder.shape[-2] != h_direct.shape[-2] or precoder.shape[-2] != h_direct.shape[-1]:
        raise ConfigError("decoder/precoder dimensions do not match the channel")
    r = dagger(decoder) @ h_direct @ precoder - np.eye(d)
    return herm(r @ dagger(r) + dagger(decoder) @ sigma @ decoder)


def rate(precoder: np.ndarray, sigma: np.ndarray, h_direct: np.ndarray):
    """Mutual information in bits, log2 det(I + V^H H^H Sigma^{-1} H V): a float
    for one subcarrier, a (K,) array for a (K, ., .) stack.

    Raises numpy.linalg.LinAlgError if sigma is singular.
    """
    hv = h_direct @ precoder
    gram = dagger(hv) @ np.linalg.solve(stabilized(sigma), hv)
    sign, logdet = np.linalg.slogdet(np.eye(precoder.shape[-1]) + gram)
    if np.any(sign.real <= 0):
        raise np.linalg.LinAlgError("rate argument lost positive definiteness")
    bits = np.maximum(logdet / LN2, 0.0)
    return float(bits) if bits.ndim == 0 else bits


def power_usage(precoders_i: np.ndarray, tx_distortion_i: np.ndarray):
    """Transmit power including the chain distortion overhead:
    tr((I + K Theta_tx) sum_l V^l V^l^H), K the precoder stack's length; a
    float, or one per member of a fleet's (B, K, N, d) stack."""
    gram_diag = np.einsum("...knd,...knd->...n", precoders_i, precoders_i.conj()).real
    return (gram_diag.sum(-1)
            + precoders_i.shape[-3] * (tx_distortion_i * gram_diag).sum(-1))


# ---------------------------------------------------------------------------
# scenario evaluators: channels g as the truth, cancellation against sic.
# (g, sic) = (h_est, h_est) is the design view, (h, h_est) the true model.
# ---------------------------------------------------------------------------

def identity_weights(config: SystemConfig):
    return [np.broadcast_to(np.eye(config.streams[i], dtype=complex),
                            (config.subcarriers, config.streams[i],
                             config.streams[i])).copy()
            for i in DIRECTIONS]


def mse_stacks(precoders, decoders, g, sigmas):
    """MSE matrices [ (..., K, d_i, d_i) ]_i of every (i, k) on channels g or
    a scenario stack, from their covariances sigmas (covariance_stacks)."""
    if g[(0, 0)].ndim > decoders[0].ndim:    # a scenario axis the members lack
        precoders, decoders = ([a[..., None, :, :, :] for a in x] for x in (precoders, decoders))
    return [mse_matrix(decoders[i], precoders[i], sigmas[i], g[(i, i)]) for i in DIRECTIONS]


def _design_objective(precoders, decoders, mse_weights, shares, g, sigmas):
    """sum_s shares[s] sum_i sum_k tr(S_i^k E_i^k) over a scenario stack:
    (S,) scenario weights, channels g and covariances sigmas with a leading
    S axis, or one sum per member of a fleet, (B, S) weights.

    Terms are added one at a time, left to right, in (scenario, i, k) order,
    the order the recorded objective traces and worst-case values have
    always used; + 0.0 turns a sum of -0.0 terms into 0.0, as a running
    total started at 0.0 does."""
    traces = np.concatenate([np.trace(w[..., None, :, :, :] @ e, axis1=-2, axis2=-1).real
                             for w, e in zip(mse_weights, mse_stacks(precoders, decoders,
                                                                     g, sigmas))], -1)
    terms = shares[..., None] * traces                    # (..., S, 2 K)
    return np.add.accumulate(terms.reshape(terms.shape[:-2] + (-1,)), -1)[..., -1] + 0.0


def rate_surrogate(errors, mse_weights, config: SystemConfig):
    """sum_i omega_i sum_k (ln det S_i^k + d_i - tr(S_i^k E_i^k)), natural log,
    summed term by term, left to right, in (i, k) order; one per member of a
    fleet.

    Raises numpy.linalg.LinAlgError if a weight matrix is not positive definite.
    """
    terms = []
    for i in DIRECTIONS:
        sign, logdet = np.linalg.slogdet(mse_weights[i])
        if np.any(sign.real <= 0):
            raise np.linalg.LinAlgError("MSE weight matrix is not positive definite")
        fit = np.trace(mse_weights[i] @ errors[i], axis1=-2, axis2=-1).real
        terms.append(config.rate_weights[i] * (logdet + config.streams[i] - fit))
    return np.add.accumulate(np.concatenate(terms, -1), -1)[..., -1] + 0.0


def weighted_rate(precoders, sigmas, g, config: SystemConfig):
    """sum_i omega_i sum_k rate_i^k in bits per channel use, on channels g
    with their covariances sigmas; one per member of a fleet."""
    return sum(config.rate_weights[i]
               * np.sum(rate(precoders[i], sigmas[i], g[(i, i)]), -1)
               for i in DIRECTIONS)


def evaluate_design(design: TransceiverDesign, channels: ChannelRealization,
                    config: SystemConfig) -> PerformanceReport:
    """True-model evaluation: actual channels, actual distortion profile, SIC
    against the estimated channel (the residual shows up as extra interference).

    MSE uses the design's own decoders (identity weights); rates assume the
    desired-link receiver can realize the MMSE front end for the true channel.
    """
    v, h = design.precoders, channels.h
    sigmas = covariance_stacks(v, h, config, _sic_residual(h, channels.h_est))
    errors = mse_stacks(v, design.decoders, h, sigmas)
    return PerformanceReport(
        mse=np.array([np.trace(e, axis1=1, axis2=2).real for e in errors]),
        rate_bits=np.array([rate(v[i], sigmas[i], h[(i, i)]) for i in DIRECTIONS]),
        power=np.array([power_usage(v[i], config.tx_distortion[i]) for i in DIRECTIONS]))
