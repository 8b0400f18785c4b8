"""Small shared helpers: dB conversion, complex RNG draws, linear algebra glue."""

from __future__ import annotations

import numpy as np

LN2 = float(np.log(2.0))


class ConfigError(ValueError):
    """Invalid configuration or experiment spec (CLI exit code 2)."""


class DualSearchError(RuntimeError):
    """A scalar dual search failed to bracket/converge (CLI exit code 3)."""


def db_to_linear(db):
    return 10.0 ** (np.asarray(db, dtype=float) / 10.0)


def linear_to_db(x):
    return 10.0 * np.log10(np.asarray(x, dtype=float))


def format_db(x) -> str:
    return f"{float(linear_to_db(x)):.6f}"


def parse_level(value) -> float:
    """Parse a linear power-like quantity; strings with a dB suffix convert as 10^(x/10)."""
    if isinstance(value, str):
        text = value.strip().replace("−", "-")  # unicode minus
        if text.lower().endswith("db"):
            return float(db_to_linear(float(text[:-2].strip())))
        return float(text)
    return float(value)


def crandn(rng: np.random.Generator, shape, var=1.0):
    """Circularly-symmetric complex Gaussian, E|x|^2 = var."""
    out = np.empty(shape, dtype=complex)
    out.real = rng.standard_normal(shape)
    out.imag = rng.standard_normal(shape)
    out *= np.sqrt(np.asarray(var, dtype=float) / 2.0)
    return out


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-2, -1)


def herm(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + dagger(a))


def vec(a: np.ndarray) -> np.ndarray:
    # column-major so that vec(A X B) = (B^T kron A) vec(X)
    return a.reshape(-1, order="F")


def unvec(x: np.ndarray, rows: int, cols: int) -> np.ndarray:
    return x.reshape(rows, cols, order="F")


def stabilized(sigma: np.ndarray) -> np.ndarray:
    """Relative ridge 1e-12*tr/M before inversion; a safety net, not a crutch."""
    m = sigma.shape[-1]
    ridge = 1e-12 * np.trace(sigma, axis1=-2, axis2=-1).real / m
    return sigma + ridge[..., None, None] * np.eye(m)


_ROOT_ITERS = 100


def _root_search(f, lo, hi, target, tol):
    """x in (lo, hi] with |f(x) - target| <= tol, for a decreasing f with
    f(lo) > target >= f(hi).

    Regula falsi with the Illinois modification runs on f^(-1/2), which is
    nearly linear for the sums of inverse squares searched here; a candidate
    outside the bracket falls back to bisection. A bracket that no float can
    split returns its upper end, the root to machine precision.
    """
    goal = target ** -0.5

    def residual(value):
        with np.errstate(divide="ignore"):
            return np.float64(value) ** -0.5 - goal

    f_hi = f(hi)
    if f_hi >= target - tol:
        return hi
    r_lo, r_hi = residual(f(lo)), residual(f_hi)
    kept = 0                          # +1: lo kept last step, -1: hi kept
    for _ in range(_ROOT_ITERS):
        x = lo - r_lo * (hi - lo) / (r_hi - r_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                return hi
        value = f(x)
        if abs(value - target) <= tol:
            return x
        if value > target:
            lo, r_lo = x, residual(value)
            if kept < 0:
                r_hi *= 0.5
            kept = -1
        else:
            hi, r_hi = x, residual(value)
            if kept > 0:
                r_lo *= 0.5
            kept = 1
    raise DualSearchError(f"scalar root search did not reach tolerance {tol:g} "
                          f"in {_ROOT_ITERS} steps")


def _rational_root(gap, weight, target, tol):
    """t >= 0 with |sum_n weight_n / (gap_n + t)^2 - target| <= tol, for
    gap >= 0, weight >= 0 and the sum above target at t = 0. Every gap is
    nonnegative, so the sum is at most sum(weight) / t^2 and the root lies
    below sqrt(sum(weight) / target)."""
    # zero-weight terms can sit exactly at t = 0 with a zero gap (0/0)
    keep = weight > 0
    gap, weight = gap[keep], weight[keep]

    def f(t):
        # a zero or denormal gap gives inf, which only means "below the root"
        with np.errstate(divide="ignore", over="ignore"):
            return float((weight / (gap + t) ** 2).sum())

    return _root_search(f, 0.0, float(np.sqrt(weight.sum() / target)), target, tol)


def rng_from(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
