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


def parse_level(value) -> float:
    """Parse a linear power-like quantity; strings with a dB suffix convert as 10^(x/10)."""
    if isinstance(value, str):
        text = value.strip().replace("−", "-")  # unicode minus
        if text.lower().endswith("db"):
            return float(db_to_linear(float(text[:-2].strip())))
        return float(text)
    return float(value)


def as_count(value, name: str) -> int:
    """A whole-number count as an int: 4 and 4.0 pass, 2.5 is a ConfigError."""
    if isinstance(value, (float, np.floating)) and not float(value).is_integer():
        raise ConfigError(f"{name} must be a whole number, got {value!r}")
    return int(value)


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


def stabilized(sigma: np.ndarray) -> np.ndarray:
    """Relative ridge 1e-12*tr/M before inversion; a safety net, not a crutch."""
    m = sigma.shape[-1]
    ridge = 1e-12 * np.trace(sigma, axis1=-2, axis2=-1).real / m
    return sigma + ridge[..., None, None] * np.eye(m)


_ROOT_ITERS = 100


def _root_search(f, lo, hi, target, tol):
    """x in (lo, hi] with |f(x) - target| <= tol per element of (F,) arrays
    of brackets, targets and tolerances (scalars broadcast); f maps an (F,)
    array of points to their values, each decreasing, with f(lo) > target >=
    f(hi). A scalar search is the batch of one.

    Regula falsi with the Illinois modification runs on f^(-1/2), nearly
    linear for the sums of inverse squares searched here; a candidate outside
    its bracket falls back to bisection, and a bracket no float can split
    returns its upper end. Each step evaluates f once for the batch, and each
    element stops at its own tolerance. The bracket updates are scalar float
    arithmetic: on batches this small numpy calls cost more than the
    arithmetic, and numpy's SIMD pow can round apart from the C library's.
    """
    shape = np.zeros(np.size(hi))
    lo, hi, target, tol = ((np.asarray(a, dtype=float) + shape).tolist()
                           for a in (lo, hi, target, tol))
    x = list(hi)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        value = f(np.array(x)).tolist()
        live = [e for e, v in enumerate(value) if not v >= target[e] - tol[e]]
        goal = [t ** -0.5 for t in target]
        r_hi = [np.float64(v) ** -0.5 - g for v, g in zip(value, goal)]
        r_lo = [np.float64(v) ** -0.5 - g for v, g in zip(f(np.array(lo)).tolist(), goal)]
        kept = [0] * len(x)               # +1: lo kept last step, -1: hi kept
        for _ in range(_ROOT_ITERS):
            stepping = []
            for e in live:
                lo_e, hi_e = lo[e], hi[e]
                x[e] = lo_e - r_lo[e] * (hi_e - lo_e) / (r_hi[e] - r_lo[e])
                if not lo_e < x[e] < hi_e:
                    x[e] = 0.5 * (lo_e + hi_e)
                    if not lo_e < x[e] < hi_e:
                        x[e] = hi_e
                        continue
                stepping.append(e)
            if not stepping:
                return np.array(x)
            value = f(np.array(x)).tolist()
            live = [e for e in stepping if not abs(value[e] - target[e]) <= tol[e]]
            for e in live:
                r = np.float64(value[e]) ** -0.5 - goal[e]
                if value[e] > target[e]:
                    lo[e], r_lo[e] = x[e], r
                    if kept[e] < 0:
                        r_hi[e] *= 0.5
                    kept[e] = -1
                else:
                    hi[e], r_hi[e] = x[e], r
                    if kept[e] > 0:
                        r_lo[e] *= 0.5
                    kept[e] = 1
    if live:
        raise DualSearchError(f"root search did not reach tolerance "
                              f"{min(tol[e] for e in live):g} in {_ROOT_ITERS} steps")
    return np.array(x)


def _rational_root(gap, weight, target, tol):
    """(F,) roots t >= 0 of sum_n weight_n / (gap_n + t)^2 = target within tol,
    per row of (F, n) arrays gap >= 0 and weight >= 0 whose sums exceed target
    at t = 0. Every gap is nonnegative, so a row's sum is at most
    sum(weight) / t^2 and its root lies below sqrt(sum(weight) / target)."""
    # zero-weight terms add nothing; a unit gap keeps them from 0/0 at t = 0
    gap = np.where(weight > 0, gap, 1.0)

    def f(t):
        # a zero or denormal gap gives inf, which only means "below the root"
        return (weight / (gap + t[:, None]) ** 2).sum(axis=1)

    hi = np.sqrt(weight.sum(axis=1) / target)
    return _root_search(f, np.zeros(hi.shape), hi, target, tol)


def rng_from(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
