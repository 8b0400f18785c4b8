"""Small shared helpers: dB conversion, complex RNG draws, linear algebra glue,
and the secular-equation read-off, one Newton root search and one hard-case
rule, shared by the precoder's power dual and the worst-case oracle."""

from __future__ import annotations

import math

import numpy as np

LN2 = float(np.log(2.0))


class ConfigError(ValueError):
    """Invalid configuration or experiment spec (CLI exit code 2)."""


class DualSearchError(RuntimeError):
    """A scalar dual search failed to converge (CLI exit code 3)."""


# the numerical failures a design can end in (CLI exit code 3)
_NUMERICAL_FAILURES = (DualSearchError, np.linalg.LinAlgError, FloatingPointError)


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
    """A whole-number count as an int: 4 and 4.0 pass, 2.5 and True are a
    ConfigError."""
    if isinstance(value, (bool, np.bool_)) or (
            isinstance(value, (float, np.floating)) and not float(value).is_integer()):
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


def _rows(x, n):
    """A scalar or an (n,) array as a list of n floats."""
    return x.tolist() if isinstance(x, np.ndarray) and x.ndim else [float(x)] * n


def _secular(gap, weight, t):
    """f(t) = sum_n weight_n / (gap_n + t)^2 per row of (F, n) arrays at (F,)
    points, and s(t) = sum_n weight_n / (gap_n + t)^3 = -f'(t) / 2, as lists."""
    shifted = gap + np.array(t)[:, None]
    terms = weight / (shifted * shifted)
    return np.add.reduce(terms, 1).tolist(), np.add.reduce(terms / shifted, 1).tolist()


def _rational_root(gap, weight, target, tol, start=0.0):
    """(F,) roots t >= 0 of f(t) = sum_n weight_n / (gap_n + t)^2 = target
    within tol, per row of (F, n) arrays gap >= 0 and weight >= 0 whose sums
    exceed target at t = 0; targets, tolerances and starts are (F,) arrays or
    scalars.

    Newton's method on f^(-1/2), the classic secular-equation solve of trust
    region methods (More and Sorensen 1983): f^(-1/2) is concave and
    increasing, so from any start one step lands left of the root and the
    steps after it climb to the root monotonically. Each row starts at
    max(start, b, 0), where b = max_n sqrt(weight_n / target) - gap_n is the
    largest one-term bound: f(b) >= target, so b lies left of the root, and it
    keeps every positive-weight term finite when a gap is 0. Each step
    evaluates f and f' once for the batch; the step control is scalar float
    arithmetic, which costs less than numpy calls on batches this small. A
    row stops at its tolerance, when no float can take its step, or when
    rounding carries a step after the first past the root; after _ROOT_ITERS
    steps the search raises DualSearchError.
    """
    # zero-weight terms add nothing; a unit gap keeps them from 0/0 at t = 0
    gap = np.where(weight > 0, gap, 1.0)
    rows = len(gap)
    bound = np.maximum.reduce(np.sqrt(weight.T / target) - gap.T, 0).tolist()
    floor = [max(b, 0.0) for b in bound]
    t = [max(lo, x) for lo, x in zip(floor, _rows(start, rows))]
    goal, tol = _rows(target, rows), _rows(tol, rows)
    live = range(rows)
    for step in range(_ROOT_ITERS + 1):
        f, s = _secular(gap, weight, t)
        live = [e for e in live if abs(f[e] - goal[e]) > tol[e]
                and not (step and f[e] < goal[e])]
        if step == _ROOT_ITERS or not live:
            break
        moving = []
        for e in live:
            x = max(t[e] + f[e] * (math.sqrt(f[e] / goal[e]) - 1.0) / s[e], floor[e])
            if x != t[e]:
                t[e] = x
                moving.append(e)
        live = moving
    if live:
        raise DualSearchError(f"root search did not reach tolerance "
                              f"{min(tol[e] for e in live):g} in {_ROOT_ITERS} steps")
    return np.array(t)


def _secular_solve(lam, coeff, budget, tol, start):
    """The read-off shared by the power dual and the worst-case oracle: per row
    of a (F, K, n) spectrum lam >= 0, (F, K, n, d) right-hand sides coeff in
    its eigenbasis and (F,) budgets, tolerances and starts, min sum lam |x|^2
    - 2 Re <coeff, x> s.t. ||x||^2 <= budget. Returns x = (Lambda + iota)^(-1)
    coeff, iota >= 0 and Lambda + iota, inf where a term is dropped.

    iota = 0 where x at iota = 0, read off the eigenvalues above a relative
    floor, fits the budget (the hard case of More and Sorensen 1983): weights
    below 1e-13 of the total are roundoff and count as zero, but a live weight
    on a dropped eigenvalue never fits. The other rows with budget > 0 and
    coeff != 0 take iota from _rational_root; the rest return x = 0, iota = 0.
    """
    rows, size = len(lam), lam[0].size
    weight = np.add.reduce((coeff * coeff.conj()).real, 3)
    total = np.add.reduce(weight.reshape(rows, size), 1)
    live = weight > total[:, None, None] * 1e-13
    kept = lam > 1e-14 * np.maximum(lam.max((1, 2)), 1.0)[:, None, None]
    power = np.divide(weight, lam ** 2, out=np.zeros(weight.shape), where=kept)
    some = (budget > 0) & (total > 0)
    fits = some & ~(live & ~kept).any((1, 2)) & (
        np.add.reduce(power.reshape(rows, size), 1) <= budget)
    root, iota = some & ~fits, np.zeros(rows)
    if root.any():
        root = slice(None) if root.all() else root
        iota[root] = _rational_root(lam[root].reshape(-1, size),
                                    weight[root].reshape(-1, size), budget[root],
                                    tol[root], start[root])
    shifted = np.where(kept | (iota > 0)[:, None, None], lam + iota[:, None, None], np.inf)
    return coeff / shifted[..., None] * some[:, None, None, None], iota, shifted


def rng_from(seed, bit_generator=None) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed if bit_generator is None else bit_generator(seed))
