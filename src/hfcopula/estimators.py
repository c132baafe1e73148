"""Plug-in copula estimation from a discretely sampled path.

A path observed at times i/n is reduced to prefix sums of squared and
fourth-power increments once; realized variation, quarticity, the plug-in
copula estimate, its feasible asymptotic variance, and studentized
confidence intervals are then O(1) per query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .kernel import grad_psi, psi

__all__ = [
    "SampledPath",
    "CopulaQuery",
    "CopulaEstimate",
    "realized_variation",
    "quarticity",
    "copula_estimate",
    "variance_estimate",
    "boundary_aware_interval",
    "variance_quadratic_form",
    "interval_bounds",
]

# half-ulp guard so that t = k/n computed in floating point truncates to k
_INDEX_GUARD = 1e-9


def _grid_index(n: int, t: float) -> int:
    """floor(n*t), guarding against floating-point misrounding."""
    return int(math.floor(n * t + _INDEX_GUARD))


# bool is an int subclass, but neither True nor False is a count or a real
def _is_int(val) -> bool:
    return isinstance(val, (int, np.integer)) and not isinstance(val, bool)


def _is_real(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _check_pos_int(name: str, val, minimum: int = 1) -> int:
    if not (_is_int(val) and val >= minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {val!r}")
    return int(val)


def _check_real(name: str, val, lo: float = -math.inf, hi: float = math.inf,
                closed: bool = False) -> float:
    """``val`` as a float, if it is a finite real in (lo, hi), or [lo, hi] if ``closed``."""
    if not (_is_real(val) and math.isfinite(val)
            and (lo <= val <= hi if closed else lo < val < hi)):
        bounds = f"[{lo}, {hi}]" if closed else f"({lo}, {hi})"
        raise ValueError(f"{name} must be a finite real in {bounds}, got {val!r}")
    return float(val)


@dataclass(frozen=True, eq=False)
class SampledPath:
    """Path values X_{i/n}, i = 0..floor(n*horizon), with cached prefix sums."""

    values: np.ndarray
    n: int
    horizon: float

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must all be finite")
        object.__setattr__(self, "n", _check_pos_int("n", self.n))
        _check_real("horizon", self.horizon, lo=0.0)
        expected = _grid_index(self.n, self.horizon) + 1
        if vals.size != expected:
            raise ValueError(
                f"values has length {vals.size}, expected floor(n*horizon)+1 = {expected}"
            )
        d = np.diff(vals)
        sq = np.concatenate(([0.0], np.cumsum(d * d)))
        q4 = np.concatenate(([0.0], np.cumsum(d ** 4)))
        object.__setattr__(self, "_sq_prefix", sq)
        object.__setattr__(self, "_q4_prefix", q4)

    def index_at(self, t: float) -> int:
        """Grid index floor(n*t), guarding against floating-point misrounding."""
        if not (isinstance(t, (int, float)) and math.isfinite(t)):
            raise ValueError(f"time must be a finite real, got {t!r}")
        if t < 0.0 or t > self.horizon + _INDEX_GUARD / self.n:
            raise ValueError(f"time {t!r} outside [0, {self.horizon!r}]")
        return min(_grid_index(self.n, t), self.values.size - 1)


@dataclass(frozen=True)
class CopulaQuery:
    """One (s, t, u, v) evaluation request against a path."""

    s: float
    t: float
    u: float
    v: float

    def __post_init__(self) -> None:
        _check_real("s", self.s, lo=0.0)
        _check_real("t", self.t, lo=0.0)
        _check_real("u", self.u, lo=0.0, hi=1.0, closed=True)
        _check_real("v", self.v, lo=0.0, hi=1.0, closed=True)


@dataclass(frozen=True)
class CopulaEstimate:
    """Point estimate with feasible variance and a studentized interval."""

    c_hat: float
    v_hat: float
    ci_lo: float
    ci_hi: float
    level: float

    def __post_init__(self) -> None:
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must lie in (0, 1), got {self.level!r}")
        if not self.v_hat >= 0.0:
            raise ValueError(f"v_hat must be >= 0, got {self.v_hat!r}")
        if not (0.0 <= self.ci_lo <= self.c_hat <= self.ci_hi <= 1.0):
            raise ValueError(
                f"interval must satisfy 0 <= ci_lo <= c_hat <= ci_hi <= 1, got "
                f"({self.ci_lo!r}, {self.c_hat!r}, {self.ci_hi!r})"
            )


def realized_variation(path: SampledPath, t: float) -> float:
    """Sum of squared increments over grid times up to t."""
    return float(path._sq_prefix[path.index_at(t)])


def quarticity(path: SampledPath, t: float) -> float:
    """(n/3) times the sum of fourth-power increments up to t."""
    return float(path.n / 3.0 * path._q4_prefix[path.index_at(t)])


def copula_estimate(path: SampledPath, q: CopulaQuery) -> float:
    """Plug-in copula value: the kernel evaluated at the realized variations."""
    return psi(realized_variation(path, q.s), realized_variation(path, q.t), q.u, q.v)


def variance_quadratic_form(g_t: float, g_s: float, q_t: float, q_s: float) -> float:
    """2 * (g_t, g_s) M (g_t, g_s)' with M = [[q_t, q_s], [q_s, q_s]].

    Requires q_t >= q_s >= 0 (quarticity is nondecreasing), which makes M
    positive semidefinite; the expansion below is a sum of nonnegative
    terms, so the result cannot go negative through rounding.
    """
    if not (q_t >= q_s >= 0.0):
        raise ValueError(f"need q_t >= q_s >= 0, got q_t={q_t!r}, q_s={q_s!r}")
    g_sum = g_t + g_s
    return 2.0 * (q_s * g_sum * g_sum + (q_t - q_s) * g_t * g_t)


def variance_estimate(path: SampledPath, q: CopulaQuery) -> float:
    """Feasible asymptotic variance of the plug-in estimate at query q.

    The kernel gradient is taken at the realized-variation pair and paired
    with quarticities: the d/dt component with the larger time's
    quarticity.  Its errors come from :func:`~hfcopula.kernel.grad_psi`:
    ValueError unless u and v lie strictly inside (0, 1), NearDiagonalError
    when the realized variations (nearly) coincide, and ValueError when the
    smaller one is zero.
    """
    t_lo = min(q.s, q.t)
    t_hi = max(q.s, q.t)
    rv_lo = realized_variation(path, t_lo)
    rv_hi = realized_variation(path, t_hi)
    g_t, g_s = grad_psi(rv_lo, rv_hi, q.u, q.v)
    q_lo = quarticity(path, t_lo)
    q_hi = quarticity(path, t_hi)
    return variance_quadratic_form(g_t, g_s, q_hi, q_lo)


def interval_bounds(c_hat, v_hat, n: int, u, v, level: float):
    """Studentized interval endpoints clipped to the Frechet bounds.

    Returns (center, lo, hi) where the center is c_hat clipped into the
    Frechet box (the kernel can overshoot it by its rounding).  ``c_hat``,
    ``v_hat``, ``u`` and ``v`` may be broadcastable arrays; each element
    gets the same arithmetic as a scalar call.
    """
    fre_lo = np.maximum(u + v - 1.0, 0.0)
    fre_hi = np.minimum(u, v)
    center = np.clip(c_hat, fre_lo, fre_hi)
    half = ndtri(0.5 * (1.0 + level)) * np.sqrt(v_hat / n)
    return center, np.maximum(center - half, fre_lo), np.minimum(center + half, fre_hi)


def boundary_aware_interval(path: SampledPath, q: CopulaQuery, level: float) -> CopulaEstimate:
    """Plug-in estimate with a studentized confidence interval at ``level``.

    At u or v in {0, 1} the copula value is forced by the axioms and the
    estimator has no error there, so the interval collapses to a point and
    no gradient is needed.  A ``level`` outside (0, 1) raises ValueError
    from :class:`CopulaEstimate`.
    """
    c_hat = copula_estimate(path, q)
    if q.u in (0.0, 1.0) or q.v in (0.0, 1.0):
        return CopulaEstimate(c_hat=c_hat, v_hat=0.0, ci_lo=c_hat, ci_hi=c_hat, level=level)
    v_hat = variance_estimate(path, q)
    center, lo, hi = interval_bounds(c_hat, v_hat, path.n, q.u, q.v, level)
    return CopulaEstimate(c_hat=center, v_hat=v_hat, ci_lo=lo, ci_hi=hi, level=level)
