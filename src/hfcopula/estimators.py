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

from .kernel import grad_psi, ndtri, psi

__all__ = [
    "SampledPath",
    "CopulaQuery",
    "CopulaEstimate",
    "realized_variation",
    "quarticity",
    "copula_estimate",
    "variance_estimate",
    "boundary_aware_interval",
    "estimate_columns",
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
        # an overflow is caught below: prefix sums never decrease, so all
        # are finite if the last one is
        with np.errstate(over="ignore"):
            d = np.diff(vals)
            d2 = d * d
            sq = np.concatenate(([0.0], np.cumsum(d2)))
            q4 = np.concatenate(([0.0], np.cumsum(d2 * d2)))
        if not math.isfinite(q4[-1]):
            raise ValueError("values' fourth-power increments overflow; rescale the path")
        object.__setattr__(self, "_sq_prefix", sq)
        object.__setattr__(self, "_q4_prefix", q4)

    def index_at(self, t: float) -> int:
        """Grid index floor(n*t), guarding against floating-point misrounding."""
        if not (isinstance(t, (int, float)) and math.isfinite(t)):
            raise ValueError(f"time must be a finite real, got {t!r}")
        if t < 0.0 or t > self.horizon + _INDEX_GUARD / self.n:
            raise ValueError(f"time {t!r} outside [0, {self.horizon!r}]")
        return min(_grid_index(self.n, t), self.values.size - 1)

    def indices_at(self, t) -> np.ndarray:
        """:meth:`index_at` of each time in the array ``t``, with the same arithmetic."""
        t = np.asarray(t, dtype=float)
        inside = (t >= 0.0) & (t <= self.horizon + _INDEX_GUARD / self.n)
        if not np.all(inside):
            self.index_at(float(t[~inside][0]))  # raises, with the scalar message
        idx = np.floor(self.n * t + _INDEX_GUARD).astype(np.intp)
        return np.minimum(idx, self.values.size - 1)


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
    """2 * (g_t, g_s) M (g_t, g_s)' with M = [[q_t, q_s], [q_s, q_s]], elementwise.

    Requires q_t >= q_s >= 0 (quarticity is nondecreasing), which makes M
    positive semidefinite; the expansion below is a sum of nonnegative
    terms, so the result cannot go negative through rounding.
    """
    if not np.all((q_t >= q_s) & (q_s >= 0.0)):
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


def interval_bounds(c_hat, v_hat, n: int, u, v, level):
    """Studentized interval endpoints clipped to the Frechet bounds.

    Returns (center, lo, hi) where the center is c_hat clipped into the
    Frechet box (the kernel can overshoot it by its rounding).  ``c_hat``,
    ``v_hat``, ``u``, ``v`` and ``level`` may be broadcastable arrays; each
    element gets the same arithmetic as a scalar call.  A ``level`` outside
    (0, 1) raises ValueError before any quantile is taken.
    """
    levels = np.ravel(level)
    outside = ~((levels > 0.0) & (levels < 1.0))
    if np.any(outside):
        raise ValueError(f"level must lie in (0, 1), got {float(levels[outside][0])!r}")
    fre_lo = np.maximum(u + v - 1.0, 0.0)
    fre_hi = np.minimum(u, v)
    center = np.clip(c_hat, fre_lo, fre_hi)
    half = ndtri(0.5 * (1.0 + np.asarray(level, dtype=float))) * np.sqrt(v_hat / n)
    return center, np.maximum(center - half, fre_lo), np.minimum(center + half, fre_hi)


def estimate_columns(path: SampledPath, s, t, u, v, level) -> dict[str, np.ndarray]:
    """Plug-in estimates with studentized intervals, for many queries in one pass.

    ``s``, ``t``, ``u``, ``v`` and ``level`` are floats or broadcastable 1-d
    arrays, one element per query.  Returns the 1-d columns ``c_hat``,
    ``v_hat``, ``ci_lo``, ``ci_hi``, ``rv_s`` and ``rv_t``: the realized
    variations index the path's prefix sums, the kernel and its gradient
    take them as arrays, and the intervals are those of
    :func:`interval_bounds`.  At u or v in {0, 1} the copula value is forced
    by the axioms, so the row is exact, with v_hat = 0 and a point interval.

    Errors are those of a row-by-row loop, and the first failing row decides
    them: :meth:`SampledPath.indices_at` for the times,
    :func:`~hfcopula.kernel.grad_psi` for the gradient's domain (ValueError,
    or NearDiagonalError where the realized variations coincide), and
    :class:`CopulaEstimate` for the level and the interval.
    """
    s, t, u, v, level = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(a, dtype=float)) for a in (s, t, u, v, level)))
    i_s = path.indices_at(s)
    i_t = path.indices_at(t)
    rv_s = path._sq_prefix[i_s]
    rv_t = path._sq_prefix[i_t]
    c_hat = psi(rv_s, rv_t, u, v)
    v_hat = np.zeros(c_hat.shape)
    ci_lo = c_hat.copy()
    ci_hi = c_hat.copy()
    inner = (u > 0.0) & (u < 1.0) & (v > 0.0) & (v < 1.0)
    if np.any(inner):
        # the d/dt component pairs with the later time's quarticity
        i_lo = np.minimum(i_s, i_t)[inner]
        i_hi = np.maximum(i_s, i_t)[inner]
        g_t, g_s = grad_psi(path._sq_prefix[i_lo], path._sq_prefix[i_hi], u[inner], v[inner])
        q4 = path._q4_prefix
        v_hat[inner] = variance_quadratic_form(g_t, g_s, path.n / 3.0 * q4[i_hi],
                                               path.n / 3.0 * q4[i_lo])
        c_hat[inner], ci_lo[inner], ci_hi[inner] = interval_bounds(
            c_hat[inner], v_hat[inner], path.n, u[inner], v[inner], level[inner])
    valid = ((level > 0.0) & (level < 1.0) & (v_hat >= 0.0) & (0.0 <= ci_lo)
             & (ci_lo <= c_hat) & (c_hat <= ci_hi) & (ci_hi <= 1.0))
    if not np.all(valid):
        i = int(np.flatnonzero(~valid)[0])
        # raises, with the row's values
        CopulaEstimate(c_hat=float(c_hat[i]), v_hat=float(v_hat[i]), ci_lo=float(ci_lo[i]),
                       ci_hi=float(ci_hi[i]), level=float(level[i]))
    return {"c_hat": c_hat, "v_hat": v_hat, "ci_lo": ci_lo, "ci_hi": ci_hi,
            "rv_s": rv_s, "rv_t": rv_t}


def boundary_aware_interval(path: SampledPath, q: CopulaQuery, level: float) -> CopulaEstimate:
    """Plug-in estimate with a studentized confidence interval at ``level``.

    The one-row case of :func:`estimate_columns`: at u or v in {0, 1} the
    interval collapses to the exact value, and a ``level`` outside (0, 1)
    raises ValueError.
    """
    est = estimate_columns(path, q.s, q.t, q.u, q.v, level)
    return CopulaEstimate(c_hat=float(est["c_hat"][0]), v_hat=float(est["v_hat"][0]),
                          ci_lo=float(est["ci_lo"][0]), ci_hi=float(est["ci_hi"][0]),
                          level=level)
