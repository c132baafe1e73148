"""Plug-in copula estimation from a discretely sampled path.

A path observed at times i/n is reduced to prefix sums of squared and
fourth-power increments once; realized variation, quarticity, the plug-in
copula estimate, its feasible asymptotic variance, and studentized
confidence intervals are then O(1) per query.  Each takes its times and
unit-square points as floats, giving a float, or as broadcastable arrays,
giving an array; :func:`boundary_aware_interval` composes them for a
column of queries, checked row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import _scalar_or_array, grad_psi, ndtri, psi

__all__ = [
    "SampledPath",
    "realized_variation",
    "quarticity",
    "copula_estimate",
    "variance_estimate",
    "interval_bounds",
    "boundary_aware_interval",
]

# half-ulp guard so that t = k/n computed in floating point truncates to k
_INDEX_GUARD = 1e-9


def _grid_index(n: int, t):
    """floor(n*t), guarding against floating-point misrounding.

    ``t`` is a real, giving an int, or an array of reals, giving an array
    of indices.
    """
    idx = np.floor(n * np.asarray(t, dtype=float) + _INDEX_GUARD)
    return int(idx) if idx.ndim == 0 else idx.astype(np.intp)


# bool is an int subclass, but neither True nor False is a count or a real
def _is_int(val) -> bool:
    return isinstance(val, (int, np.integer)) and not isinstance(val, bool)


def _is_real(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _check_pos_int(name: str, val, minimum: int = 1) -> int:
    if not (_is_int(val) and val >= minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {val!r}")
    return int(val)


def _check_real(name: str, val, lo: float = -math.inf, hi: float = math.inf) -> float:
    """``val`` as a float, if it is a finite real in (lo, hi)."""
    if not (_is_real(val) and math.isfinite(val) and lo < val < hi):
        raise ValueError(f"{name} must be a finite real in ({lo}, {hi}), got {val!r}")
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
        # the increments are squared, then squared again, in place; an
        # overflow is caught below: prefix sums never decrease, so all are
        # finite if the last one is
        sq, q4 = np.zeros(vals.size), np.zeros(vals.size)
        with np.errstate(over="ignore"):
            d = np.diff(vals)
            d *= d
            np.cumsum(d, out=sq[1:])
            d *= d
            np.cumsum(d, out=q4[1:])
        if not math.isfinite(q4[-1]):
            raise ValueError("values' fourth-power increments overflow; rescale the path")
        object.__setattr__(self, "_sq_prefix", sq)
        object.__setattr__(self, "_q4_prefix", q4)

    def index_at(self, t):
        """Grid index floor(n*t), guarding against floating-point misrounding.

        ``t`` is a real, giving an int, or an array of reals, giving an
        array of indices.  Booleans are not times.  The first time, in
        order, that is not finite or lies outside [0, horizon] raises
        ValueError.
        """
        arr = np.asarray(t)
        if arr.dtype.kind not in "iuf":
            raise ValueError(f"time must be a finite real, got {t!r}")
        arr = arr.astype(float, copy=False)
        inside = (arr >= 0.0) & (arr <= self.horizon + _INDEX_GUARD / self.n)
        if not np.all(inside):
            bad = arr[~inside][0].item()
            if not math.isfinite(bad):
                raise ValueError(f"time must be a finite real, got {bad!r}")
            raise ValueError(f"time {bad!r} outside [0, {self.horizon!r}]")
        return _scalar_or_array(np.minimum(_grid_index(self.n, arr), self.values.size - 1))


def realized_variation(path: SampledPath, t):
    """Sum of squared increments over grid times up to each time in ``t``."""
    return _scalar_or_array(path._sq_prefix[path.index_at(t)])


def quarticity(path: SampledPath, t):
    """(n/3) times the sum of fourth-power increments up to each time in ``t``."""
    return _scalar_or_array(path.n / 3.0 * path._q4_prefix[path.index_at(t)])


def copula_estimate(path: SampledPath, s, t, u, v):
    """Plug-in copula value: the kernel evaluated at the realized variations.

    ``s``, ``t``, ``u`` and ``v`` are floats or broadcastable arrays, as for
    :func:`~hfcopula.kernel.psi`, whose quadrature serves the whole call:
    interior elements agree with per-element calls within its 1e-14
    relative contract, and the exact branches to the bit.
    """
    return psi(realized_variation(path, s), realized_variation(path, t), u, v)


def variance_estimate(path: SampledPath, s, t, u, v):
    """Feasible asymptotic variance of the plug-in estimate at (s, t, u, v).

    The arguments are floats or broadcastable arrays, as for
    :func:`copula_estimate`.  The kernel gradient is taken at the
    realized-variation pair, earlier time first, and paired with
    quarticities: the d/dt component with the later time's quarticity.
    Both measures never decrease in time, so the smaller of each pair is
    the earlier time's.  The variance is 2 g'Mg with g = (d/dt, d/ds) and
    M = [[q_hi, q_lo], [q_lo, q_lo]], where q_hi >= q_lo >= 0 makes M
    positive semidefinite; it is expanded as a sum of nonnegative terms, so
    rounding cannot make it negative.  Past the times' checks, errors come
    from :func:`~hfcopula.kernel.grad_psi`: ValueError unless u and v lie
    strictly inside (0, 1), NearDiagonalError when the realized variations
    (nearly) coincide, and ValueError when the smaller one is zero.
    """
    rv_s, rv_t = realized_variation(path, s), realized_variation(path, t)
    q_s, q_t = quarticity(path, s), quarticity(path, t)
    g_t, g_s = grad_psi(np.minimum(rv_s, rv_t), np.maximum(rv_s, rv_t), u, v)
    q_lo, q_hi = np.minimum(q_s, q_t), np.maximum(q_s, q_t)
    g_sum = g_t + g_s
    return _scalar_or_array(2.0 * (q_lo * g_sum * g_sum + (q_hi - q_lo) * g_t * g_t))


def interval_bounds(c_hat, v_hat, n: int, u, v, level):
    """Studentized interval endpoints clipped to the Frechet bounds.

    Returns (center, lo, hi) where the center is c_hat clipped into the
    Frechet box (the kernel can overshoot it by its rounding).  Where u or
    v is 0 or 1 the copula value is forced by the axioms, so the interval
    is the point (c_hat, c_hat, c_hat), whatever ``v_hat`` is (NaN
    included).  ``c_hat``, ``v_hat``, ``u``, ``v`` and ``level`` may be
    broadcastable arrays; each element gets the same arithmetic as a scalar
    call, and scalars give numpy scalars.  A ``level`` outside (0, 1)
    raises ValueError before any quantile is taken.
    """
    levels = np.ravel(level)
    outside = ~((levels > 0.0) & (levels < 1.0))
    if np.any(outside):
        raise ValueError(f"level must lie in (0, 1), got {float(levels[outside][0])!r}")
    fre_lo = np.maximum(u + v - 1.0, 0.0)
    fre_hi = np.minimum(u, v)
    center = np.clip(c_hat, fre_lo, fre_hi)
    half = ndtri(0.5 * (1.0 + np.asarray(level, dtype=float))) * np.sqrt(v_hat / n)
    edge = (u == 0.0) | (u == 1.0) | (v == 0.0) | (v == 1.0)
    return tuple(np.where(edge, c_hat, end)[()] for end in
                 (center, np.maximum(center - half, fre_lo), np.minimum(center + half, fre_hi)))


def boundary_aware_interval(path: SampledPath, s, t, u, v, level) -> dict[str, np.ndarray]:
    """Plug-in estimates with studentized confidence intervals, one row per query.

    ``s``, ``t``, ``u``, ``v`` and ``level`` are floats or broadcastable 1-d
    arrays, one element per query.  Returns the 1-d columns ``c_hat``,
    ``v_hat``, ``ci_lo``, ``ci_hi``, ``rv_s`` and ``rv_t``: those of
    :func:`copula_estimate`, :func:`variance_estimate` and
    :func:`realized_variation` on the whole columns, with the intervals of
    :func:`interval_bounds`.  At u or v in {0, 1} the copula value is forced
    by the axioms: the variance is not estimated there, v_hat is 0, and
    :func:`interval_bounds` gives the point interval.

    Every row is checked first: times real and in (0, horizon], u and v in
    [0, 1], level in (0, 1); booleans and NaN fail.  The first failing row,
    and in it the first failing field, raises ValueError.  Then the
    gradient's domain is checked in row order (ValueError, or
    NearDiagonalError where the realized variations coincide), and last the
    output: v_hat >= 0 and 0 <= ci_lo <= c_hat <= ci_hi <= 1 (ValueError).
    """
    # per field: the test its values must pass, and the interval it states
    time = (lambda x: (x > 0.0) & (x <= path.horizon), f"(0, horizon] = (0, {path.horizon!r}]")
    unit = (lambda x: (x >= 0.0) & (x <= 1.0), "[0, 1]")
    checks = {"s": time, "t": time, "u": unit, "v": unit,
              "level": (lambda x: (x > 0.0) & (x < 1.0), "(0, 1)")}
    cols = dict(zip(checks, np.broadcast_arrays(*map(np.atleast_1d, (s, t, u, v, level)))))
    bad = np.array([~checks[name][0](col.astype(float)) if col.dtype.kind in "iuf"
                    else np.ones(col.shape, bool) for name, col in cols.items()])
    if np.any(bad):
        row = int(np.flatnonzero(bad.any(axis=0))[0])
        name = list(checks)[int(np.argmax(bad[:, row]))]
        raise ValueError(f"query row {row + 1}: {name} must be a finite real in "
                         f"{checks[name][1]}, got {cols[name][row].item()!r}")
    s, t, u, v, level = (col.astype(float) for col in cols.values())

    c_hat = copula_estimate(path, s, t, u, v)
    v_hat = np.zeros(c_hat.shape)
    inner = (u > 0.0) & (u < 1.0) & (v > 0.0) & (v < 1.0)
    v_hat[inner] = variance_estimate(path, s[inner], t[inner], u[inner], v[inner])
    c_hat, ci_lo, ci_hi = interval_bounds(c_hat, v_hat, path.n, u, v, level)
    valid = ((v_hat >= 0.0) & (0.0 <= ci_lo) & (ci_lo <= c_hat) & (c_hat <= ci_hi)
             & (ci_hi <= 1.0))
    if not np.all(valid):
        i = int(np.flatnonzero(~valid)[0])
        raise ValueError(
            f"query row {i + 1}: need v_hat >= 0 and 0 <= ci_lo <= c_hat <= ci_hi <= 1, got "
            f"v_hat={v_hat[i].item()!r}, (ci_lo, c_hat, ci_hi) = "
            f"({ci_lo[i].item()!r}, {c_hat[i].item()!r}, {ci_hi[i].item()!r})"
        )
    return {"c_hat": c_hat, "v_hat": v_hat, "ci_lo": ci_lo, "ci_hi": ci_hi,
            "rv_s": realized_variation(path, s), "rv_t": realized_variation(path, t)}
