"""Brownian copula kernel and its temporal gradient.

The kernel psi(s, t; u, v) is the copula of a Brownian motion observed at
two times, as a function of its quadratic-variation clock values at those
times.  All case branches (diagonal, zero times, unit-square boundary) are
resolved here so that callers never feed invalid arguments to the normal
quantile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from .gaussmath import (
    QuadratureConfig,
    QuadratureError,
    integrate,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)

__all__ = [
    "TimePair",
    "UnitPair",
    "KernelConfig",
    "NearDiagonalError",
    "DEFAULT_KERNEL",
    "psi",
    "grad_psi",
    "psi_grid",
    "grad_psi_grid",
    "clock_angle",
    "uv_cells",
    "psi_difference",
]

# below this the quantile is treated as -inf and the integrand as its limit
_W_FLOOR = 1e-300


class NearDiagonalError(ValueError):
    """Gradient requested too close to the diagonal s = t, where it blows up."""


@dataclass(frozen=True)
class TimePair:
    """Two nonnegative clock values (not necessarily ordered)."""

    s: float
    t: float

    def __post_init__(self) -> None:
        for name, val in (("s", self.s), ("t", self.t)):
            if not (isinstance(val, (int, float)) and math.isfinite(val)):
                raise ValueError(f"{name} must be a finite real, got {val!r}")
            if val < 0.0:
                raise ValueError(f"{name} must be >= 0, got {val!r}")


@dataclass(frozen=True)
class UnitPair:
    """A point of the unit square."""

    u: float
    v: float

    def __post_init__(self) -> None:
        for name, val in (("u", self.u), ("v", self.v)):
            if not (isinstance(val, (int, float)) and math.isfinite(val)):
                raise ValueError(f"{name} must be a finite real, got {val!r}")
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {val!r}")


@dataclass(frozen=True)
class KernelConfig:
    """Floating-point policy for the kernel's case branches."""

    diag_rel_tol: float = 1e-12
    quad: QuadratureConfig = field(default_factory=QuadratureConfig)

    def __post_init__(self) -> None:
        if not (self.diag_rel_tol >= 0.0 and math.isfinite(self.diag_rel_tol)):
            raise ValueError(f"diag_rel_tol must be >= 0, got {self.diag_rel_tol!r}")


DEFAULT_KERNEL = KernelConfig()


def psi(tp: TimePair, up: UnitPair, config: KernelConfig = DEFAULT_KERNEL) -> float:
    """Copula kernel value at clock pair ``tp`` and unit-square point ``up``.

    Symmetric in (s, t).  Equals min(u, v) on the diagonal (within
    ``config.diag_rel_tol`` relative distance), u*v when either clock value
    is zero, and the integral of a normal CDF otherwise.
    """
    u, v = up.u, up.v
    # boundary short-circuits come first: the quantile is undefined at 0 and 1
    if u == 0.0 or v == 0.0:
        return 0.0
    if v == 1.0:
        return u
    if u == 1.0:
        return v

    hi = max(tp.s, tp.t)
    lo = min(tp.s, tp.t)
    if hi == 0.0:
        return u * v
    if hi - lo <= config.diag_rel_tol * hi:
        return min(u, v)
    if lo == 0.0:
        return u * v

    zv = std_normal_quantile(v)
    a_num = math.sqrt(hi) * zv
    sq_lo = math.sqrt(lo)
    inv_gap = 1.0 / math.sqrt(hi - lo)

    def integrand(w: float) -> float:
        if w < _W_FLOOR:
            return 1.0
        return std_normal_cdf((a_num - sq_lo * std_normal_quantile(w)) * inv_gap)

    try:
        val = integrate(integrand, 0.0, u, config.quad)
    except QuadratureError as exc:
        raise QuadratureError(
            f"kernel integral failed at (s={tp.s!r}, t={tp.t!r}, u={u!r}, v={v!r}): {exc}",
            estimate=exc.estimate,
            error=exc.error,
        ) from exc
    return min(max(val, 0.0), 1.0)


def _check_gradient_times(s: float, t: float, config: KernelConfig) -> None:
    if s <= 0.0 or s >= t:
        raise ValueError(f"gradient requires 0 < s < t strictly, got s={s!r}, t={t!r}")
    if t - s <= config.diag_rel_tol * t:
        raise NearDiagonalError(
            f"times too close for the gradient: t - s = {t - s!r} <= "
            f"{config.diag_rel_tol!r} * t"
        )


def grad_psi(
    tp: TimePair, up: UnitPair, config: KernelConfig = DEFAULT_KERNEL
) -> tuple[float, float]:
    """Temporal gradient (d/dt, d/ds) of the kernel, for 0 < s < t.

    Both components are integrals over w in [0, u] of the normal density at

        A(w) = (sqrt(t) * Phi^-1(v) - sqrt(s) * Phi^-1(w)) / sqrt(t - s)

    times a linear expression in A(w), Phi^-1(v) and Phi^-1(w).
    """
    s, t = tp.s, tp.t
    u, v = up.u, up.v
    _check_gradient_times(s, t, config)
    if not (0.0 < u < 1.0 and 0.0 < v < 1.0):
        raise ValueError(
            f"gradient requires u, v strictly inside (0, 1), got u={u!r}, v={v!r}"
        )

    zv = std_normal_quantile(v)
    sq_t = math.sqrt(t)
    sq_s = math.sqrt(s)
    gap = t - s
    inv_sq_gap = 1.0 / math.sqrt(gap)
    ct = zv / (2.0 * math.sqrt(t * gap))
    cg = 1.0 / (2.0 * gap)
    cs = 1.0 / (2.0 * math.sqrt(s * gap))

    def d_t_integrand(w: float) -> float:
        if w < _W_FLOOR:
            return 0.0
        zw = std_normal_quantile(w)
        aw = (sq_t * zv - sq_s * zw) * inv_sq_gap
        return std_normal_pdf(aw) * (ct - aw * cg)

    def d_s_integrand(w: float) -> float:
        if w < _W_FLOOR:
            return 0.0
        zw = std_normal_quantile(w)
        aw = (sq_t * zv - sq_s * zw) * inv_sq_gap
        return std_normal_pdf(aw) * (aw * cg - zw * cs)

    try:
        d_t = integrate(d_t_integrand, 0.0, u, config.quad)
        d_s = integrate(d_s_integrand, 0.0, u, config.quad)
    except QuadratureError as exc:
        raise QuadratureError(
            f"gradient integral failed at (s={s!r}, t={t!r}, u={u!r}, v={v!r}): {exc}",
            estimate=exc.estimate,
            error=exc.error,
        ) from exc
    return d_t, d_s


# --- vectorized grid evaluation -------------------------------------------
#
# The experiment runners evaluate the kernel on full (u, v) product grids
# thousands of times.  The adaptive scalar route is far too slow for that,
# so the same w-integral is computed with a fixed Gauss-Legendre rule per
# u-segment, vectorized over all v at once.  Accuracy is cross-checked
# against the scalar `psi` in the test suite.

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)

# the integrand's derivative is unbounded as w -> 0 when lo < hi - lo, and
# for extreme v the integrand swings from 1 to 0 within a few of these
# decades, so the first segment is split geometrically toward 0 with at
# most half-decade panels above 1e-4
_EDGE_SPLITS = (
    1e-8, 1e-6, 1e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1,
)


def _w_panels(u_grid: np.ndarray, trans_scale: float) -> tuple[list[tuple[float, float]], np.ndarray]:
    """Integration panels covering (0, max(u_grid)], refined near w = 0.

    ``trans_scale`` is the width over which the integrand can swing from 1
    to 0 (of order sqrt(hi - lo) for the kernel); segments wider than a
    fraction of it are split so the fixed rule still resolves the swing.
    Returns the panels and the index of the panel ending at each positive
    u-grid value.
    """
    pos = [float(x) for x in u_grid if x > 0.0]
    first = pos[0]
    breakpoints = [first * frac for frac in _EDGE_SPLITS] + pos
    grid_values = set(pos)

    panels: list[tuple[float, float]] = []
    end_index: list[int] = []
    left = breakpoints[0]
    for bp in breakpoints[1:]:
        width = bp - left
        splits = 1
        if trans_scale > 0.0 and width > 0.25 * trans_scale:
            splits = min(8, math.ceil(width / (0.25 * trans_scale)))
        for k in range(1, splits + 1):
            panels.append((left + width * (k - 1) / splits, left + width * k / splits))
        if bp in grid_values:
            end_index.append(len(panels) - 1)
        left = bp
    return panels, np.asarray(end_index)


def _validate_grid(name: str, grid: np.ndarray) -> np.ndarray:
    arr = np.asarray(grid, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a non-empty 1-d array")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    if arr[0] < 0.0 or arr[-1] > 1.0:
        raise ValueError(f"{name} must lie within [0, 1]")
    if arr.size > 1 and not np.all(np.diff(arr) > 0.0):
        raise ValueError(f"{name} must be strictly increasing")
    return arr


def psi_grid(
    s: float,
    t: float,
    u_grid: np.ndarray,
    v_grid: np.ndarray,
    config: KernelConfig = DEFAULT_KERNEL,
) -> np.ndarray:
    """Kernel values on the product grid, shape (len(u_grid), len(v_grid)).

    Same case branches as :func:`psi`; rows/columns at u, v in {0, 1} are
    set to their exact boundary values.  The fixed rule is accurate to about
    1e-11 at relative time gaps of 1e-2 and above.  Below that its panels,
    which are sized by the absolute gap, resolve the integrand less well:
    at a relative gap of 1e-4 it is about 1e-8 off at clock values near 1
    and about 1e-5 off near 100.  The adaptive scalar :func:`psi` and
    :func:`psi_difference` do not lose accuracy there.
    """
    ug = _validate_grid("u_grid", u_grid)
    vg = _validate_grid("v_grid", v_grid)
    for name, val in (("s", s), ("t", t)):
        if not (math.isfinite(val) and val >= 0.0):
            raise ValueError(f"{name} must be a finite real >= 0, got {val!r}")

    hi = max(s, t)
    lo = min(s, t)
    if hi == 0.0:
        return np.outer(ug, vg)
    if hi - lo <= config.diag_rel_tol * hi:
        return np.minimum.outer(ug, vg)
    if lo == 0.0:
        return np.outer(ug, vg)

    out = np.zeros((ug.size, vg.size))
    interior_v = (vg > 0.0) & (vg < 1.0)
    if np.any(interior_v) and np.any(ug > 0.0):
        zv = ndtri(vg[interior_v])
        a_num = math.sqrt(hi) * zv
        sq_lo = math.sqrt(lo)
        gap = hi - lo
        inv_gap = 1.0 / math.sqrt(gap)

        panels, end_index = _w_panels(ug, math.sqrt(gap))
        starts = np.array([p[0] for p in panels])
        halves = np.array([0.5 * (p[1] - p[0]) for p in panels])
        # nodes laid out panel-major: shape (n_panels, n_gl) flattened
        w_nodes = (starts[:, None] + halves[:, None] * (_GL_NODES[None, :] + 1.0)).ravel()
        zw = ndtri(w_nodes)

        arg = (a_num[None, :] - sq_lo * zw[:, None]) * inv_gap
        f_vals = ndtr(arg).reshape(len(panels), _GL_NODES.size, -1)
        panel_ints = np.einsum("g,pgv->pv", _GL_WEIGHTS, f_vals) * halves[:, None]

        # the untouched sliver [0, first panel start] has integrand <= 1
        sliver = starts[0]
        cumulative = np.cumsum(panel_ints, axis=0) + sliver

        rows = np.nonzero(ug > 0.0)[0]
        for j, i in enumerate(rows):
            out[i, interior_v] = cumulative[end_index[j]]
    np.clip(out, 0.0, 1.0, out=out)

    out[:, vg == 0.0] = 0.0
    out[:, vg == 1.0] = ug[:, None]
    out[ug == 0.0, :] = 0.0
    out[ug == 1.0, :] = vg[None, :]
    return out


def grad_psi_grid(
    s: float,
    t: float,
    u_grid: np.ndarray,
    v_grid: np.ndarray,
    config: KernelConfig = DEFAULT_KERNEL,
) -> tuple[np.ndarray, np.ndarray]:
    """Temporal gradient on a product grid; valid only at interior u, v.

    Returns (d_t, d_s) arrays of shape (len(u_grid), len(v_grid)), with NaN
    in rows/columns where u or v sits on the boundary of [0, 1].
    """
    ug = _validate_grid("u_grid", u_grid)
    vg = _validate_grid("v_grid", v_grid)
    _check_gradient_times(s, t, config)

    d_t = np.full((ug.size, vg.size), np.nan)
    d_s = np.full((ug.size, vg.size), np.nan)
    interior_v = (vg > 0.0) & (vg < 1.0)
    interior_u = (ug > 0.0) & (ug < 1.0)
    if not (np.any(interior_v) and np.any(interior_u)):
        return d_t, d_s

    zv = ndtri(vg[interior_v])
    sq_t = math.sqrt(t)
    sq_s = math.sqrt(s)
    gap = t - s
    inv_sq_gap = 1.0 / math.sqrt(gap)
    ct = zv / (2.0 * math.sqrt(t * gap))
    cg = 1.0 / (2.0 * gap)
    cs = 1.0 / (2.0 * math.sqrt(s * gap))

    panels, end_index = _w_panels(ug[interior_u], math.sqrt(gap))
    starts = np.array([p[0] for p in panels])
    halves = np.array([0.5 * (p[1] - p[0]) for p in panels])
    w_nodes = (starts[:, None] + halves[:, None] * (_GL_NODES[None, :] + 1.0)).ravel()
    zw = ndtri(w_nodes)

    aw = (sq_t * zv[None, :] - sq_s * zw[:, None]) * inv_sq_gap
    dens = np.exp(-0.5 * aw * aw) / math.sqrt(2.0 * math.pi)
    ig_t = dens * (ct[None, :] - aw * cg)
    ig_s = dens * (aw * cg - zw[:, None] * cs)

    n_gl = _GL_NODES.size
    per_panel_t = np.einsum("g,pgv->pv", _GL_WEIGHTS, ig_t.reshape(len(panels), n_gl, -1))
    per_panel_s = np.einsum("g,pgv->pv", _GL_WEIGHTS, ig_s.reshape(len(panels), n_gl, -1))
    cum_t = np.cumsum(per_panel_t * halves[:, None], axis=0)
    cum_s = np.cumsum(per_panel_s * halves[:, None], axis=0)

    rows = np.nonzero(interior_u)[0]
    for j, i in enumerate(rows):
        d_t[i, interior_v] = cum_t[end_index[j]]
        d_s[i, interior_v] = cum_s[end_index[j]]
    return d_t, d_s


# --- differences along the correlation -------------------------------------
#
# psi is the bivariate normal CDF Phi2(h, k; r) at h = Phi^-1(u),
# k = Phi^-1(v) and clock correlation r = sqrt(lo / hi), and dPhi2/dr is the
# bivariate normal density (Plackett's identity).  With r = sin(theta) and
# x = pi/2 - theta, the difference of two kernel values is
#
#     (1/2pi) * integral dtheta exp(-d / (2 sin^2 x) - b / (2 cos^2(x/2)))
#
# with d = (h - k)^2 and b = hk.  The exponent equals
# -(h^2 + k^2 - 2hk sin theta) / (2 cos^2 theta), written so that no digits
# cancel as theta -> pi/2.
#
# Error bound.  The real part of the exponent is a quadratic form in (h, k)
# that is negative semidefinite wherever |Re sin theta| <= 1, so the
# integrand is at most 1 in modulus there, for every cell; the diamond
# |Re theta| + |Im theta| < pi/2 lies inside that set.  A panel of
# half-width w whose centre lies a distance D below pi/2 has its Bernstein
# ellipse E_rho inside the diamond when rho^2 + rho^-2 <= 2 (D / w)^2, and
# m-point Gauss-Legendre on it then errs by at most
# w (64/15) rho^(2 - 2m) / (rho^2 - 1) (Trefethen, SIAM Review 50, 2008).
# Each panel is at most as wide as its distance to pi/2, so panels shrink
# geometrically toward the singular point and every one has
# rho^2 >= 9 + sqrt(80).

# absolute accuracy of psi_difference: the quadrature bound, and separately
# the sliver next to pi/2 that is left out when the range reaches it
_DIFF_TOL = 1e-14
_SLIVER = 2.0 * math.pi * _DIFF_TOL


def _node_count(half_total: float, rho2: float) -> int:
    """Fewest Gauss-Legendre nodes (at least 2) per panel that meet ``_DIFF_TOL``.

    ``half_total`` is the summed half-width of the panels and ``rho2`` the
    smallest squared ellipse parameter among them.
    """
    k = half_total * 64.0 / (15.0 * 2.0 * math.pi * (rho2 - 1.0) * _DIFF_TOL)
    if k <= 1.0:
        return 2
    return max(2, math.ceil(1.0 + math.log(k) / math.log(rho2)))


# rules for every node count a range within [0, pi/2] can need
_GL_RULES = {m: np.polynomial.legendre.leggauss(m)
             for m in range(2, _node_count(0.5 * math.pi, 9.0 + math.sqrt(80.0)) + 1)}


def clock_angle(s: float, t: float, config: KernelConfig = DEFAULT_KERNEL) -> float:
    """Angle asin(r) of the kernel's correlation r = sqrt(min/max) of clock values.

    Same case branches as :func:`psi`: 0 when either clock value is zero
    (independence) and pi/2 on the diagonal, within ``config.diag_rel_tol``
    relative distance.
    """
    if not (math.isfinite(s) and math.isfinite(t) and s >= 0.0 and t >= 0.0):
        raise ValueError(f"clock values must be finite reals >= 0, got s={s!r}, t={t!r}")
    hi = max(s, t)
    lo = min(s, t)
    if hi == 0.0:
        return 0.0
    if hi - lo <= config.diag_rel_tol * hi:
        return 0.5 * math.pi
    return math.atan2(math.sqrt(lo), math.sqrt(hi - lo))


def uv_cells(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cells ``(d, b)`` of the product grid ``grid x grid`` for :func:`psi_difference`.

    ``d = (h - k)**2`` and ``b = h * k`` with ``h = Phi^-1(u)``,
    ``k = Phi^-1(v)``, for the interior cells ``u <= v``, in the order of
    ``np.triu_indices`` over the interior points.  Cells with u or v in
    {0, 1} are left out: the kernel takes the same exact value there at
    every clock, so their differences are exactly zero.  The kernel is
    symmetric in (u, v), so cells v < u would repeat cells u < v bit for bit.
    """
    g = _validate_grid("grid", grid)
    h = ndtri(g[(g > 0.0) & (g < 1.0)])
    iu, iv = np.triu_indices(h.size)
    return (h[iu] - h[iv]) ** 2, h[iu] * h[iv]


def psi_difference(d, b, theta0: float, theta1: float) -> np.ndarray:
    """Kernel value at angle ``theta1`` minus its value at ``theta0``, per cell.

    A cell at (u, v) is given by ``d = (h - k)**2`` and ``b = h * k`` with
    ``h = Phi^-1(u)``, ``k = Phi^-1(v)``, as :func:`uv_cells` builds them;
    the angles are :func:`clock_angle`
    values in [0, pi/2].  The result is exactly zero when the angles are
    equal, and otherwise within 2e-14 absolute of the difference of the two
    bivariate normal CDF values, by the bound above.
    """
    d, b = np.broadcast_arrays(np.asarray(d, dtype=float), np.asarray(b, dtype=float))
    x_near = 0.5 * math.pi - max(theta0, theta1)
    x_far = 0.5 * math.pi - min(theta0, theta1)
    # a range that reaches pi/2 stops a sliver short of it: the integrand is
    # at most 1, so the sliver adds at most _SLIVER / 2pi = _DIFF_TOL
    x_near = max(x_near, _SLIVER)
    out = np.zeros(d.shape)
    if x_far <= x_near:
        return out

    edges = [x_near]
    while edges[-1] < x_far:
        edges.append(min(2.0 * edges[-1], x_far))
    edges = np.array(edges)
    half = 0.5 * np.diff(edges)
    mid = edges[:-1] + half
    q = 2.0 * (mid / half) ** 2
    rho2 = float(np.min(0.5 * (q + np.sqrt((q - 2.0) * (q + 2.0)))))
    nodes, weights = _GL_RULES[_node_count(float(half.sum()), rho2)]

    for c, w in zip(mid, half):
        x = c + w * nodes
        expo = np.multiply.outer(d, 0.5 / np.sin(x) ** 2)
        expo += np.multiply.outer(b, 0.5 / np.cos(0.5 * x) ** 2)
        np.negative(expo, out=expo)
        np.exp(expo, out=expo)
        out += expo @ (w * weights)
    sign = 1.0 if theta1 > theta0 else -1.0
    return out * (sign / (2.0 * math.pi))
