"""Brownian copula kernel and its temporal gradient.

The kernel psi(s, t; u, v) is the copula of a Brownian motion observed at
two times, as a function of its quadratic-variation clock values at those
times: the bivariate normal CDF Phi2(h, k; r) at h = Phi^-1(u),
k = Phi^-1(v) and clock correlation r = sqrt(min/max).  Its value is u*v
plus an integral over the correlation, its gradient is in closed form
(Plackett's identity dPhi2/dr = phi2), and :func:`sup_difference` gives
its largest change over a grid from one diagonal cell.  All case
branches (diagonal, zero times, unit-square boundary) are resolved here
so that callers never feed invalid arguments to the normal quantile.

The normal quantile and CDF come from the standard library's
``statistics.NormalDist`` (the quantile is Wichura's AS241, within a few
ulps), applied elementwise by ``ndtri`` and ``ndtr``.  Grids take the
quantiles of their unbroadcast axes; a scalar reaches the standard
library as a float.
"""

from __future__ import annotations

import functools
import math
from statistics import NormalDist

import numpy as np

__all__ = [
    "DIAG_REL_TOL",
    "NearDiagonalError",
    "psi",
    "grad_psi",
    "psi_grid",
    "grad_psi_grid",
    "clock_angle",
    "sup_difference",
]

# two clock values closer than this, relative to the larger, count as equal
DIAG_REL_TOL = 1e-12


class NearDiagonalError(ValueError):
    """Gradient requested too close to the diagonal s = t, where it blows up."""


_STD_NORMAL = NormalDist()


def _elementwise(fn, x):
    """``fn`` of each element of the array ``x``; a scalar (0-d included) gives a float."""
    if not (isinstance(x, np.ndarray) and x.ndim):
        return fn(float(x))
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


# the package's shared normal quantile and CDF, kept out of __all__
def ndtri(p):
    """Standard normal quantile of ``p``, elementwise (Wichura's AS241, a few ulps).

    A ``p`` outside (0, 1) raises ``statistics.StatisticsError``, a ValueError.
    """
    return _elementwise(_STD_NORMAL.inv_cdf, p)


def ndtr(x):
    """Standard normal CDF of ``x``, elementwise."""
    return _elementwise(_STD_NORMAL.cdf, x)


def _unit_values(name: str, val, strict: bool = False) -> np.ndarray:
    """``val`` as a float array, checked to lie in [0, 1] (in (0, 1) if ``strict``)."""
    arr = np.asarray(val, dtype=float)
    inside = (arr > 0.0) & (arr < 1.0) if strict else (arr >= 0.0) & (arr <= 1.0)
    if not np.all(inside):
        bounds = "strictly inside (0, 1)" if strict else "within [0, 1]"
        raise ValueError(f"{name} must lie {bounds}, got {val!r}")
    return arr


def _scalar_or_array(out):
    """A float when every argument was a scalar (``out`` is 0-d), else the array."""
    return out if np.ndim(out) else float(out)


def _clock_angles(s, t) -> np.ndarray:
    """:func:`clock_angle` of each element of the broadcast ``s`` and ``t``; 0-d for scalars.

    The angles are taken one element at a time, in order, so the first
    invalid pair raises, and each angle has the bits of a scalar call.
    """
    s_arr, t_arr = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
    return np.fromiter(map(clock_angle, s_arr.ravel().tolist(), t_arr.ravel().tolist()),
                       float, s_arr.size).reshape(s_arr.shape)


def psi(s, t, u, v):
    """Copula kernel value at clock values ``s``, ``t`` and unit-square points ``(u, v)``.

    All four arguments are floats or broadcastable arrays; four floats give
    a float.  Symmetric in (s, t).  Equals 0 where u or v is 0, u where v is
    1 and v where u is 1; min(u, v) on the diagonal (within
    ``DIAG_REL_TOL`` relative distance) and u*v when either clock value is
    zero.  Elsewhere it is u*v plus the integral over the correlation from
    independence to the clocks' correlation.  Both terms are nonnegative,
    and the quadrature's tolerance is 1e-14 times the smallest u*v of the
    call (for u*v down to 1e-286), so its error is at most 1e-14 of each
    value, lower tail included; rounding adds a few ulps.
    """
    theta = _clock_angles(s, t)
    u_arr = _unit_values("u", u)
    v_arr = _unit_values("v", v)
    diag = theta == 0.5 * math.pi
    # u*v is already exact on the boundary of the unit square
    out = np.array(np.where(diag, np.minimum(u_arr, v_arr), u_arr * v_arr))
    u_in = (u_arr > 0.0) & (u_arr < 1.0)
    v_in = (v_arr > 0.0) & (v_arr < 1.0)
    inner = u_in & v_in & (theta > 0.0) & ~diag
    if np.any(inner):
        # quantiles of the unbroadcast u and v, so a grid's axis and not its
        # cells; 1/2 stands in on the boundary, whose cells are not read
        h, k, th = np.broadcast_arrays(ndtri(np.where(u_in, u_arr, 0.5)),
                                       ndtri(np.where(v_in, v_arr, 0.5)), theta)
        h = h[inner]
        k = k[inner]
        # every cell's value is at least its u*v, so a tolerance scaled by the
        # smallest u*v is relative; theta stops about DIAG_REL_TOL**0.5 = 1e-6
        # short of pi/2 (clock_angle), so no panel reaches the singular point
        tol = max(_PSI_TOL * float(np.min(out[inner])), _TOL_FLOOR)
        out[inner] += _angle_integral((h - k) ** 2, h * k,
                                      th[inner] if theta.ndim else float(theta), tol)
    return _scalar_or_array(out)


def _check_gradient_times(s: float, t: float) -> None:
    """The gradient's domain 0 < s < t, outside the diagonal band ``DIAG_REL_TOL``.

    Coinciding clock values (a flat path's (0, 0) included) raise
    NearDiagonalError; any other point outside the domain, ValueError.
    """
    if not 0.0 <= s <= t < math.inf:
        raise ValueError(f"gradient requires 0 <= s <= t < inf, got s={s!r}, t={t!r}")
    if t - s <= DIAG_REL_TOL * t:
        raise NearDiagonalError(
            f"clock values coincide, so the gradient is undefined: s={s!r}, t={t!r}, "
            f"t - s <= {DIAG_REL_TOL!r} * t"
        )
    if s == 0.0:
        raise ValueError(f"gradient requires s > 0, got s={s!r}, t={t!r}")


def grad_psi(s, t, u, v):
    """Temporal gradient (d/dt, d/ds) of the kernel, for 0 < s < t and interior u, v.

    All four arguments are floats or broadcastable arrays, as for
    :func:`psi`.  With r = sqrt(s/t), Plackett's identity gives
    d/dt = -phi2 r / (2t) and d/ds = phi2 r / (2s), where phi2 is the
    bivariate normal density at (h, k; r).  Its exponent is written as
    ((h - k)^2 + 2hk(1 - r)) / (1 - r^2) with 1 - r^2 = (t - s)/t, so that
    nothing cancels near the diagonal.  Raises ValueError unless u and v lie
    strictly inside (0, 1), then as :func:`_check_gradient_times` for the
    first (s, t) pair, in order, outside the domain.
    """
    h = ndtri(_unit_values("u", u, strict=True))
    k = ndtri(_unit_values("v", v, strict=True))
    s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
    for s_i, t_i in zip(s.ravel().tolist(), t.ravel().tolist()):
        _check_gradient_times(s_i, t_i)
    r = np.sqrt(s / t)
    one_m_r2 = (t - s) / t
    expo = ((h - k) ** 2 + 2.0 * h * k * (one_m_r2 / (1.0 + r))) / one_m_r2
    phi2 = np.exp(-0.5 * expo) / (2.0 * math.pi * np.sqrt(one_m_r2))
    d_t = -phi2 * (r / (2.0 * t))
    d_s = phi2 * (r / (2.0 * s))
    return _scalar_or_array(d_t), _scalar_or_array(d_s)


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


def psi_grid(s: float, t: float, u_grid: np.ndarray, v_grid: np.ndarray) -> np.ndarray:
    """Kernel values on the product grid, shape (len(u_grid), len(v_grid))."""
    ug = _validate_grid("u_grid", u_grid)
    vg = _validate_grid("v_grid", v_grid)
    return psi(s, t, ug[:, None], vg[None, :])


def grad_psi_grid(
    s: float, t: float, u_grid: np.ndarray, v_grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Temporal gradient on a product grid; valid only at interior u, v.

    Returns (d_t, d_s) arrays of shape (len(u_grid), len(v_grid)), with NaN
    in rows/columns where u or v sits on the boundary of [0, 1].
    """
    ug = _validate_grid("u_grid", u_grid)
    vg = _validate_grid("v_grid", v_grid)
    _check_gradient_times(s, t)
    d_t = np.full((ug.size, vg.size), np.nan)
    d_s = np.full((ug.size, vg.size), np.nan)
    iu = np.nonzero((ug > 0.0) & (ug < 1.0))[0]
    iv = np.nonzero((vg > 0.0) & (vg < 1.0))[0]
    if iu.size and iv.size:
        cells = np.ix_(iu, iv)
        d_t[cells], d_s[cells] = grad_psi(s, t, ug[iu][:, None], vg[iv][None, :])
    return d_t, d_s


# --- integrals over the correlation ---------------------------------------
#
# psi is the bivariate normal CDF Phi2(h, k; r) at h = Phi^-1(u),
# k = Phi^-1(v) and clock correlation r = sqrt(lo / hi), and dPhi2/dr is the
# bivariate normal density (Plackett's identity).  With r = sin(theta), the
# kernel changes between two angles by
#
#     (1/2pi) * integral dtheta exp(-(h^2 + k^2 - 2hk sin theta) / (2 cos^2 theta))
#
# (Drezner & Wesolowsky 1990).  With x = pi/2 - theta, d = (h - k)^2 and
# b = hk, the exponent is -d / (2 sin^2 x) - b / (2 cos^2(x/2)), written so
# that no digits cancel as theta -> pi/2.
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

# psi's quadrature tolerance, as a fraction of the smallest u*v of a call
_PSI_TOL = 1e-14
# smallest quadrature tolerance psi asks for; it keeps the node count finite
_TOL_FLOOR = 1e-300


def _node_count(half_total: float, rho2: float, tol: float) -> int:
    """Fewest Gauss-Legendre nodes (at least 2) per panel that meet ``tol``.

    ``half_total`` is the summed half-width of the panels and ``rho2`` the
    smallest squared ellipse parameter among them.
    """
    k = half_total * 64.0 / (15.0 * 2.0 * math.pi * (rho2 - 1.0) * tol)
    if k <= 1.0:
        return 2
    return max(2, math.ceil(1.0 + math.log(k) / math.log(rho2)))


_gl_rule = functools.cache(np.polynomial.legendre.leggauss)


def clock_angle(s: float, t: float) -> float:
    """Angle asin(r) of the kernel's correlation r = sqrt(min/max) of clock values.

    Same case branches as :func:`psi`: 0 when either clock value is zero
    (independence) and pi/2 on the diagonal, within ``DIAG_REL_TOL``
    relative distance.
    """
    if not (math.isfinite(s) and math.isfinite(t) and s >= 0.0 and t >= 0.0):
        raise ValueError(f"clock values must be finite reals >= 0, got s={s!r}, t={t!r}")
    hi = max(s, t)
    lo = min(s, t)
    if hi == 0.0:
        return 0.0
    if hi - lo <= DIAG_REL_TOL * hi:
        return 0.5 * math.pi
    return math.atan2(math.sqrt(lo), math.sqrt(hi - lo))


def _angle_integral(d, b, theta, tol: float) -> np.ndarray:
    """The integral above from 0 to ``theta`` < pi/2 per cell, with error at most ``tol``.

    ``theta`` is one angle for every cell or an array of one angle per cell.
    Each cell's panels double from pi/2 - theta up to pi/2; a cell that runs
    out of panels before the others gets empty ones (zero width at pi/2).
    One node count serves the call: that of the largest summed half-width
    and the smallest ellipse parameter of any cell, so every cell meets
    ``tol``.  Temporaries are (cells, nodes), whatever the panel count.
    """
    x_far = 0.5 * math.pi
    lo = x_far - np.asarray(theta, dtype=float)
    out = np.zeros(d.shape)
    mids, halves = [], []
    while np.any(lo < x_far):
        hi = np.minimum(2.0 * lo, x_far)
        half = 0.5 * (hi - lo)
        mids.append(lo + half)
        halves.append(half)
        lo = hi
    if not halves:
        return out

    mid = np.array(mids)
    half = np.array(halves)
    live = half > 0.0
    q = 2.0 * (mid[live] / half[live]) ** 2
    rho2 = float(np.min(0.5 * (q + np.sqrt((q - 2.0) * (q + 2.0)))))
    half_total = float(np.max(half.sum(axis=0)))
    nodes, weights = _gl_rule(_node_count(half_total, rho2, tol))

    for c, w in zip(mid, half):
        # (nodes,) for one angle, (cells, nodes) for one per cell
        x = c[..., None] + w[..., None] * nodes
        expo = d[:, None] * (0.5 / np.sin(x) ** 2)
        expo += b[:, None] * (0.5 / np.cos(0.5 * x) ** 2)
        np.negative(expo, out=expo)
        np.exp(expo, out=expo)
        out += expo @ (w * weights) if w.ndim == 0 else w * (expo @ weights)
    return out * (1.0 / (2.0 * math.pi))


# --- the sup over a grid -----------------------------------------------------
#
# h^2 + k^2 - 2hk sin theta has eigenvalues 1 -+ sin theta, so it is at least
# (1 - sin theta)(h^2 + k^2), with equality on the diagonal h = k.  At every
# angle no cell's (positive) integrand exceeds that of the diagonal cell
# (h*, h*) with the smallest |h| on the grid, whose exponent is
# -c / (1 + sin theta) with c = h*^2; c = 0 when 1/2 is on the grid, and the
# difference is then |theta1 - theta0| / 2pi (Sheppard's orthant identity).
# On the Bernstein ellipse E_4 of any [theta0, theta1] inside [0, pi/2],
# Re sin theta >= -0.80, so the integrand is at most 1 in modulus there, and
# 16-point Gauss-Legendre errs by at most (|theta1 - theta0| / 2) (64/15)
# 4^-32 / (4^2 - 1) / 2pi <= 1.9e-21 (Trefethen, ATAP, Theorem 19.3).

_SUP_NODES, _SUP_WEIGHTS = np.polynomial.legendre.leggauss(16)


def sup_difference(grid, theta0, theta1) -> np.ndarray:
    """Largest ``|psi(theta1) - psi(theta0)|`` over the cells ``grid x grid``.

    ``theta0`` and ``theta1`` are :func:`clock_angle` values, floats or
    broadcastable arrays; the result has their broadcast shape.  It is zero
    when no grid point lies inside (0, 1), and otherwise the integral of the
    dominant diagonal cell, within 1.9e-21 absolute by the bound above.
    """
    g = _validate_grid("grid", grid)
    theta0 = np.asarray(theta0, dtype=float)
    half = 0.5 * (np.asarray(theta1, dtype=float) - theta0)
    inner = g[(g > 0.0) & (g < 1.0)]
    if inner.size == 0:
        return np.zeros(half.shape)
    c = float(np.min(ndtri(inner) ** 2))
    x = (theta0 + half)[..., None] + half[..., None] * _SUP_NODES
    return np.abs(half * (np.exp(-c / (1.0 + np.sin(x))) @ _SUP_WEIGHTS)) / (2.0 * math.pi)
