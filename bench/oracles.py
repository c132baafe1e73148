"""Computations made apart from hfcopula, which the checks compare its outputs with.

Nothing here imports hfcopula.  The copula of (X_s, X_t) is the bivariate
normal CDF at correlation rho = sqrt(min/max) of the two clock values;
its gradient in the clock values follows from Plackett's identity
d Phi2 / d rho = phi2; realized measures are plain numpy sums over the
benchmark's own copy of the path.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import multivariate_normal, norm


def clock_rho(s, t):
    """Correlation sqrt(min/max) of a Brownian motion at clock values s and t."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    return np.sqrt(np.minimum(s, t) / np.maximum(s, t))


def bvn_cdf(h, k, rho: float) -> np.ndarray:
    """Phi2(h, k; rho) from scipy.stats.multivariate_normal, one rho, many points."""
    h = np.atleast_1d(np.asarray(h, dtype=float))
    k = np.atleast_1d(np.asarray(k, dtype=float))
    dist = multivariate_normal(mean=[0.0, 0.0], cov=[[1.0, rho], [rho, 1.0]])
    return np.atleast_1d(dist.cdf(np.column_stack([h, k])))


def bvn_pdf(h, k, rho):
    """phi2(h, k; rho), the bivariate normal density, in closed form."""
    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    rho = np.asarray(rho, dtype=float)
    one_m = 1.0 - rho * rho
    quad = (h * h - 2.0 * rho * h * k + k * k) / one_m
    return np.exp(-0.5 * quad) / (2.0 * math.pi * np.sqrt(one_m))


def copula(s: float, t: float, u, v) -> np.ndarray:
    """C(u, v) of (W_s, W_t) at interior points (u, v) of the unit square."""
    return bvn_cdf(norm.ppf(u), norm.ppf(v), float(clock_rho(s, t)))


def plackett_variance(rv_lo, rv_hi, q_lo, q_hi, u, v):
    """Feasible variance 2 g' M g from the closed-form gradient.

    With rho = sqrt(rv_lo / rv_hi), Plackett's identity gives
    d_t = -phi2 * rho / (2 rv_hi) and d_s = phi2 * rho / (2 rv_lo), and
    M = [[q_hi, q_lo], [q_lo, q_lo]].
    """
    rv_lo, rv_hi, q_lo, q_hi = (np.asarray(a, dtype=float) for a in (rv_lo, rv_hi, q_lo, q_hi))
    rho = np.sqrt(rv_lo / rv_hi)
    phi2 = bvn_pdf(norm.ppf(u), norm.ppf(v), rho)
    d_t = -phi2 * rho / (2.0 * rv_hi)
    d_s = phi2 * rho / (2.0 * rv_lo)
    g_sum = d_t + d_s
    return 2.0 * (q_lo * g_sum * g_sum + (q_hi - q_lo) * d_t * d_t)


def realized_measures(x: np.ndarray, n: int, indices) -> tuple[np.ndarray, np.ndarray]:
    """Sums of squared increments, and n/3 times sums of fourth powers, up to each grid index."""
    d2 = np.diff(np.asarray(x, dtype=float)) ** 2
    d4 = d2 * d2
    rv = np.array([np.sum(d2[:i]) for i in indices])
    q = np.array([n / 3.0 * np.sum(d4[:i]) for i in indices])
    return rv, q


def normal_ks(sample) -> float:
    """Kolmogorov-Smirnov distance of a sample to N(0, 1)."""
    x = np.sort(np.asarray(sample, dtype=float))
    m = x.size
    f = norm.cdf(x)
    ranks = np.arange(1, m + 1)
    return float(max(np.max(ranks / m - f), np.max(f - (ranks - 1) / m)))


def frechet_bounds(u, v) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper Frechet-Hoeffding bounds at (u, v)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return np.maximum(u + v - 1.0, 0.0), np.minimum(u, v)
