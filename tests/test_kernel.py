"""Tests for the copula kernel, its gradient, and their product-grid forms."""

import math

import numpy as np
import pytest
from scipy import special
from scipy.stats import multivariate_normal

from hfcopula.kernel import (
    DIAG_REL_TOL,
    NearDiagonalError,
    _angle_integral,
    clock_angle,
    grad_psi,
    grad_psi_grid,
    ndtr,
    ndtri,
    psi,
    psi_grid,
    sup_difference,
)

# P(Z1 <= Phi^-1(0.7), Z2 <= Phi^-1(0.3)) at corr sqrt(3/7); mpmath double
# integral, cross-checked against scipy multivariate_normal.cdf
C_03_07_07_03 = 0.2825701629284019

# (s, t, u, v, Phi2) in the lower tail, v ~ 1e-12: mpmath at 50 digits, as
# u*v plus the integral of the density over the correlation, cross-checked
# against the integral of phi(y) Phi((h - r y) / sqrt(1 - r^2)) up to k
LOWER_TAIL = (
    (0.3, 0.7, 0.5, 1e-12, 9.9999999968229759e-13),
    (0.3, 0.7, 0.2, 1e-12, 9.9999980303623517e-13),
    (0.3, 0.7, 0.8, 1e-12, 9.9999999999984647e-13),
    (0.1, 0.9, 0.5, 1e-12, 9.9434197799752113e-13),
    (0.5, 0.6, 0.5, 1e-12, 9.9999999999999998e-13),
    (0.2, 0.4, 0.9, 2e-12, 2.0e-12),
    (0.6, 0.95, 0.3, 5e-13, 4.9999999999999999e-13),
    (0.05, 0.5, 0.6, 1e-12, 9.9603473844342877e-13),
)

# (before, after) clock pairs: the kernel changes between the two correlations
CLOCK_STEPS = [
    ((0.0, 1.0), (0.99 ** 2, 1.0)),           # rho 0 -> 0.99, from the lo == 0 branch
    ((0.25, 1.0), (0.9999 ** 2, 1.0)),        # wide range ending near 1
    ((0.99 ** 2, 1.0), (0.99999 ** 2, 1.0)),
    ((0.7, 0.3), (0.31, 0.7)),                # narrow, times in either order
    ((2.0, 1.0), (0.5, 2.0)),                 # correlation falls
    ((1.0, 1.0 + 1e-4), (1.0, 1.0 + 2e-4)),   # relative clock gaps of 1e-4
    ((0.5, 1.0), (1.0, 1.0 + 1e-4)),
    ((0.5, 1.0), (1.0, 1.0)),                 # to the diagonal branch, rho = 1
    ((0.3, 0.7), (0.7, 0.3)),                 # equal angles
]


def test_diagonal_branch():
    assert psi(1.0, 1.0, 0.3, 0.6) == 0.3


def test_zero_time_branch():
    assert psi(0.0, 1.0, 0.4, 0.9) == pytest.approx(0.36, abs=1e-15)
    assert psi(0.0, 0.0, 0.4, 0.9) == pytest.approx(0.36, abs=1e-15)


def test_orthant_probability():
    # equal quantiles at u=v=0.5: 1/4 + arcsin(rho)/(2 pi), rho = sqrt(1/2)
    val = psi(1.0, 2.0, 0.5, 0.5)
    assert val == pytest.approx(0.375, abs=1e-8)


def test_bivariate_normal_oracle_point():
    val = psi(0.3, 0.7, 0.7, 0.3)
    assert val == pytest.approx(C_03_07_07_03, abs=1e-8)


def test_boundary_shortcuts():
    assert psi(0.4, 1.3, 0.0, 0.6) == 0.0
    assert psi(0.4, 1.3, 0.6, 0.0) == 0.0
    assert psi(0.4, 1.3, 0.6, 1.0) == 0.6
    assert psi(0.4, 1.3, 1.0, 0.6) == 0.6
    np.testing.assert_array_equal(psi(0.4, 1.3, [0.0, 0.6, 0.6, 1.0], [0.6, 0.0, 1.0, 0.6]),
                                  [0.0, 0.0, 0.6, 0.6])


def test_time_symmetry_exact():
    rng = np.random.default_rng(3)
    for _ in range(20):
        s, t = sorted(rng.uniform(0.05, 3.0, size=2))
        u, v = rng.uniform(0.0, 1.0, size=2)
        a = psi(s, t, u, v)
        b = psi(t, s, u, v)
        assert a == b


def test_normal_quantile_and_cdf_match_scipy():
    """The standard-library quantile and CDF against scipy's ndtri/ndtr, tails included."""
    rng = np.random.default_rng(11)
    p = np.concatenate([
        np.linspace(0.0, 1.0, 101)[1:-1],
        rng.uniform(size=10_000),
        10.0 ** rng.uniform(-300.0, -2.0, 10_000),
        1.0 - 10.0 ** rng.uniform(-15.0, -2.0, 10_000),
    ])
    ref = special.ndtri(p)
    got = ndtri(p)
    assert got.shape == p.shape
    assert np.all(np.abs(got - ref) <= 2e-15 * np.abs(ref))
    x = np.concatenate([ref, np.linspace(-40.0, 40.0, 1001)])
    assert np.max(np.abs(ndtr(x) - special.ndtr(x))) <= 1e-15
    # scalars stay scalars, and an array keeps its shape
    assert isinstance(ndtri(0.975), float) and isinstance(ndtr(1.96), float)
    assert ndtri(0.975) == ndtri(np.array([0.975]))[0]
    assert ndtri(p[:100].reshape(4, 25)).shape == (4, 25)
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            ndtri(bad)
        with pytest.raises(ValueError):
            ndtri(np.array([0.5, bad]))


def test_diagonal_continuity():
    """psi(1, 1+eps) approaches min(u,v) as eps shrinks, in order.

    The gap reaches the rounding level of 0.4 once eps <= 1e-3, where the
    quadrature sum may land one ulp off, so the ordering allows one ulp of
    0.4."""
    gaps = [abs(psi(1.0, 1.0 + eps, 0.4, 0.6) - 0.4)
            for eps in (1e-1, 1e-2, 1e-3, 1e-4)]
    assert all(b <= a + np.spacing(0.4) for a, b in zip(gaps, gaps[1:]))
    assert gaps[0] > gaps[-1]
    assert gaps[-1] < 1e-8


def test_independence_limit():
    gaps = [abs(psi(1.0, t, 0.3, 0.8) - 0.24) for t in (1e2, 1e4, 1e6)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-3


def test_copula_axioms_random_times():
    # scaled-down version of the acceptance sweep
    rng = np.random.default_rng(5)
    grid = np.linspace(0.0, 1.0, 21)
    for _ in range(10):
        s = rng.uniform(0.05, 2.0)
        t = s + rng.uniform(0.02, 2.0)
        c = psi_grid(s, t, grid, grid)
        assert np.all(c[0, :] == 0.0)
        assert np.all(c[:, 0] == 0.0)
        np.testing.assert_allclose(c[-1, :], grid, atol=1e-8)
        np.testing.assert_allclose(c[:, -1], grid, atol=1e-8)
        rect = c[1:, 1:] - c[:-1, 1:] - c[1:, :-1] + c[:-1, :-1]
        assert rect.min() >= -1e-8
        fre_lo = np.maximum(np.add.outer(grid, grid) - 1.0, 0.0)
        fre_hi = np.minimum.outer(grid, grid)
        assert np.all(c >= fre_lo - 1e-8)
        assert np.all(c <= fre_hi + 1e-8)


def test_psi_result_in_unit_interval():
    rng = np.random.default_rng(9)
    for _ in range(50):
        s, t = sorted(rng.uniform(0.0, 2.0, size=2))
        u, v = rng.uniform(0.0, 1.0, size=2)
        val = psi(s, t, u, v)
        assert isinstance(val, float)
        assert 0.0 <= val <= 1.0


def _fd_gradient(s, t, u, v, h=1e-5):
    d_t = (psi(s, t + h, u, v) - psi(s, t - h, u, v)) / (2.0 * h)
    d_s = (psi(s + h, t, u, v) - psi(s - h, t, u, v)) / (2.0 * h)
    return d_t, d_s


@pytest.mark.parametrize("point", [(1.0, 2.0, 0.5, 0.5), (0.3, 0.7, 0.7, 0.3)])
def test_gradient_matches_finite_differences(point):
    s, t, u, v = point
    g_t, g_s = grad_psi(s, t, u, v)
    f_t, f_s = _fd_gradient(s, t, u, v)
    assert abs(g_t - f_t) <= 1e-5 * max(abs(f_t), 1e-12)
    assert abs(g_s - f_s) <= 1e-5 * max(abs(f_s), 1e-12)


def test_gradient_vanishing_u():
    g_t, g_s = grad_psi(0.5, 1.5, 1e-6, 0.5)
    assert abs(g_t) < 1e-5
    assert abs(g_s) < 1e-5


def test_gradient_domain_errors():
    with pytest.raises(ValueError):
        grad_psi(2.0, 1.0, 0.5, 0.5)  # s > t
    with pytest.raises(ValueError):
        grad_psi(0.0, 1.0, 0.5, 0.5)  # s = 0
    with pytest.raises(ValueError):
        grad_psi(1.0, math.inf, 0.5, 0.5)
    with pytest.raises(ValueError):
        grad_psi(1.0, 2.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        grad_psi(1.0, 2.0, 0.5, 1.0)


def test_gradient_near_diagonal_error():
    with pytest.raises(NearDiagonalError):
        grad_psi(1.0, 1.0 + 1e-13, 0.5, 0.5)


def test_gradient_coinciding_times_are_near_diagonal():
    """Equal clock values, a flat path's (0, 0) included, are the diagonal;
    a zero s below a positive t is a plain domain error."""
    for s, t in ((0.0, 0.0), (0.7, 0.7), (1e-300, 1e-300)):
        with pytest.raises(NearDiagonalError, match="coincide") as info:
            grad_psi(s, t, 0.5, 0.5)
        assert f"s={s!r}, t={t!r}" in str(info.value)
    with pytest.raises(ValueError) as info:
        grad_psi(0.0, 1.0, 0.5, 0.5)
    assert not isinstance(info.value, NearDiagonalError)
    with pytest.raises(NearDiagonalError):
        grad_psi_grid(0.0, 0.0, np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 5))


def _mixed_clock_cells(m=120, seed=21):
    """Random cells with every branch: tails, diagonal, zero clocks, s > t, edges."""
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.01, 2.0, m)
    t = rng.uniform(0.01, 2.0, m)
    u = rng.uniform(0.02, 0.98, m)
    v = rng.uniform(0.02, 0.98, m)
    v[:6] = (1e-12, 2e-12, 5e-13, 1e-12, 1e-30, 1e-12)    # lower tail
    t[6:9] = s[6:9]                                        # on the diagonal
    t[9] = s[9] * (1.0 + 0.5 * DIAG_REL_TOL)               # inside the diagonal band
    t[10] = s[10] * (1.0 + 1e-9)                           # just outside it
    s[11], t[12], s[13], t[13] = 0.0, 0.0, 0.0, 0.0        # zero clocks
    s[14], t[14] = 1.9, 0.02                               # s > t, far apart
    u[15], v[16], u[17], v[18] = 0.0, 0.0, 1.0, 1.0        # edges of the square
    return s, t, u, v


def test_psi_array_clocks_match_scalar_calls():
    """Array clock values give each element's scalar value to 1e-14 relative,
    and the exact branches exactly."""
    s, t, u, v = _mixed_clock_cells()
    got = psi(s, t, u, v)
    ref = np.array([psi(*cell) for cell in zip(s.tolist(), t.tolist(), u.tolist(), v.tolist())])
    assert got.shape == s.shape
    assert np.all(np.abs(got - ref) <= 1e-14 * ref)
    exact = (np.isclose(s, t, rtol=DIAG_REL_TOL, atol=0.0) | (s == 0.0) | (t == 0.0)
             | np.isin(u, (0.0, 1.0)) | np.isin(v, (0.0, 1.0)))
    np.testing.assert_array_equal(got[exact], ref[exact])
    # clocks broadcast with (u, v): one column of clock pairs against a row of cells
    grid = psi(s[:, None], t[:, None], u[None, :20], v[None, :20])
    assert grid.shape == (s.size, 20)
    assert np.all(np.abs(grid[:, 3] - psi(s, t, u[3], v[3])) <= 1e-14 * grid[:, 3])
    assert isinstance(psi(np.float64(0.3), 0.7, 0.5, 0.5), float)


def test_psi_array_clocks_symmetric_and_checked_in_order():
    s, t, u, v = _mixed_clock_cells()
    np.testing.assert_array_equal(psi(s, t, u, v), psi(t, s, u, v))
    with pytest.raises(ValueError, match="s=-1.0"):
        psi(np.array([0.3, -1.0, math.nan]), 0.7, 0.5, 0.5)
    with pytest.raises(ValueError, match="t=nan"):
        psi(np.array([0.3, math.nan, -1.0]), np.array([0.7, math.nan, 0.5]), 0.5, 0.5)


def test_angle_integral_per_cell_angles_match_one_angle():
    """One angle per cell gives each cell what a call with its angle alone gives."""
    rng = np.random.default_rng(4)
    h, k = rng.normal(size=(2, 50))
    theta = rng.uniform(1e-3, 0.5 * math.pi - 1e-6, 50)
    tol = 1e-20
    got = _angle_integral((h - k) ** 2, h * k, theta, tol)
    for i in range(50):
        one = _angle_integral((h[i:i + 1] - k[i:i + 1]) ** 2, h[i:i + 1] * k[i:i + 1],
                              float(theta[i]), tol)
        assert abs(got[i] - one[0]) <= 1e-15 * max(abs(one[0]), 1e-300) + 1e-20


def test_grad_psi_array_clocks_match_scalar_calls():
    rng = np.random.default_rng(6)
    s = rng.uniform(0.01, 1.0, 80)
    t = s + rng.uniform(1e-6, 1.0, 80) * s
    u = rng.uniform(1e-9, 1.0 - 1e-9, 80)
    v = rng.uniform(1e-9, 1.0 - 1e-9, 80)
    v[:3] = 1e-12
    g_t, g_s = grad_psi(s, t, u, v)
    ref = np.array([grad_psi(*cell) for cell in zip(s.tolist(), t.tolist(),
                                                    u.tolist(), v.tolist())])
    np.testing.assert_allclose(g_t, ref[:, 0], rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(g_s, ref[:, 1], rtol=1e-15, atol=0.0)
    # scalar u, v broadcast against the clock arrays
    g_t, _ = grad_psi(s, t, 0.3, 0.6)
    assert g_t.shape == s.shape and g_t[5] == grad_psi(float(s[5]), float(t[5]), 0.3, 0.6)[0]


def test_grad_psi_array_clocks_first_bad_pair_raises():
    """The first clock pair outside the domain, in order, decides the error."""
    s = np.array([0.2, 0.5, 0.0])
    t = np.array([0.4, 0.5, 0.7])
    with pytest.raises(NearDiagonalError, match="s=0.5, t=0.5"):
        grad_psi(s, t, 0.5, 0.5)
    with pytest.raises(ValueError, match="s > 0") as info:
        grad_psi(s[::-1], t[::-1], 0.5, 0.5)
    assert not isinstance(info.value, NearDiagonalError)


def test_pair_validation():
    with pytest.raises(ValueError):
        psi(-0.1, 1.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        psi(0.0, math.inf, 0.5, 0.5)
    with pytest.raises(ValueError):
        psi(0.3, 0.7, -0.01, 0.5)
    with pytest.raises(ValueError):
        psi(0.3, 0.7, 0.5, 1.01)
    with pytest.raises(ValueError):
        psi(0.3, 0.7, np.array([0.5, math.nan]), 0.5)


def test_grid_matches_scalar_route():
    """The grid is the kernel on broadcast arrays; it must match the
    bivariate normal CDF inside the square and the exact values on its edge."""
    ug = np.array([0.0, 0.05, 0.3, 0.5, 0.7, 0.95, 1.0])
    vg = np.array([0.0, 0.1, 0.25, 0.5, 0.8, 0.9, 1.0])
    iu, iv = np.meshgrid(np.arange(1, 6), np.arange(1, 6), indexing="ij")
    pairs = [(0.3, 0.7), (1.0, 2.0), (0.05, 1.8), (0.9, 1.0)]
    for s, t in pairs + [after for _, after in CLOCK_STEPS]:
        grid = psi_grid(s, t, ug, vg)
        ref = _bvn_cdf(special.ndtri(ug[iu.ravel()]), special.ndtri(vg[iv.ravel()]), s, t)
        np.testing.assert_allclose(grid[1:-1, 1:-1].ravel(), ref, rtol=0.0, atol=1e-8)
        np.testing.assert_array_equal(grid[0, :], 0.0)
        np.testing.assert_array_equal(grid[:, 0], 0.0)
        np.testing.assert_array_equal(grid[-1, :], vg)
        np.testing.assert_array_equal(grid[:, -1], ug)


def test_grid_degenerate_time_branches():
    ug = np.linspace(0.0, 1.0, 5)
    vg = np.linspace(0.0, 1.0, 7)
    np.testing.assert_array_equal(psi_grid(1.0, 1.0, ug, vg),
                                  np.minimum.outer(ug, vg))
    np.testing.assert_array_equal(psi_grid(0.0, 1.0, ug, vg),
                                  np.multiply.outer(ug, vg))


def test_grid_time_symmetry_exact():
    rng = np.random.default_rng(5)
    ug = np.linspace(0.0, 1.0, 11)
    for _ in range(5):
        s, t = rng.uniform(0.05, 3.0, size=2)
        np.testing.assert_array_equal(psi_grid(s, t, ug, ug), psi_grid(t, s, ug, ug))


def test_grad_grid_matches_scalar_route():
    """The grid gradient against Plackett's formula with scipy's density,
    and NaN wherever u or v is on the boundary."""
    ug = np.array([0.0, 0.2, 0.5, 0.7, 1.0])
    vg = np.array([0.0, 0.3, 0.5, 0.9, 1.0])
    for s, t in ((0.3, 0.7), (1.0, 2.0)):
        d_t, d_s = grad_psi_grid(s, t, ug, vg)
        r = math.sqrt(s / t)
        dens = multivariate_normal(mean=[0.0, 0.0], cov=[[1.0, r], [r, 1.0]])
        for i, u in enumerate(ug):
            for j, v in enumerate(vg):
                if u in (0.0, 1.0) or v in (0.0, 1.0):
                    assert math.isnan(d_t[i, j]) and math.isnan(d_s[i, j])
                    continue
                phi2 = dens.pdf([special.ndtri(u), special.ndtri(v)])
                assert d_t[i, j] == pytest.approx(-phi2 * r / (2.0 * t), abs=1e-8)
                assert d_s[i, j] == pytest.approx(phi2 * r / (2.0 * s), abs=1e-8)
                assert (d_t[i, j], d_s[i, j]) == grad_psi(s, t, float(u), float(v))


def test_gradient_euler_identity():
    # psi depends on s/t only, so t d/dt + s d/ds vanishes
    rng = np.random.default_rng(8)
    for _ in range(20):
        s, t = np.sort(rng.uniform(0.01, 5.0, size=2))
        u, v = rng.uniform(0.01, 0.99, size=2)
        g_t, g_s = grad_psi(float(s), float(t), float(u), float(v))
        assert abs(t * g_t + s * g_s) <= 1e-15 * abs(t * g_t)


@pytest.mark.parametrize("s, t, u, v, ref", LOWER_TAIL)
def test_lower_tail_relative_accuracy(s, t, u, v, ref):
    assert abs(psi(s, t, u, v) - ref) <= 1e-8 * ref


def test_deep_lower_tail_relative_accuracy():
    # the quadrature tolerance scales with u*v: a fixed 1e-14 absolute one
    # is 3e-7 off here; mpmath, both integrals of LOWER_TAIL agreeing to 1e-20
    assert psi(0.3, 0.7, 1e-30, 1e-30) == pytest.approx(1.3416902162289224e-37, rel=1e-12)


def test_scale_invariance():
    """The kernel depends on the clock values through their ratio only."""
    ug = np.linspace(0.0, 1.0, 101)
    base = psi_grid(1.0, 1.0 + 1e-4, ug, ug)
    for lam in (0.1, 1.0, 10.0, 100.0):
        scaled = psi_grid(lam, lam * (1.0 + 1e-4), ug, ug)
        assert np.max(np.abs(scaled - base)) <= 1e-15


def test_grid_input_validation():
    good = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        psi_grid(0.3, 0.7, good[::-1].copy(), good)  # decreasing
    with pytest.raises(ValueError):
        psi_grid(0.3, 0.7, np.array([0.0, 0.5, 0.5, 1.0]), good)  # duplicate
    with pytest.raises(ValueError):
        psi_grid(0.3, 0.7, np.array([-0.1, 0.5]), good)  # out of range
    with pytest.raises(ValueError):
        grad_psi_grid(0.7, 0.3, good, good)  # s >= t
    with pytest.raises(ValueError):
        sup_difference(good[::-1].copy(), 0.1, 0.2)


def _bvn_cdf(h, k, s, t):
    """Phi2(h, k; sqrt(min/max)) from scipy, independent of the library."""
    lo, hi = min(s, t), max(s, t)
    r = math.sqrt(lo / hi)
    if r == 1.0:
        return np.minimum(special.ndtr(h), special.ndtr(k))
    dist = multivariate_normal(mean=[0.0, 0.0], cov=[[1.0, r], [r, 1.0]])
    return dist.cdf(np.column_stack([h, k]))


@pytest.mark.parametrize("before, after", CLOCK_STEPS)
def test_sup_difference_matches_bivariate_normal(before, after):
    """The one-cell sup against scipy's bivariate normal maximised over all
    cells, on odd grids (1/2 on the grid) and even ones."""
    theta0, theta1 = clock_angle(*before), clock_angle(*after)
    for size in (3, 4, 20, 21):
        ug = np.linspace(0.0, 1.0, size)
        h = special.ndtri(ug[1:-1])
        hh, kk = (a.ravel() for a in np.meshgrid(h, h, indexing="ij"))
        ref = np.max(np.abs(_bvn_cdf(hh, kk, *after) - _bvn_cdf(hh, kk, *before)))
        got = sup_difference(ug, theta0, theta1)
        assert got.shape == ()
        assert abs(got - ref) <= 1e-14
        assert (got == 0.0) == (theta0 == theta1)


def test_sup_difference_broadcasts_and_edge_grid():
    theta0 = np.array([0.1, 0.7, 1.2])
    got = sup_difference(np.linspace(0.0, 1.0, 20), theta0, 0.5)
    assert got.shape == (3,)
    for th, g in zip(theta0, got):
        assert g == sup_difference(np.linspace(0.0, 1.0, 20), th, 0.5)
    # no interior point: the kernel is the same at every clock
    np.testing.assert_array_equal(sup_difference(np.array([0.0, 1.0]), theta0, 0.5),
                                  np.zeros(3))


def test_diagonal_cell_dominates():
    """No cell with |h|, |k| >= h* has a larger integrand than (h*, h*), at any angle."""
    rng = np.random.default_rng(12)
    m = 100_000
    theta = rng.uniform(0.0, 0.5 * math.pi, size=m)
    h_star = rng.uniform(0.0, 3.0, size=m)
    h = np.where(rng.random(m) < 0.5, -1.0, 1.0) * (h_star + rng.exponential(1.0, size=m))
    k = np.where(rng.random(m) < 0.5, -1.0, 1.0) * (h_star + rng.exponential(1.0, size=m))
    sin, cos2 = np.sin(theta), np.cos(theta) ** 2
    cell = (h * h + k * k - 2.0 * h * k * sin) / (2.0 * cos2)
    diagonal = h_star ** 2 / (1.0 + sin)
    assert np.all(cell >= diagonal * (1.0 - 1e-12))


def test_clock_angle_branches():
    assert clock_angle(0.0, 0.0) == 0.0
    assert clock_angle(0.0, 1.0) == 0.0
    assert clock_angle(1.0, 1.0) == 0.5 * math.pi
    assert clock_angle(1.0, 1.0 + 1e-13) == 0.5 * math.pi
    assert clock_angle(0.3, 0.7) == clock_angle(0.7, 0.3)
    assert math.sin(clock_angle(1.0, 2.0)) == pytest.approx(math.sqrt(0.5), rel=1e-15)
    with pytest.raises(ValueError):
        clock_angle(-0.1, 1.0)
    with pytest.raises(ValueError):
        clock_angle(0.5, math.nan)
