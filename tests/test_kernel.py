"""Tests for the copula kernel, its gradient, and the vectorized grid routines."""

import math

import numpy as np
import pytest
from scipy.special import ndtr, ndtri
from scipy.stats import multivariate_normal

from hfcopula.gaussmath import QuadratureConfig, QuadratureError
from hfcopula.kernel import (
    KernelConfig,
    NearDiagonalError,
    TimePair,
    UnitPair,
    clock_angle,
    grad_psi,
    grad_psi_grid,
    psi,
    psi_difference,
    psi_grid,
    uv_cells,
)

# P(Z1 <= Phi^-1(0.7), Z2 <= Phi^-1(0.3)) at corr sqrt(3/7); mpmath double
# integral, cross-checked against scipy multivariate_normal.cdf
C_03_07_07_03 = 0.2825701629284019

# finite differences of psi need quadrature noise well under the FD scale
FD_CONFIG = KernelConfig(quad=QuadratureConfig(abs_tol=1e-13))


def test_diagonal_branch():
    assert psi(TimePair(1.0, 1.0), UnitPair(0.3, 0.6)) == 0.3


def test_zero_time_branch():
    assert psi(TimePair(0.0, 1.0), UnitPair(0.4, 0.9)) == pytest.approx(0.36, abs=1e-15)
    assert psi(TimePair(0.0, 0.0), UnitPair(0.4, 0.9)) == pytest.approx(0.36, abs=1e-15)


def test_orthant_probability():
    # equal quantiles at u=v=0.5: 1/4 + arcsin(rho)/(2 pi), rho = sqrt(1/2)
    val = psi(TimePair(1.0, 2.0), UnitPair(0.5, 0.5))
    assert val == pytest.approx(0.375, abs=1e-8)


def test_bivariate_normal_oracle_point():
    val = psi(TimePair(0.3, 0.7), UnitPair(0.7, 0.3))
    assert val == pytest.approx(C_03_07_07_03, abs=1e-8)


def test_boundary_shortcuts():
    tp = TimePair(0.4, 1.3)
    assert psi(tp, UnitPair(0.0, 0.6)) == 0.0
    assert psi(tp, UnitPair(0.6, 0.0)) == 0.0
    assert psi(tp, UnitPair(0.6, 1.0)) == 0.6
    assert psi(tp, UnitPair(1.0, 0.6)) == 0.6


def test_time_symmetry_exact():
    rng = np.random.default_rng(3)
    for _ in range(20):
        s, t = sorted(rng.uniform(0.05, 3.0, size=2))
        u, v = rng.uniform(0.0, 1.0, size=2)
        a = psi(TimePair(s, t), UnitPair(u, v))
        b = psi(TimePair(t, s), UnitPair(u, v))
        assert a == b


def test_diagonal_continuity():
    """psi(1, 1+eps) approaches min(u,v) as eps shrinks, in order.

    The gap saturates at exactly 0 in double precision once eps <= 1e-3,
    so the ordering is nonstrict."""
    up = UnitPair(0.4, 0.6)
    gaps = [abs(psi(TimePair(1.0, 1.0 + eps), up) - 0.4)
            for eps in (1e-1, 1e-2, 1e-3, 1e-4)]
    assert all(b <= a for a, b in zip(gaps, gaps[1:]))
    assert gaps[0] > gaps[-1]
    assert gaps[-1] < 1e-8


def test_independence_limit():
    up = UnitPair(0.3, 0.8)
    gaps = [abs(psi(TimePair(1.0, t), up) - 0.24) for t in (1e2, 1e4, 1e6)]
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
        val = psi(TimePair(s, t), UnitPair(u, v))
        assert 0.0 <= val <= 1.0


def _fd_gradient(s, t, u, v, h=1e-5):
    up = UnitPair(u, v)
    d_t = (psi(TimePair(s, t + h), up, FD_CONFIG)
           - psi(TimePair(s, t - h), up, FD_CONFIG)) / (2.0 * h)
    d_s = (psi(TimePair(s + h, t), up, FD_CONFIG)
           - psi(TimePair(s - h, t), up, FD_CONFIG)) / (2.0 * h)
    return d_t, d_s


@pytest.mark.parametrize("point", [(1.0, 2.0, 0.5, 0.5), (0.3, 0.7, 0.7, 0.3)])
def test_gradient_matches_finite_differences(point):
    s, t, u, v = point
    g_t, g_s = grad_psi(TimePair(s, t), UnitPair(u, v))
    f_t, f_s = _fd_gradient(s, t, u, v)
    assert abs(g_t - f_t) <= 1e-5 * max(abs(f_t), 1e-12)
    assert abs(g_s - f_s) <= 1e-5 * max(abs(f_s), 1e-12)


def test_gradient_vanishing_u():
    g_t, g_s = grad_psi(TimePair(0.5, 1.5), UnitPair(1e-6, 0.5))
    assert abs(g_t) < 1e-5
    assert abs(g_s) < 1e-5


def test_gradient_domain_errors():
    up = UnitPair(0.5, 0.5)
    with pytest.raises(ValueError):
        grad_psi(TimePair(2.0, 1.0), up)  # s > t
    with pytest.raises(ValueError):
        grad_psi(TimePair(0.0, 1.0), up)  # s = 0
    with pytest.raises(ValueError):
        grad_psi(TimePair(1.0, 2.0), UnitPair(0.0, 0.5))
    with pytest.raises(ValueError):
        grad_psi(TimePair(1.0, 2.0), UnitPair(0.5, 1.0))


def test_gradient_near_diagonal_error():
    with pytest.raises(NearDiagonalError):
        grad_psi(TimePair(1.0, 1.0 + 1e-13), UnitPair(0.5, 0.5))


def test_quadrature_failure_names_the_query():
    cfg = KernelConfig(quad=QuadratureConfig(abs_tol=1e-16, max_subdivisions=1))
    with pytest.raises(QuadratureError) as exc:
        psi(TimePair(0.3, 0.30001), UnitPair(0.45, 0.55), cfg)
    msg = str(exc.value)
    assert "s=" in msg and "t=" in msg and "u=" in msg and "v=" in msg


def test_pair_validation():
    with pytest.raises(ValueError):
        TimePair(-0.1, 1.0)
    with pytest.raises(ValueError):
        TimePair(0.0, math.inf)
    with pytest.raises(ValueError):
        UnitPair(-0.01, 0.5)
    with pytest.raises(ValueError):
        UnitPair(0.5, 1.01)
    with pytest.raises(ValueError):
        KernelConfig(diag_rel_tol=-1e-12)


def test_grid_matches_scalar_route():
    """The vectorized grid shares branch logic but integrates differently;
    both routes must agree."""
    ug = np.array([0.0, 0.05, 0.3, 0.5, 0.7, 0.95, 1.0])
    vg = np.array([0.0, 0.1, 0.25, 0.5, 0.8, 0.9, 1.0])
    for s, t in ((0.3, 0.7), (1.0, 2.0), (0.05, 1.8), (0.9, 1.0)):
        grid = psi_grid(s, t, ug, vg)
        for i, u in enumerate(ug):
            for j, v in enumerate(vg):
                ref = psi(TimePair(s, t), UnitPair(float(u), float(v)))
                assert grid[i, j] == pytest.approx(ref, abs=1e-8)


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
    ug = np.array([0.0, 0.2, 0.5, 0.7, 1.0])
    vg = np.array([0.0, 0.3, 0.5, 0.9, 1.0])
    for s, t in ((0.3, 0.7), (1.0, 2.0)):
        d_t, d_s = grad_psi_grid(s, t, ug, vg)
        for i, u in enumerate(ug):
            for j, v in enumerate(vg):
                if u in (0.0, 1.0) or v in (0.0, 1.0):
                    assert math.isnan(d_t[i, j]) and math.isnan(d_s[i, j])
                    continue
                rt, rs = grad_psi(TimePair(s, t), UnitPair(float(u), float(v)))
                assert d_t[i, j] == pytest.approx(rt, abs=1e-8)
                assert d_s[i, j] == pytest.approx(rs, abs=1e-8)


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


def _bvn_cdf(h, k, s, t):
    """Phi2(h, k; sqrt(min/max)) from scipy, independent of the library."""
    lo, hi = min(s, t), max(s, t)
    r = math.sqrt(lo / hi)
    if r == 1.0:
        return np.minimum(ndtr(h), ndtr(k))
    dist = multivariate_normal(mean=[0.0, 0.0], cov=[[1.0, r], [r, 1.0]])
    return dist.cdf(np.column_stack([h, k]))


@pytest.mark.parametrize("before, after", [
    ((0.0, 1.0), (0.99 ** 2, 1.0)),           # rho 0 -> 0.99, from the lo == 0 branch
    ((0.25, 1.0), (0.9999 ** 2, 1.0)),        # wide range ending near 1
    ((0.99 ** 2, 1.0), (0.99999 ** 2, 1.0)),
    ((0.7, 0.3), (0.31, 0.7)),                # narrow, times in either order
    ((2.0, 1.0), (0.5, 2.0)),                 # correlation falls
    ((1.0, 1.0 + 1e-4), (1.0, 1.0 + 2e-4)),   # relative clock gaps of 1e-4
    ((0.5, 1.0), (1.0, 1.0 + 1e-4)),
    ((0.5, 1.0), (1.0, 1.0)),                 # to the diagonal branch, rho = 1
])
def test_psi_difference_matches_bivariate_normal(before, after):
    ug = np.linspace(0.0, 1.0, 21)
    iu, iv = np.triu_indices(ug.size - 2)
    h, k = ndtri(ug[1:-1][iu]), ndtri(ug[1:-1][iv])
    got = psi_difference(*uv_cells(ug), clock_angle(*before), clock_angle(*after))
    ref = _bvn_cdf(h, k, *after) - _bvn_cdf(h, k, *before)
    assert np.max(np.abs(got - ref)) <= 1e-12


def test_psi_difference_equal_angles_is_zero():
    theta = clock_angle(0.3, 0.7)
    d, b = uv_cells(np.linspace(0.05, 0.95, 7))
    assert np.all(psi_difference(d, b, theta, theta) == 0.0)


def test_uv_cells_interior_upper_triangle():
    d, b = uv_cells(np.linspace(0.0, 1.0, 6))
    assert d.shape == b.shape == (10,)  # 4 interior points, cells u <= v
    assert uv_cells(np.array([0.0, 1.0]))[0].size == 0
    with pytest.raises(ValueError):
        uv_cells(np.array([0.5, 0.2]))


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
