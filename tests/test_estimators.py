"""Tests for realized variation, quarticity, the plug-in copula estimate,
the feasible variance, and confidence intervals."""

import math

import numpy as np
import pytest

from hfcopula.estimators import (
    CopulaEstimate,
    CopulaQuery,
    SampledPath,
    boundary_aware_interval,
    copula_estimate,
    estimate_columns,
    interval_bounds,
    quarticity,
    realized_variation,
    variance_estimate,
    variance_quadratic_form,
)
from hfcopula.kernel import NearDiagonalError
from hfcopula.simulate import ConstantVol, SimConfig, simulate_scenario

# worked example: increments 0.1, -0.2, 0.3 at n = 3
TOY = SampledPath(values=np.array([0.0, 0.1, -0.1, 0.2]), n=3, horizon=1.0)


def test_path_validation():
    with pytest.raises(ValueError):
        SampledPath(values=np.array([0.0, 1.0]), n=3, horizon=1.0)  # wrong length
    with pytest.raises(ValueError):
        SampledPath(values=np.array([0.0, np.nan, 1.0, 2.0]), n=3, horizon=1.0)
    with pytest.raises(ValueError):
        SampledPath(values=np.array([0.0, 1.0]), n=0, horizon=1.0)
    with pytest.raises(ValueError):
        SampledPath(values=np.array([[0.0, 1.0]]), n=1, horizon=1.0)
    with pytest.raises(ValueError):
        SampledPath(values=np.array([0.0, 1.0]), n=True, horizon=1.0)
    with pytest.raises(ValueError):
        SampledPath(values=np.array([0.0, 1.0]), n=1, horizon=True)


def test_realized_variation_toy():
    assert realized_variation(TOY, 1.0) == pytest.approx(0.14, abs=1e-15)
    assert realized_variation(TOY, 1.0 / 3.0) == pytest.approx(0.01, abs=1e-15)
    assert realized_variation(TOY, 0.0) == 0.0


def test_quarticity_toy():
    # (n/3) * (0.1^4 + 0.2^4 + 0.3^4) with n = 3
    assert quarticity(TOY, 1.0) == pytest.approx(0.0098, abs=1e-15)


def test_floor_truncation_exactness():
    """t = k/n and t + 0.49/n see the same increments."""
    rng = np.random.default_rng(2)
    n = 50
    path = SampledPath(values=np.concatenate([[0.0], np.cumsum(rng.standard_normal(n))]),
                       n=n, horizon=1.0)
    for k in (1, 7, 20, 49):
        t = k / n
        assert realized_variation(path, t) == realized_variation(path, t + 0.49 / n)
        assert quarticity(path, t) == quarticity(path, t + 0.49 / n)


def test_step_functions_nondecreasing():
    rng = np.random.default_rng(4)
    n = 200
    path = SampledPath(values=np.concatenate([[0.0], np.cumsum(rng.standard_normal(n) / math.sqrt(n))]),
                       n=n, horizon=1.0)
    ts = np.sort(rng.uniform(0.0, 1.0, size=100))
    rv = [realized_variation(path, float(t)) for t in ts]
    q4 = [quarticity(path, float(t)) for t in ts]
    assert all(b >= a >= 0.0 for a, b in zip(rv, rv[1:]))
    assert all(b >= a >= 0.0 for a, b in zip(q4, q4[1:]))


def test_copula_estimate_boundary_and_flat():
    assert copula_estimate(TOY, CopulaQuery(s=0.5, t=1.0, u=0.0, v=0.7)) == 0.0
    # no increments inside (s, t] leaves realized variations equal: diagonal branch
    flat = SampledPath(values=np.array([0.0, 0.5, 0.5, 0.5, 0.7]), n=4, horizon=1.0)
    val = copula_estimate(flat, CopulaQuery(s=0.25, t=0.75, u=0.3, v=0.8))
    assert val == 0.3


def test_copula_estimate_sigma_one():
    """Plug-in value near the known copula at (1,2,0.5,0.5) across seeds."""
    for seed in (0, 1, 2):
        scn = simulate_scenario(ConstantVol(1.0), SimConfig(n=10_000, horizon=2.0, seed=seed))
        val = copula_estimate(scn.path, CopulaQuery(s=1.0, t=2.0, u=0.5, v=0.5))
        assert abs(val - 0.375) <= 0.02


def test_variance_quadratic_form():
    assert variance_quadratic_form(0.4, -0.2, 0.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        variance_quadratic_form(0.4, -0.2, 0.5, 0.7)  # q_t < q_s
    # matches 2 * (g' M g) computed longhand
    g_t, g_s, q_t, q_s = 0.3, -0.1, 0.9, 0.4
    longhand = 2.0 * (q_t * g_t * g_t + 2.0 * q_s * g_t * g_s + q_s * g_s * g_s)
    assert variance_quadratic_form(g_t, g_s, q_t, q_s) == pytest.approx(longhand, rel=1e-15)


def test_variance_vanishing_u():
    scn = simulate_scenario(ConstantVol(1.0), SimConfig(n=500, seed=3))
    v = variance_estimate(scn.path, CopulaQuery(s=0.3, t=0.7, u=1e-9, v=0.5))
    assert 0.0 <= v < 1e-12


def test_variance_zero_quarticity():
    # constant path has zero increments everywhere: quarticity vanishes,
    # but so do the realized variations, which is the near-diagonal case
    path = SampledPath(values=np.zeros(5), n=4, horizon=1.0)
    with pytest.raises(NearDiagonalError):
        variance_estimate(path, CopulaQuery(s=0.25, t=0.75, u=0.3, v=0.7))


def test_variance_nonnegative_on_random_queries():
    rng = np.random.default_rng(12)
    paths = [simulate_scenario(ConstantVol(1.0), SimConfig(n=400, seed=s)).path
             for s in range(5)]
    count = 0
    while count < 1000:
        path = paths[count % len(paths)]
        s, t = np.sort(rng.uniform(0.05, 1.0, size=2))
        if t - s < 0.05:
            continue
        u, v = rng.uniform(0.05, 0.95, size=2)
        v_hat = variance_estimate(path, CopulaQuery(s=float(s), t=float(t),
                                                    u=float(u), v=float(v)))
        assert v_hat >= 0.0
        count += 1


def test_variance_requires_interior_uv():
    scn = simulate_scenario(ConstantVol(1.0), SimConfig(n=100, seed=0))
    with pytest.raises(ValueError):
        variance_estimate(scn.path, CopulaQuery(s=0.3, t=0.7, u=0.0, v=0.5))


def test_near_diagonal_coinciding_realized_variations():
    flat = SampledPath(values=np.array([0.0, 0.5, 0.5, 0.5, 0.7]), n=4, horizon=1.0)
    with pytest.raises(NearDiagonalError):
        variance_estimate(flat, CopulaQuery(s=0.25, t=0.75, u=0.3, v=0.7))


def test_interval_bounds_arithmetic():
    # 0.5 +- 1.959964 * sqrt(0.04 / 1e4), inside the Frechet box for (0.7, 0.6)
    center, lo, hi = interval_bounds(0.5, 0.04, 10_000, 0.7, 0.6, 0.95)
    assert center == 0.5
    assert lo == pytest.approx(0.496080, abs=1e-6)
    assert hi == pytest.approx(0.503920, abs=1e-6)


def test_interval_bounds_frechet_clipping():
    _, _, hi = interval_bounds(0.009, 0.04, 100, 0.99, 0.01, 0.95)
    assert hi <= 0.01
    _, lo, _ = interval_bounds(0.31, 0.04, 100, 0.7, 0.6, 0.95)
    assert lo >= 0.7 + 0.6 - 1.0


def test_interval_bounds_arrays_match_scalar_calls():
    rng = np.random.default_rng(21)
    u, v = rng.uniform(0.0, 1.0, size=(2, 200))
    c_hat = np.minimum(u, v) * rng.uniform(0.9, 1.1, size=200)
    v_hat = rng.uniform(0.0, 0.5, size=200)
    got = interval_bounds(c_hat, v_hat, 100, u, v, 0.9)
    for i in range(200):
        ref = interval_bounds(float(c_hat[i]), float(v_hat[i]), 100, float(u[i]), float(v[i]), 0.9)
        assert tuple(arr[i] for arr in got) == ref


def test_interval_degenerate_variance():
    center, lo, hi = interval_bounds(0.42, 0.0, 100, 0.5, 0.6, 0.95)
    assert lo == center == hi == 0.42


def test_boundary_aware_interval_interior_fields():
    scn = simulate_scenario(ConstantVol(1.0), SimConfig(n=2000, seed=5))
    est = boundary_aware_interval(scn.path, CopulaQuery(s=0.3, t=0.7, u=0.7, v=0.3), 0.95)
    assert isinstance(est, CopulaEstimate)
    assert 0.0 <= est.ci_lo <= est.c_hat <= est.ci_hi <= 1.0
    assert est.v_hat > 0.0
    assert est.level == 0.95


def test_boundary_aware_interval():
    scn = simulate_scenario(ConstantVol(1.0), SimConfig(n=2000, seed=5))
    est = boundary_aware_interval(scn.path, CopulaQuery(s=0.3, t=0.7, u=0.0, v=0.3), 0.95)
    assert est.c_hat == est.ci_lo == est.ci_hi == 0.0
    assert est.v_hat == 0.0
    est = boundary_aware_interval(scn.path, CopulaQuery(s=0.3, t=0.7, u=0.4, v=1.0), 0.95)
    assert est.c_hat == est.ci_lo == est.ci_hi
    assert est.c_hat == 0.4  # v = 1 pins the copula to u
    for u in (0.0, 0.7):
        with pytest.raises(ValueError, match="level must lie in"):
            boundary_aware_interval(scn.path, CopulaQuery(s=0.3, t=0.7, u=u, v=0.3), 1.5)


def _mixed_queries(path):
    """Interior, boundary, lower-tail, repeated and reversed (s, t) rows."""
    rng = np.random.default_rng(17)
    m = 40
    s = rng.uniform(0.05, 0.9, m)
    t = rng.uniform(0.05, 0.9, m)
    u = rng.uniform(0.02, 0.98, m)
    v = rng.uniform(0.02, 0.98, m)
    u[:5], v[5:10] = (0.0, 1.0, 0.0, 1.0, 0.0), (1.0, 0.0, 1.0, 0.0, 1.0)  # boundary
    v[10:14] = (1e-12, 2e-12, 5e-13, 1e-12)                                 # lower tail
    s[14:18], t[14:18] = s[20], t[20]                                       # repeated pair
    return s, t, u, v


def test_estimate_columns_match_per_row_intervals():
    """Each row of the columnar pass is the one-row estimate, to rounding."""
    path = simulate_scenario(ConstantVol(1.0), SimConfig(n=5000, seed=3)).path
    s, t, u, v = _mixed_queries(path)
    level = np.where(np.arange(s.size) % 2, 0.9, 0.99)
    est = estimate_columns(path, s, t, u, v, level)
    assert set(est) == {"c_hat", "v_hat", "ci_lo", "ci_hi", "rv_s", "rv_t"}
    for i in range(s.size):
        ref = boundary_aware_interval(
            path, CopulaQuery(float(s[i]), float(t[i]), float(u[i]), float(v[i])),
            float(level[i]))
        assert est["rv_s"][i] == realized_variation(path, float(s[i]))
        assert est["rv_t"][i] == realized_variation(path, float(t[i]))
        for key in ("c_hat", "v_hat", "ci_lo", "ci_hi"):
            want = getattr(ref, key)
            assert abs(est[key][i] - want) <= 1e-14 * want, (i, key)
        if u[i] in (0.0, 1.0) or v[i] in (0.0, 1.0):
            assert est["v_hat"][i] == 0.0
            assert est["ci_lo"][i] == est["c_hat"][i] == est["ci_hi"][i] == ref.c_hat
    # and the scalar kernel route, one query at a time, agrees on every row
    for i in range(s.size):
        q = CopulaQuery(float(s[i]), float(t[i]), float(u[i]), float(v[i]))
        want = copula_estimate(path, q)
        assert abs(est["c_hat"][i] - want) <= 1e-14 * want
        if 0.0 < u[i] < 1.0 and 0.0 < v[i] < 1.0:
            want = variance_estimate(path, q)
            assert abs(est["v_hat"][i] - want) <= 1e-14 * want


def test_estimate_columns_errors_follow_row_order():
    path = simulate_scenario(ConstantVol(1.0), SimConfig(n=100, seed=3)).path
    # row 1: both times in one grid cell (coincide); row 2: s before the first step
    s, t = np.array([0.3, 0.7, 0.001]), np.array([0.6, 0.701, 0.7])
    with pytest.raises(NearDiagonalError, match="coincide"):
        estimate_columns(path, s, t, 0.5, 0.5, 0.95)
    with pytest.raises(ValueError, match="s > 0"):
        estimate_columns(path, s[::-1], t[::-1], 0.5, 0.5, 0.95)
    with pytest.raises(ValueError, match="time 1.5 outside"):
        estimate_columns(path, np.array([0.3, 1.5]), 0.7, 0.5, 0.5, 0.95)
    # a boundary row's level is checked with the interval, as for one row
    with pytest.raises(ValueError, match="level must lie in .* got 1.5"):
        estimate_columns(path, 0.3, 0.7, np.array([0.5, 0.0]), 0.5, np.array([0.9, 1.5]))


def test_indices_at_matches_index_at():
    ts = np.array([0.0, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.9999999999, 1.0])
    np.testing.assert_array_equal(TOY.indices_at(ts), [TOY.index_at(float(x)) for x in ts])
    for bad in (1.5, -0.1, math.nan):
        with pytest.raises(ValueError):
            TOY.indices_at(np.array([0.5, bad]))


def test_overflowing_increments_rejected():
    with pytest.raises(ValueError, match="overflow"):
        SampledPath(values=np.array([0.0, 1e80, 0.0, 1.0]), n=3, horizon=1.0)


def test_query_validation():
    with pytest.raises(ValueError):
        CopulaQuery(s=0.0, t=0.7, u=0.5, v=0.5)
    with pytest.raises(ValueError):
        CopulaQuery(s=0.3, t=0.7, u=1.2, v=0.5)
    with pytest.raises(ValueError):
        CopulaQuery(s=0.3, t=True, u=0.5, v=0.5)
    with pytest.raises(ValueError):
        CopulaQuery(s=0.3, t=0.7, u=0.5, v=True)
    with pytest.raises(ValueError):
        CopulaEstimate(c_hat=0.5, v_hat=-1.0, ci_lo=0.4, ci_hi=0.6, level=0.95)
    with pytest.raises(ValueError):
        CopulaEstimate(c_hat=0.5, v_hat=0.1, ci_lo=0.6, ci_hi=0.4, level=0.95)


def test_index_at_guard():
    assert TOY.index_at(1.0) == 3
    assert TOY.index_at(2.0 / 3.0) == 2
    # float rounding below a grid point must not lose the increment
    assert TOY.index_at(0.9999999999) == 3
    with pytest.raises(ValueError):
        TOY.index_at(1.5)
