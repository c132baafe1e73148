"""Tests for realized variation, quarticity, the plug-in copula estimate,
the feasible variance, and confidence intervals."""

import math
import re
from functools import partial

import numpy as np
import pytest

from hfcopula import estimators
from hfcopula.estimators import (
    SampledPath,
    boundary_aware_interval,
    copula_estimate,
    interval_bounds,
    quarticity,
    realized_variation,
    variance_estimate,
)
from hfcopula.kernel import NearDiagonalError, clock_angle, grad_psi
from hfcopula.simulate import DEFAULT_CIR, ConstantVol, SimConfig, simulate_scenario

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
    assert copula_estimate(TOY, 0.5, 1.0, 0.0, 0.7) == 0.0
    # no increments inside (s, t] leaves realized variations equal: diagonal branch
    flat = SampledPath(values=np.array([0.0, 0.5, 0.5, 0.5, 0.7]), n=4, horizon=1.0)
    val = copula_estimate(flat, 0.25, 0.75, 0.3, 0.8)
    assert val == 0.3


def test_copula_estimate_sigma_one():
    """Plug-in value near the known copula at (1,2,0.5,0.5) across seeds."""
    for seed in (0, 1, 2):
        scn = simulate_scenario(ConstantVol(1.0), SimConfig(n=10_000, horizon=2.0, seed=seed))
        val = copula_estimate(scn.path, 1.0, 2.0, 0.5, 0.5)
        assert abs(val - 0.375) <= 0.02


def test_variance_quadratic_form():
    """variance_estimate is 2 g'Mg, g the kernel gradient at the realized variations
    and M = [[q_late, q_early], [q_early, q_early]], whichever time comes first."""
    path = simulate_scenario(DEFAULT_CIR, SimConfig(n=2000, seed=4)).path
    rng = np.random.default_rng(5)
    s, t = rng.uniform(0.05, 1.0, (2, 200))
    keep = np.abs(s - t) > 0.05
    s, t = s[keep], t[keep]
    u, v = rng.uniform(0.02, 0.98, (2, s.size))
    got = variance_estimate(path, s, t, u, v)
    early, late = np.minimum(s, t), np.maximum(s, t)
    g_t, g_s = grad_psi(realized_variation(path, early), realized_variation(path, late), u, v)
    q_t, q_s = quarticity(path, late), quarticity(path, early)
    longhand = 2.0 * (q_t * g_t * g_t + 2.0 * q_s * g_t * g_s + q_s * g_s * g_s)
    # the longhand's middle term cancels, so bound the error by the terms' size
    terms = 2.0 * (q_t * g_t * g_t + 2.0 * q_s * np.abs(g_t * g_s) + q_s * g_s * g_s)
    assert np.all(np.abs(got - longhand) <= 1e-15 * terms)
    assert np.all(got > 0.0)
    assert variance_estimate(path, t, s, u, v).tobytes() == got.tobytes()


def test_variance_vanishing_u():
    scn = simulate_scenario(ConstantVol(1.0), SimConfig(n=500, seed=3))
    v = variance_estimate(scn.path, 0.3, 0.7, 1e-9, 0.5)
    assert 0.0 <= v < 1e-12


def test_variance_zero_quarticity():
    # constant path has zero increments everywhere: quarticity vanishes,
    # but so do the realized variations, which is the near-diagonal case
    path = SampledPath(values=np.zeros(5), n=4, horizon=1.0)
    with pytest.raises(NearDiagonalError):
        variance_estimate(path, 0.25, 0.75, 0.3, 0.7)


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
        v_hat = variance_estimate(path, float(s), float(t), float(u), float(v))
        assert v_hat >= 0.0
        count += 1


def test_variance_requires_interior_uv():
    scn = simulate_scenario(ConstantVol(1.0), SimConfig(n=100, seed=0))
    with pytest.raises(ValueError):
        variance_estimate(scn.path, 0.3, 0.7, 0.0, 0.5)


def test_near_diagonal_coinciding_realized_variations():
    flat = SampledPath(values=np.array([0.0, 0.5, 0.5, 0.5, 0.7]), n=4, horizon=1.0)
    with pytest.raises(NearDiagonalError):
        variance_estimate(flat, 0.25, 0.75, 0.3, 0.7)


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
    # edge cells, each with a finite and a NaN v_hat: at (1, 0.1), u + v - 1
    # rounds above v, so a clipped lower end would pass the center
    edges = np.repeat([(1.0, 0.1, 0.1), (0.0, 0.4, 0.0), (0.6, 1.0, 0.6)], 2, axis=0)
    u, v, c_hat = (np.concatenate([col, edge]) for col, edge in zip((u, v, c_hat), edges.T))
    v_hat = np.concatenate([v_hat, np.tile([0.04, math.nan], 3)])
    got = interval_bounds(c_hat, v_hat, 100, u, v, 0.9)
    for i in range(u.size):
        ref = interval_bounds(float(c_hat[i]), float(v_hat[i]), 100, float(u[i]), float(v[i]), 0.9)
        assert tuple(arr[i] for arr in got) == ref
        assert {type(end) for end in ref} == {np.float64}
        if i >= 200:
            assert ref == (c_hat[i],) * 3


def test_interval_degenerate_variance():
    center, lo, hi = interval_bounds(0.42, 0.0, 100, 0.5, 0.6, 0.95)
    assert lo == center == hi == 0.42


def _one_row(path, s, t, u, v, level):
    """The single row of a one-query call, as floats."""
    est = boundary_aware_interval(path, s, t, u, v, level)
    assert {col.shape for col in est.values()} == {(1,)}
    return {key: col.item() for key, col in est.items()}


def test_boundary_aware_interval_interior_fields():
    scn = simulate_scenario(ConstantVol(1.0), SimConfig(n=2000, seed=5))
    est = _one_row(scn.path, 0.3, 0.7, 0.7, 0.3, 0.95)
    assert set(est) == {"c_hat", "v_hat", "ci_lo", "ci_hi", "rv_s", "rv_t"}
    assert 0.0 <= est["ci_lo"] <= est["c_hat"] <= est["ci_hi"] <= 1.0
    assert est["v_hat"] > 0.0
    assert est["rv_s"] == realized_variation(scn.path, 0.3)
    assert est["rv_t"] == realized_variation(scn.path, 0.7)


def test_boundary_aware_interval():
    scn = simulate_scenario(ConstantVol(1.0), SimConfig(n=2000, seed=5))
    est = _one_row(scn.path, 0.3, 0.7, 0.0, 0.3, 0.95)
    assert est["c_hat"] == est["ci_lo"] == est["ci_hi"] == 0.0
    assert est["v_hat"] == 0.0
    est = _one_row(scn.path, 0.3, 0.7, 0.4, 1.0, 0.95)
    assert est["c_hat"] == est["ci_lo"] == est["ci_hi"]
    assert est["c_hat"] == 0.4  # v = 1 pins the copula to u
    for u in (0.0, 0.7):
        with pytest.raises(ValueError, match=r"^query row 1: level must be a finite real in "
                                             r"\(0, 1\), got 1.5$"):
            boundary_aware_interval(scn.path, 0.3, 0.7, u, 0.3, 1.5)


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


def test_boundary_aware_interval_rows_match_one_row_calls():
    """Each row of a many-query call is the one-query estimate, to rounding."""
    path = simulate_scenario(ConstantVol(1.0), SimConfig(n=5000, seed=3)).path
    s, t, u, v = _mixed_queries(path)
    level = np.where(np.arange(s.size) % 2, 0.9, 0.99)
    est = boundary_aware_interval(path, s, t, u, v, level)
    assert set(est) == {"c_hat", "v_hat", "ci_lo", "ci_hi", "rv_s", "rv_t"}
    for i in range(s.size):
        ref = _one_row(path, float(s[i]), float(t[i]), float(u[i]), float(v[i]),
                       float(level[i]))
        assert est["rv_s"][i] == realized_variation(path, float(s[i])) == ref["rv_s"]
        assert est["rv_t"][i] == realized_variation(path, float(t[i])) == ref["rv_t"]
        for key in ("c_hat", "v_hat", "ci_lo", "ci_hi"):
            want = ref[key]
            assert abs(est[key][i] - want) <= 1e-14 * want, (i, key)
        if u[i] in (0.0, 1.0) or v[i] in (0.0, 1.0):
            assert est["v_hat"][i] == 0.0
            assert est["ci_lo"][i] == est["c_hat"][i] == est["ci_hi"][i] == ref["c_hat"]
    # and the scalar kernel route, one query at a time, agrees on every row
    for i in range(s.size):
        q = (float(s[i]), float(t[i]), float(u[i]), float(v[i]))
        want = copula_estimate(path, *q)
        assert abs(est["c_hat"][i] - want) <= 1e-14 * want
        if 0.0 < u[i] < 1.0 and 0.0 < v[i] < 1.0:
            want = variance_estimate(path, *q)
            assert abs(est["v_hat"][i] - want) <= 1e-14 * want


def test_boundary_aware_interval_errors_follow_row_order():
    path = simulate_scenario(ConstantVol(1.0), SimConfig(n=100, seed=3)).path
    # row 1: both times in one grid cell (coincide); row 2: s before the first step
    s, t = np.array([0.3, 0.7, 0.001]), np.array([0.6, 0.701, 0.7])
    with pytest.raises(NearDiagonalError, match="coincide"):
        boundary_aware_interval(path, s, t, 0.5, 0.5, 0.95)
    with pytest.raises(ValueError, match="s > 0"):
        boundary_aware_interval(path, s[::-1], t[::-1], 0.5, 0.5, 0.95)
    with pytest.raises(ValueError, match=r"^query row 2: s must be a finite real in "
                                         r"\(0, horizon\] = \(0, 1.0\], got 1.5$"):
        boundary_aware_interval(path, np.array([0.3, 1.5]), 0.7, 0.5, 0.5, 0.95)
    # a boundary row's level is checked with the others, before any estimate
    with pytest.raises(ValueError, match="^query row 2: level .* got 1.5$"):
        boundary_aware_interval(path, 0.3, 0.7, np.array([0.5, 0.0]), 0.5, np.array([0.9, 1.5]))
    # the row check precedes the gradient's domain, whatever the rows' order
    with pytest.raises(ValueError, match="^query row 3: u .* got 2.0$"):
        boundary_aware_interval(path, s, t, np.array([0.5, 0.5, 2.0]), 0.5, 0.95)


def test_output_invariants_name_the_row(monkeypatch):
    path = simulate_scenario(ConstantVol(1.0), SimConfig(n=100, seed=3)).path
    u = np.array([0.0, 0.5, 0.6])

    def negative_variance(path, s, t, u, v):
        return np.full(np.shape(u), -1.0)

    monkeypatch.setattr(estimators, "variance_estimate", negative_variance)
    monkeypatch.setattr(estimators, "interval_bounds", lambda c, *args: (c, c, c))
    with pytest.raises(ValueError, match=r"^query row 2: need v_hat >= 0 .* got v_hat=-1.0,"):
        boundary_aware_interval(path, 0.3, 0.7, u, 0.5, 0.95)
    monkeypatch.undo()

    def reversed_interval(c, v_hat, n, u, v, level):
        return c, c + 0.01, c - 0.01

    monkeypatch.setattr(estimators, "interval_bounds", reversed_interval)
    with pytest.raises(ValueError, match=r"^query row 1: need .* ci_lo <= c_hat <= ci_hi"):
        boundary_aware_interval(path, 0.3, 0.7, u, 0.5, 0.95)


def _elementwise_cases():
    """Per function: the call, array arguments, and arguments whose second element
    is the first to fail (a later one fails another way)."""
    rng = np.random.default_rng(9)
    path = SampledPath(values=np.concatenate([[0.0], np.cumsum(rng.standard_normal(100) / 10.0)]),
                       n=100, horizon=1.0)
    times = np.concatenate([[0.0, 0.01, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.9999999999, 1.0],
                            rng.uniform(0.0, 1.0, 30)])
    s, t = rng.uniform(0.02, 1.0, (2, 40))
    s[:3] = t[:3]                                       # equal times: the diagonal
    t[3:6] = 0.0                                        # a zero clock
    u, v = rng.uniform(0.01, 0.99, (2, 40))
    u[6:10], v[10:14] = (0.0, 1.0, 0.0, 1.0), (1e-12, 5e-13, 1.0, 0.0)  # edges, tail
    # the gradient needs the times in distinct grid cells past the first
    far = (np.minimum(s, t) >= 0.01) & (np.abs(np.floor(100 * s) - np.floor(100 * t)) >= 1)
    far &= (u > 0.0) & (u < 1.0) & (v > 0.0) & (v < 1.0)
    clocks = np.array([0.0, 0.0, 1.0, 1.0, 0.3, 0.7, 2.0, 1e-300])
    return {
        "index_at": (path.index_at, (times,), (np.array([0.5, 1.5, math.nan]),)),
        "realized_variation": (partial(realized_variation, path), (times,),
                               (np.array([0.2, -0.1, 1.5]),)),
        "quarticity": (partial(quarticity, path), (times,), (np.array([0.2, math.nan, 2.0]),)),
        "copula_estimate": (partial(copula_estimate, path), (s, t, u, v),
                            (0.3, 0.7, np.array([0.5, 1.5, -1.0]), 0.5)),
        # row 1's times share a grid cell, row 2's s lies before the first step
        "variance_estimate": (partial(variance_estimate, path),
                              (s[far], t[far], u[far], v[far]),
                              (np.array([0.3, 0.7, 0.001]), np.array([0.6, 0.701, 0.7]),
                               0.5, 0.5)),
        "clock_angle": (clock_angle, (clocks, np.array([0.0, 1.0, 1.0, 1.0 + 1e-13, 0.7, 0.3,
                                                        1.0, 1e-300])),
                        (np.array([0.3, -0.1, 0.5]), np.array([0.7, 1.0, math.nan]))),
    }


def _element(args, i):
    return tuple(a.flat[i].item() for a in np.broadcast_arrays(*map(np.asarray, args)))


@pytest.mark.parametrize("name", sorted(_elementwise_cases()))
def test_array_input_matches_scalar_calls(name):
    """Array arguments give per-element scalar calls' results, and the first
    failing element decides the error."""
    fn, args, bad_args = _elementwise_cases()[name]
    got = fn(*args)
    want = [fn(*_element(args, i)) for i in range(got.size)]
    assert {type(w) for w in want} == {int if name == "index_at" else float}
    want = np.array(want, dtype=got.dtype)
    if name == "copula_estimate":
        # one kernel call sets its quadrature from the smallest u*v of all
        # its cells, so interior values agree within psi's 1e-14 contract;
        # the exact branches (edges, diagonal, zero clock) to the bit
        u, v = args[2:]
        exact = (u * v == 0.0) | (u == 1.0) | (v == 1.0) | (args[0] == args[1]) | (args[1] == 0.0)
        assert np.all(np.abs(got - want) <= 1e-14 * want)
        got, want = got[exact], want[exact]
    assert got.tobytes() == want.tobytes()
    with pytest.raises(Exception) as scalar_error:
        fn(*_element(bad_args, 1))
    with pytest.raises(type(scalar_error.value), match=f"^{re.escape(str(scalar_error.value))}$"):
        fn(*bad_args)


def test_prefix_sums_are_cumulative_sums_of_powers():
    rng = np.random.default_rng(8)
    n = 100_000
    steps = rng.standard_normal(n) * rng.exponential(size=n) / math.sqrt(n)
    vals = np.concatenate(([0.0], np.cumsum(steps)))
    path = SampledPath(values=vals, n=n, horizon=1.0)
    d = np.diff(vals)
    d2 = d * d
    assert path._sq_prefix.tobytes() == np.concatenate(([0.0], np.cumsum(d2))).tobytes()
    assert path._q4_prefix.tobytes() == np.concatenate(([0.0], np.cumsum(d2 * d2))).tobytes()


def test_overflowing_increments_rejected():
    with pytest.raises(ValueError, match="overflow"):
        SampledPath(values=np.array([0.0, 1e80, 0.0, 1.0]), n=3, horizon=1.0)


def test_query_validation():
    """The first bad field of a row decides the message, which prints a plain value."""
    path = simulate_scenario(ConstantVol(1.0), SimConfig(n=100, seed=3)).path
    time, unit = "a finite real in (0, horizon] = (0, 1.0]", "a finite real in [0, 1]"
    for query, message in [
        ((0.0, 0.7, 0.5, 0.5, 0.95), f"s must be {time}, got 0.0"),
        ((0.3, 0.7, 1.2, 0.5, 0.95), f"u must be {unit}, got 1.2"),
        ((0.3, True, 0.5, 0.5, 0.95), f"t must be {time}, got True"),
        ((0.3, 0.7, 0.5, True, 0.95), f"v must be {unit}, got True"),
        ((0.3, math.nan, 2.0, 0.5, 0.95), f"t must be {time}, got nan"),
        ((0.3, 0.7, -math.inf, 0.5, 0.95), f"u must be {unit}, got -inf"),
        ((0.3, 0.7, 0.5, 0.5, 1.0), "level must be a finite real in (0, 1), got 1.0"),
        ((0.3, 0.7, 0.5, 0.5, "0.9"), "level must be a finite real in (0, 1), got '0.9'"),
        ((np.float64(0.3), np.int64(2), 0.5, 0.5, 0.95), f"t must be {time}, got 2"),
    ]:
        with pytest.raises(ValueError, match=f"^query row 1: {re.escape(message)}$"):
            boundary_aware_interval(path, *query)
    # integers are reals
    assert boundary_aware_interval(path, 0.3, 1, 0.5, 1, 0.95)["c_hat"].tolist() == [0.5]


def test_index_at_guard():
    assert TOY.index_at(1.0) == 3
    assert TOY.index_at(2.0 / 3.0) == 2
    # float rounding below a grid point must not lose the increment
    assert TOY.index_at(0.9999999999) == 3
    assert TOY.index_at(np.int64(1)) == 3
    assert TOY.index_at(np.float64(1.0 / 3.0)) == 1
    with pytest.raises(ValueError):
        TOY.index_at(1.5)
    with pytest.raises(ValueError, match=r"^time 1.5 outside \[0, 1.0\]$"):
        TOY.index_at(np.float64(1.5))
    with pytest.raises(ValueError, match="^time must be a finite real, got nan$"):
        TOY.index_at(np.array([0.5, math.nan]))
    # booleans are not times, as a scalar or an array
    for bad in (True, False, np.True_, np.array([True, False]), "0.5", None):
        with pytest.raises(ValueError, match="time must be a finite real"):
            TOY.index_at(bad)
