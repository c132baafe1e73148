"""Tests for the CIR variance process and scenario generation."""

import math

import numpy as np
import pytest

from hfcopula.estimators import quarticity, realized_variation
from hfcopula.simulate import (
    DEFAULT_CIR,
    CirParams,
    ConstantVol,
    SimConfig,
    derive_streams,
    simulate_cir,
    simulate_scenario,
)


def test_feller_condition_enforced():
    with pytest.raises(ValueError, match=r"Feller condition 2\*kappa\*theta > nu\*\*2"):
        CirParams(kappa=0.1, theta=0.1, nu=1.0, s0=1.5)
    # equality is still a violation: the condition is strict
    with pytest.raises(ValueError, match="Feller"):
        CirParams(kappa=0.5, theta=1.0, nu=1.0, s0=1.5)
    CirParams(kappa=0.5, theta=1.5, nu=1.0, s0=1.5)  # paper defaults pass


def test_param_validation():
    with pytest.raises(ValueError):
        CirParams(kappa=-0.5, theta=1.5, nu=1.0, s0=1.5)
    with pytest.raises(ValueError):
        ConstantVol(sigma2=0.0)
    with pytest.raises(ValueError):
        SimConfig(n=0)
    with pytest.raises(ValueError):
        SimConfig(n=10, horizon=0.55)  # n * horizon not an integer
    with pytest.raises(ValueError):
        SimConfig(n=10, substeps=0)
    # bool is an int subclass; neither flag value is a count or a real
    for bad in ({"n": True}, {"n": 10, "horizon": True}, {"n": 10, "substeps": True},
                {"n": 10, "seed": False}):
        with pytest.raises(ValueError):
            SimConfig(**bad)
    with pytest.raises(ValueError):
        ConstantVol(sigma2=True)
    with pytest.raises(ValueError):
        CirParams(kappa=0.5, theta=1.5, nu=True, s0=1.5)


def test_cir_small_noise_tracks_ode():
    """As nu -> 0 the CIR path follows theta + (s0-theta)e^{-kappa t}."""
    params = CirParams(kappa=0.5, theta=1.5, nu=1e-8, s0=0.5)
    cfg = SimConfig(n=100, substeps=10, seed=0)
    sigma2 = simulate_cir(params, cfg, np.random.default_rng(0))
    ode_at_1 = 1.5 + (0.5 - 1.5) * math.exp(-0.5)
    assert abs(sigma2[-1] - ode_at_1) <= 1e-4


def test_cir_mean_at_one():
    """Sample mean of sigma2_1 matches the transition mean; s0 = theta keeps it flat."""
    params = CirParams(kappa=0.5, theta=1.5, nu=1.0, s0=1.5)
    cfg = SimConfig(n=10, substeps=10, seed=0)
    rng = np.random.default_rng(2024)
    total = 0.0
    reps = 10_000
    for _ in range(reps):
        total += simulate_cir(params, cfg, rng)[-1]
    assert abs(total / reps - 1.5) <= 0.02


def test_cir_positivity():
    params = CirParams(kappa=0.5, theta=1.5, nu=1.0, s0=1.5)
    cfg = SimConfig(n=10, substeps=2, seed=0)
    for seed in range(1000):
        sigma2 = simulate_cir(params, cfg, np.random.default_rng(seed))
        assert sigma2.min() > 0.0


def test_cir_path_length_and_start():
    cfg = SimConfig(n=25, horizon=2.0, substeps=4, seed=1)
    sigma2 = simulate_cir(CirParams(kappa=0.5, theta=1.5, nu=1.0, s0=1.5),
                          cfg, np.random.default_rng(1))
    assert sigma2.shape == (25 * 4 * 2 + 1,)
    assert sigma2[0] == 1.5


def _reference_cir(params, cfg, rng):
    """The exact transition step by step on numpy scalars: the oracle for simulate_cir."""
    total = cfg.intervals * cfg.substeps
    dt = 1.0 / (cfg.n * cfg.substeps)
    decay = math.exp(-params.kappa * dt)
    c = params.nu ** 2 * (1.0 - decay) / (4.0 * params.kappa)
    df = 4.0 * params.kappa * params.theta / params.nu ** 2
    sqc = math.sqrt(c)
    z = rng.standard_normal(total)
    y = rng.chisquare(df - 1.0, total)
    out = np.empty(total + 1)
    out[0] = x = params.s0
    for k in range(total):
        root = sqc * z[k] + math.sqrt(x * decay)
        x = root * root + c * y[k]
        out[k + 1] = x
    return out


# the paper's parameters, small noise, a start next to 0, and df - 1 just above 1
ORACLE_PARAMS = [
    DEFAULT_CIR,
    CirParams(kappa=0.5, theta=1.5, nu=1e-8, s0=0.5),
    CirParams(kappa=0.5, theta=1.5, nu=1.0, s0=1e-8),
    CirParams(kappa=0.5, theta=1.0, nu=0.9999995, s0=1.0),
]
# (n, horizon, substeps)
ORACLE_LAYOUTS = [(10_000, 1, 10), (100, 2, 3), (7, 3, 11), (1, 1, 1)]


@pytest.mark.parametrize("params", ORACLE_PARAMS)
@pytest.mark.parametrize("n, horizon, substeps", ORACLE_LAYOUTS)
def test_cir_matches_reference_recursion(params, n, horizon, substeps):
    for seed in (0, 7, 2 ** 64 - 1):
        cfg = SimConfig(n=n, horizon=horizon, substeps=substeps, seed=seed)
        got = simulate_cir(params, cfg, derive_streams(seed)[0])
        want = _reference_cir(params, cfg, derive_streams(seed)[0])
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n, horizon, substeps", ORACLE_LAYOUTS)
def test_cir_leaves_variance_stream_after_its_two_draws(n, horizon, substeps):
    """simulate_cir draws all normals, then all chi-squares, and nothing else."""
    seed = 11
    cfg = SimConfig(n=n, horizon=horizon, substeps=substeps, seed=seed)
    total = cfg.intervals * substeps
    df = 4.0 * DEFAULT_CIR.kappa * DEFAULT_CIR.theta / DEFAULT_CIR.nu ** 2
    rng = derive_streams(seed)[0]
    simulate_cir(DEFAULT_CIR, cfg, rng)
    fresh = derive_streams(seed)[0]
    fresh.standard_normal(total)
    fresh.chisquare(df - 1.0, total)
    assert rng.random() == fresh.random()


def test_constant_vol_brownian_moments():
    """sigma2 == 1 gives standard Brownian motion: realized variation at 1
    has mean 1 and variance about 2/n."""
    n = 500
    vals = np.array([
        realized_variation(simulate_scenario(ConstantVol(1.0), SimConfig(n=n, seed=s)).path, 1.0)
        for s in range(200)
    ])
    assert abs(vals.mean() - 1.0) <= 0.02
    assert abs(vals.var(ddof=1) - 2.0 / n) <= 0.6 * (2.0 / n)


def test_constant_vol_exact_time_change():
    scn = simulate_scenario(ConstantVol(1.0), SimConfig(n=250, seed=9))
    expected = np.arange(251) / 250
    np.testing.assert_array_equal(scn.true_T, expected)
    np.testing.assert_array_equal(scn.true_Q, expected)


def test_scenario_shapes_and_monotonicity():
    scn = simulate_scenario(CirParams(0.5, 1.5, 1.0, 1.5), SimConfig(n=40, horizon=2.0, seed=3))
    assert scn.path.values.shape == (81,)
    assert scn.true_T.shape == (81,)
    assert scn.true_T[0] == 0.0 and scn.true_Q[0] == 0.0
    assert np.all(np.diff(scn.true_T) >= 0.0)
    assert np.all(np.diff(scn.true_Q) >= 0.0)
    sigma2 = simulate_cir(CirParams(0.5, 1.5, 1.0, 1.5), SimConfig(n=40, horizon=2.0, seed=3))
    assert sigma2.shape == (40 * 10 * 2 + 1,)


def test_true_increments_bounded_by_subgrid_extremes():
    params, cfg = CirParams(0.5, 1.5, 1.0, 1.5), SimConfig(n=50, seed=7)
    scn = simulate_scenario(params, cfg)
    m = 10
    dt = 1.0 / (50 * m)
    sub = simulate_cir(params, cfg)[:-1].reshape(50, m)
    assert np.all(np.diff(scn.true_T) <= sub.max(axis=1) * m * dt + 1e-15)
    assert np.all(np.diff(scn.true_Q) <= (sub ** 2).max(axis=1) * m * dt + 1e-15)


def test_seed_determinism():
    a = simulate_scenario(CirParams(0.5, 1.5, 1.0, 1.5), SimConfig(n=60, seed=42))
    b = simulate_scenario(CirParams(0.5, 1.5, 1.0, 1.5), SimConfig(n=60, seed=42))
    assert np.array_equal(a.path.values, b.path.values)
    assert np.array_equal(a.true_T, b.true_T)
    assert np.array_equal(a.true_Q, b.true_Q)


def test_driver_stream_independent_of_volatility():
    """The scenario must consume volatility and driver noise from separate
    streams: rebuilding X by hand from stream 1 reproduces it for any
    volatility model fed by stream 0."""
    n, m, seed = 30, 10, 17
    cfg = SimConfig(n=n, substeps=m, seed=seed)
    for vol in (ConstantVol(1.0), CirParams(0.5, 1.5, 1.0, 1.5), CirParams(1.0, 2.0, 1.5, 0.8)):
        scn = simulate_scenario(vol, cfg)
        _, drv = derive_streams(seed)
        xi = drv.standard_normal(n * m)
        dx = np.sqrt(simulate_cir(vol, cfg)[:-1]) * xi / math.sqrt(n * m)
        x = np.concatenate([[0.0], np.cumsum(dx.reshape(n, m).sum(axis=1))])
        np.testing.assert_array_equal(scn.path.values, x)


def test_vol_stream_is_stream_zero():
    """The true clock is the left-Riemann sum of the variance path drawn from stream 0."""
    n, m, seed = 20, 5, 23
    cfg = SimConfig(n=n, substeps=m, seed=seed)
    params = CirParams(0.5, 1.5, 1.0, 1.5)
    scn = simulate_scenario(params, cfg)
    vol_rng, _ = derive_streams(seed)
    sigma2 = simulate_cir(params, cfg, vol_rng)
    true_t = np.cumsum(sigma2[:-1].reshape(n, m).sum(axis=1)) / (n * m)
    np.testing.assert_array_equal(scn.true_T, np.concatenate([[0.0], true_t]))


def test_realized_variation_tracks_true_time_change():
    """Mean absolute estimation error stays within three CLT standard
    deviations at t in {0.3, 0.7, 1}."""
    n = 10_000
    reps = 200
    params = CirParams(0.5, 1.5, 1.0, 1.5)
    errs = {0.3: [], 0.7: [], 1.0: []}
    qs = {0.3: [], 0.7: [], 1.0: []}
    for seed in range(reps):
        scn = simulate_scenario(params, SimConfig(n=n, seed=seed))
        for t in errs:
            i = scn.path.index_at(t)
            errs[t].append(abs(realized_variation(scn.path, t) - scn.true_T[i]))
            qs[t].append(scn.true_Q[i])
    for t in errs:
        bound = 3.0 * math.sqrt(2.0 * np.mean(qs[t]) / n)
        assert np.mean(errs[t]) <= bound
