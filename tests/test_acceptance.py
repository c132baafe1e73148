"""Acceptance suite: end-to-end statistical and numerical gates.

Each test prints a one-line PASS summary and asserts its runtime budget.
The Monte Carlo gates use fixed seeds, so they are deterministic."""

import json
import math
import time

import numpy as np
import pytest
import scipy.stats

from hfcopula.cli import main
from hfcopula.estimators import quarticity
from hfcopula.experiments import QqSpec, RhoSpec, run_qq, run_rho, write_report
from hfcopula.kernel import grad_psi, psi, psi_grid
from hfcopula.simulate import ConstantVol, SimConfig, simulate_scenario


@pytest.fixture(scope="module")
def qq_cir():
    """Criteria 5-7 share one QQ study at the paper's settings: CIR defaults,
    (s,t,u,v) = (0.3,0.7,0.7,0.3), n = 10^4, 1000 replications."""
    start = time.monotonic()
    report = run_qq(QqSpec())
    elapsed = time.monotonic() - start
    return report, elapsed


def test_criterion_1_kernel_vs_bivariate_normal_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(101)

    # analytic orthant identity at u = v = 0.5
    worst_analytic = 0.0
    for _ in range(25):
        s = float(rng.uniform(0.05, 2.0))
        t = s + float(rng.uniform(0.05, 2.0))
        rho = math.sqrt(s / t)
        expected = 0.25 + math.asin(rho) / (2.0 * math.pi)
        got = psi(s, t, 0.5, 0.5)
        worst_analytic = max(worst_analytic, abs(got - expected))
    assert worst_analytic <= 1e-8

    # shared 10^7-draw Monte Carlo oracle elsewhere; thresholds via scipy,
    # independent of the library's own quantile code
    z1 = rng.standard_normal(10_000_000)
    w = rng.standard_normal(10_000_000)
    worst_mc = 0.0
    for _ in range(25):
        s = float(rng.uniform(0.05, 2.0))
        t = s + float(rng.uniform(0.05, 2.0))
        u = float(rng.uniform(0.05, 0.95))
        v = float(rng.uniform(0.05, 0.95))
        rho = math.sqrt(s / t)
        z2 = rho * z1 + math.sqrt(1.0 - rho * rho) * w
        mc = float(np.mean((z1 <= scipy.stats.norm.ppf(u)) & (z2 <= scipy.stats.norm.ppf(v))))
        got = psi(s, t, u, v)
        worst_mc = max(worst_mc, abs(got - mc))
    assert worst_mc <= 3e-3

    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"criterion 1 PASS: analytic err {worst_analytic:.2e}, "
          f"MC err {worst_mc:.2e}, {elapsed:.1f}s")


def test_criterion_2_copula_axiom_suite():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    grid = np.linspace(0.0, 1.0, 21)
    fre_lo = np.maximum(np.add.outer(grid, grid) - 1.0, 0.0)
    fre_hi = np.minimum.outer(grid, grid)
    for _ in range(200):
        s = float(rng.uniform(0.02, 2.5))
        t = s + float(rng.uniform(0.01, 2.5))
        c = psi_grid(s, t, grid, grid)
        assert np.all(c[0, :] == 0.0) and np.all(c[:, 0] == 0.0)
        assert np.max(np.abs(c[-1, :] - grid)) <= 1e-8
        assert np.max(np.abs(c[:, -1] - grid)) <= 1e-8
        rect = c[1:, 1:] - c[:-1, 1:] - c[1:, :-1] + c[:-1, :-1]
        assert rect.min() >= -1e-8
        assert np.all(c >= fre_lo - 1e-8) and np.all(c <= fre_hi + 1e-8)
        # tie the grid back to scipy's bivariate normal CDF at a random cell
        i, j = rng.integers(1, 20, size=2)
        r = math.sqrt(s / t)
        ref = scipy.stats.multivariate_normal(mean=[0.0, 0.0], cov=[[1.0, r], [r, 1.0]]).cdf(
            [scipy.stats.norm.ppf(grid[i]), scipy.stats.norm.ppf(grid[j])])
        assert abs(c[i, j] - ref) <= 1e-8
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 2 PASS: 200 grids clean, {elapsed:.1f}s")


def test_criterion_3_gradient_vs_finite_differences():
    start = time.monotonic()
    rng = np.random.default_rng(303)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        s = float(rng.uniform(0.05, 2.0))
        t = s + float(rng.uniform(0.05, 2.0))
        u = float(rng.uniform(0.05, 0.95))
        v = float(rng.uniform(0.05, 0.95))
        g_t, g_s = grad_psi(s, t, u, v)
        f_t = (psi(s, t + h, u, v) - psi(s, t - h, u, v)) / (2.0 * h)
        f_s = (psi(s + h, t, u, v) - psi(s - h, t, u, v)) / (2.0 * h)
        worst = max(worst,
                    abs(g_t - f_t) / max(abs(f_t), 1e-12),
                    abs(g_s - f_s) / max(abs(f_s), 1e-12))
    assert worst <= 1e-5
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 3 PASS: worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_consistency_rate():
    start = time.monotonic()
    spec = RhoSpec(n_list=(2500, 10_000), replications=200, vol=ConstantVol(1.0))
    report = run_rho(spec)
    per_n = report.metadata["per_n"]
    ratio = per_n["2500"]["median_rho"] / per_n["10000"]["median_rho"]
    assert 1.5 <= ratio <= 2.7
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    print(f"criterion 4 PASS: median rho ratio {ratio:.3f}, {elapsed:.1f}s")


def test_criterion_5_clt_coverage(qq_cir):
    report, elapsed = qq_cir
    coverage = report.metadata["coverage_95"]
    assert 0.92 <= coverage <= 0.97
    assert elapsed < 900.0
    print(f"criterion 5 PASS: coverage {coverage:.3f}, shared run {elapsed:.1f}s")


def test_criterion_6_studentized_normality(qq_cir, tmp_path):
    report, _ = qq_cir
    ks = report.metadata["ks_distance"]
    assert ks < 0.06
    paths = write_report(report, tmp_path / "qq")
    stats_csv = tmp_path / "qq" / "qq_statistics.csv"
    assert stats_csv in paths
    lines = stats_csv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "rank,statistic,normal_quantile"
    assert len(lines) == 1 + report.metadata["kept"]
    print(f"criterion 6 PASS: KS {ks:.4f}, QQ CSV emitted")


def test_criterion_7_variance_formula(qq_cir):
    report, _ = qq_cir
    emp = report.metadata["empirical_variance_scaled_error"]
    mean_v = report.metadata["mean_v_hat"]
    assert abs(emp / mean_v - 1.0) <= 0.15
    print(f"criterion 7 PASS: empirical/feasible variance ratio {emp / mean_v:.3f}")


def test_criterion_8_quarticity_consistency():
    start = time.monotonic()
    vals = [quarticity(simulate_scenario(ConstantVol(1.0), SimConfig(n=10_000, seed=s)).path, 1.0)
            for s in range(200)]
    mean_q = float(np.mean(vals))
    assert abs(mean_q - 1.0) <= 0.05
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"criterion 8 PASS: mean quarticity {mean_q:.4f}, {elapsed:.1f}s")


def test_criterion_9_determinism(tmp_path):
    args = ["--command", "qq", "--n", "2000", "--replications", "20", "--seed", "11"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    meta = json.loads((a / "qq_meta.json").read_text(encoding="utf-8"))
    assert meta["spec"]["seed"] == 11
    print(f"criterion 9 PASS: {len(names)} files byte-identical on rerun")
