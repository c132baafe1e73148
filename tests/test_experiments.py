"""Tests for the Monte Carlo experiment runners and report plumbing."""

import json
import math
import os

import numpy as np
import pytest
import scipy.stats

from hfcopula import experiments
from hfcopula.estimators import (
    copula_estimate,
    quarticity,
    realized_variation,
    variance_estimate,
)
from hfcopula.experiments import (
    ContourSpec,
    ExperimentReport,
    QqSpec,
    RhoSpec,
    _pool_size,
    _replication,
    _rho_replication,
    _sup_distance,
    kde_log,
    ks_normal_distance,
    run_contour,
    run_qq,
    run_rho,
    write_csv,
    write_report,
)
from hfcopula.kernel import NearDiagonalError, grad_psi_grid, psi, psi_grid
from hfcopula.simulate import DEFAULT_CIR, CirParams, ConstantVol, SimConfig, simulate_scenario


@pytest.fixture(scope="module")
def qq_brownian():
    """One sigma2 == 1 QQ run at CLT scale, shared across assertions."""
    return run_qq(QqSpec(vol=ConstantVol(1.0)))


def test_spec_validation():
    with pytest.raises(ValueError):
        ContourSpec(s=0.7, t=0.3)
    with pytest.raises(ValueError):
        ContourSpec(uv_grid=1)
    with pytest.raises(ValueError):
        QqSpec(u=0.0)  # boundary query has no CLT
    with pytest.raises(ValueError):
        QqSpec(replications=0)
    with pytest.raises(ValueError):
        RhoSpec(tau=1.0, horizon=1.0)
    with pytest.raises(ValueError):
        RhoSpec(n_list=())


# a bad value of each field the specs share; n_list, uv_grid and t where present
SHARED_BAD = [("horizon", 0.0), ("horizon", math.inf), ("replications", 0), ("seed", -1),
              ("substeps", 0), ("vol", "cir"), ("n_list", ()), ("n_list", (100, 0)),
              ("uv_grid", 1), ("horizon", True), ("replications", True), ("seed", False),
              ("substeps", True), ("n_list", (True,)), ("uv_grid", True), ("t", True)]


SHARED_CASES = [(cls, field, bad) for cls in (ContourSpec, QqSpec, RhoSpec)
                for field, bad in SHARED_BAD if field in cls.__dataclass_fields__]


@pytest.mark.parametrize("spec_cls, field, bad", SHARED_CASES,
                         ids=[f"{c.__name__}-{f}-{b!r}" for c, f, b in SHARED_CASES])
def test_spec_shared_field_validation(spec_cls, field, bad):
    with pytest.raises(ValueError, match=field.split("_")[0]):
        spec_cls(**{field: bad})


def test_report_rejects_ragged_table():
    with pytest.raises(ValueError):
        ExperimentReport(kind="qq",
                         tables={"t": {"a": np.zeros(3), "b": np.zeros(4)}},
                         metadata={})


def test_qq_single_replication_quantile():
    rep = run_qq(QqSpec(n=200, replications=1, vol=ConstantVol(1.0)))
    stats = rep.tables["qq_statistics"]
    assert stats["rank"].size == 1
    assert stats["normal_quantile"][0] == 0.0  # Phi^-1((1-0.5)/1)


def test_qq_statistics_sorted_and_paired(qq_brownian):
    stats = qq_brownian.tables["qq_statistics"]
    m = stats["statistic"].size
    assert m == qq_brownian.metadata["kept"] == 1000
    assert np.all(np.diff(stats["statistic"]) >= 0.0)
    assert np.all(np.diff(stats["normal_quantile"]) > 0.0)
    # plotting positions (k - 0.5)/m mapped through the normal quantile
    mid = stats["normal_quantile"][m // 2 - 1]
    assert abs(mid - scipy.stats.norm.ppf((m // 2 - 0.5) / m)) < 1e-9


def test_qq_brownian_clt(qq_brownian):
    md = qq_brownian.metadata
    assert md["dropped"] == {"near_diagonal": 0, "degenerate": 0}
    assert md["ks_distance"] < 0.06
    assert abs(md["mean_statistic"]) <= 0.1
    # feasible variance against the realized spread of sqrt(n)(C^n - C)
    assert abs(md["empirical_variance_scaled_error"] / md["mean_v_hat"] - 1.0) <= 0.2


def test_qq_replication_table_consistency(qq_brownian):
    reps = qq_brownian.tables["qq_replications"]
    assert reps["replication"].size == 1000
    kept = ~np.isnan(reps["statistic"])
    n = qq_brownian.metadata["spec"]["n"]
    recomputed = np.sqrt(n / reps["v_hat"][kept]) * (reps["c_hat"][kept] - reps["c_true"][kept])
    np.testing.assert_allclose(np.sort(recomputed),
                               qq_brownian.tables["qq_statistics"]["statistic"],
                               rtol=0, atol=1e-12)


def test_qq_rerun_bit_identical():
    spec = QqSpec(n=300, replications=4, vol=ConstantVol(1.0), seed=5)
    a, b = run_qq(spec), run_qq(spec)
    assert a.metadata == b.metadata
    for name in a.tables:
        for col in a.tables[name]:
            assert np.array_equal(a.tables[name][col], b.tables[name][col],
                                  equal_nan=True)


def _full_scenario(spec, n, rep):
    """The whole-horizon scenario of replication ``rep``: what the runners read
    a prefix of."""
    cfg = SimConfig(n=n, horizon=spec.horizon, substeps=spec.substeps, seed=spec.seed + rep)
    scn = simulate_scenario(spec.vol, cfg)
    return scn, scn.path.index_at(spec.s), scn.path.index_at(spec.t)


def test_qq_replication_reads_the_full_scenario_prefix():
    """The gates of criteria 5-7 judge the sample the full-horizon layout draws.

    QQ is the 1x1 case of the replication, and each of its cells has the
    bits of the scalar calls.
    """
    spec = QqSpec()
    q = (spec.s, spec.t, spec.u, spec.v)
    for rep in range(5):
        scn, i_s, i_t = _full_scenario(spec, spec.n, rep)
        c_true = psi(float(scn.true_T[i_s]), float(scn.true_T[i_t]), spec.u, spec.v)
        want = (c_true, copula_estimate(scn.path, *q), variance_estimate(scn.path, *q))
        got = _replication(spec, spec.n, np.array([spec.u]), np.array([spec.v]), rep)
        assert [g.shape for g in got] == [(1, 1)] * 3
        assert tuple(g.item() for g in got) == want


def test_contour_replication_reads_the_full_scenario_prefix():
    spec = ContourSpec(n_list=(100, 1000), replications=3)
    ug = np.linspace(0.0, 1.0, spec.uv_grid)
    for n in spec.n_list:
        for rep in range(spec.replications):
            scn, i_s, i_t = _full_scenario(spec, n, rep)
            path = scn.path
            rv_s, rv_t = realized_variation(path, spec.s), realized_variation(path, spec.t)
            # 2 g'Mg with M = [[q_t, q_s], [q_s, q_s]], summed as q_s (g_t + g_s)^2
            # + (q_t - q_s) g_t^2 for the library's bits; NaN off the interior
            g_t, g_s = grad_psi_grid(rv_s, rv_t, ug, ug)
            q_t, q_s = quarticity(path, spec.t), quarticity(path, spec.s)
            g_sum = g_t + g_s
            want = (psi_grid(float(scn.true_T[i_s]), float(scn.true_T[i_t]), ug, ug),
                    psi_grid(rv_s, rv_t, ug, ug),
                    2.0 * (q_s * g_sum * g_sum + (q_t - q_s) * g_t * g_t))
            got = _replication(spec, n, ug, ug, rep)
            for g, w in zip(got, want, strict=True):
                assert np.array_equal(g, w, equal_nan=True)


def test_contour_boundary_cells_exact():
    rep = run_contour(ContourSpec(n_list=(100,), uv_grid=5, replications=2,
                                  vol=ConstantVol(1.0)))
    t = rep.tables["contour_n100"]
    g = 5
    u = t["u"].reshape(g, g)
    v = t["v"].reshape(g, g)
    on_edge = (u == 0.0) | (u == 1.0) | (v == 0.0) | (v == 1.0)
    c_hat = t["c_hat"].reshape(g, g)
    true_c = t["true_c"].reshape(g, g)
    lo = t["ci_lo"].reshape(g, g)
    hi = t["ci_hi"].reshape(g, g)
    assert np.array_equal(c_hat[on_edge], true_c[on_edge])
    assert np.all(hi[on_edge] - lo[on_edge] == 0.0)
    assert np.all(t["n_failed"] == 0)


def test_contour_bands_narrow_with_n():
    spec = ContourSpec(n_list=(100, 10_000), uv_grid=5, replications=1)
    rep = run_contour(spec)
    w100 = rep.tables["contour_n100"]["mean_width"].reshape(5, 5)[1:-1, 1:-1]
    w10k = rep.tables["contour_n10000"]["mean_width"].reshape(5, 5)[1:-1, 1:-1]
    assert np.all(w10k < w100)


def test_contour_coverage_smoke():
    """Scaled-down interior coverage check; the acceptance suite runs the
    full-size version."""
    rep = run_contour(ContourSpec(n_list=(10_000,), uv_grid=5, replications=200,
                                  vol=ConstantVol(1.0)))
    cov = rep.metadata["per_n"]["10000"]["mean_interior_coverage"]
    assert 0.90 <= cov <= 0.99


def test_contour_propagates_plain_value_errors(monkeypatch):
    """Only coinciding realized variations become failed cells."""
    def broken(*args, **kwargs):
        raise ValueError("not a diagonal failure")

    monkeypatch.setattr(experiments, "variance_estimate", broken)
    with pytest.raises(ValueError, match="not a diagonal failure"):
        run_contour(ContourSpec(n_list=(100,), uv_grid=5, vol=ConstantVol(1.0)))


def test_contour_near_diagonal_replication_fails_interior_cells(monkeypatch):
    def near_diagonal(*args, **kwargs):
        raise NearDiagonalError("clock values coincide")

    monkeypatch.setattr(experiments, "variance_estimate", near_diagonal)
    rep = run_contour(ContourSpec(n_list=(100,), uv_grid=5, vol=ConstantVol(1.0)))
    failed = rep.tables["contour_n100"]["n_failed"].reshape(5, 5)
    assert np.all(failed[1:-1, 1:-1] == 1)
    assert failed.sum() == 9
    per_n = rep.metadata["per_n"]["100"]
    assert math.isnan(per_n["mean_interior_width"]) and per_n["failed_cells"] == 9


def test_qq_near_diagonal_replications_are_dropped(monkeypatch):
    def near_diagonal(*args, **kwargs):
        raise NearDiagonalError("clock values coincide")

    monkeypatch.setattr(experiments, "variance_estimate", near_diagonal)
    rep = run_qq(QqSpec(n=100, replications=3, vol=ConstantVol(1.0)))
    assert rep.metadata["dropped"] == {"near_diagonal": 3, "degenerate": 0}
    assert rep.metadata["kept"] == 0
    assert np.all(np.isnan(rep.tables["qq_replications"]["statistic"]))


def test_spec_rejects_clock_layout_without_gradient():
    with pytest.raises(ValueError, match="floor"):
        QqSpec(n=100, s=0.005)  # floor(n*s) = 0, so [X]_s = 0
    with pytest.raises(ValueError, match="n=10"):
        ContourSpec(n_list=(100, 10), s=0.31, t=0.35)  # one grid cell at n = 10
    QqSpec(n=100, s=0.01, t=0.02)  # s = 1/n and t = 2/n land on distinct cells
    ContourSpec(n_list=(10,), s=0.1, t=0.2)


def test_contour_rerun_bit_identical():
    spec = ContourSpec(n_list=(200,), uv_grid=5, replications=2, seed=3)
    a, b = run_contour(spec), run_contour(spec)
    for name in a.tables:
        for col in a.tables[name]:
            assert np.array_equal(a.tables[name][col], b.tables[name][col],
                                  equal_nan=True)
    assert a.metadata == b.metadata


def test_rho_samples_in_unit_interval_and_off_boundary():
    rep = run_rho(RhoSpec(n_list=(100,), replications=6, uv_grid=11,
                          vol=ConstantVol(1.0)))
    rho = rep.tables["rho_samples_n100"]["rho"]
    assert rho.shape == (6,)
    assert np.all(rho >= 0.0) and np.all(rho <= 1.0)
    # boundary cells contribute exactly 0, so a positive sup is interior
    assert np.all(rho > 0.0)


def _realized_clock(spec, n, seed):
    scn = simulate_scenario(spec.vol, SimConfig(n=n, horizon=spec.horizon,
                                                substeps=spec.substeps, seed=seed))
    times = spec.time_grid()
    true = scn.true_T[[scn.path.index_at(float(t)) for t in times]]
    return true, np.array([realized_variation(scn.path, float(t)) for t in times])


def _uv(spec):
    return np.linspace(0.0, 1.0, spec.uv_grid)


def test_rho_against_itself_is_zero():
    spec = RhoSpec(n_list=(100,), replications=1, uv_grid=11, vol=ConstantVol(1.0))
    _, rv = _realized_clock(spec, 100, spec.seed)
    assert _sup_distance(rv, rv, _uv(spec)) == 0.0


def test_rho_transpose_invariance():
    """Reversing the time grid swaps the two times of every pair."""
    spec = RhoSpec(n_list=(100,), replications=1, uv_grid=11)
    true, rv = _realized_clock(spec, 100, 1)
    assert _sup_distance(true[::-1], rv[::-1], _uv(spec)) == _sup_distance(true, rv, _uv(spec))


def test_rho_matches_kernel_grid_differences():
    """On random odd and even grids and both volatility models, the sup
    agrees with the one taken over differences of two psi_grid evaluations,
    for every time pair and every cell."""
    rng = np.random.default_rng(4)
    for vol, n in ((ConstantVol(1.0), 2500), (DEFAULT_CIR, 400)):
        for size in (2 * rng.integers(2, 12) + 1, 2 * rng.integers(1, 12)):
            spec = RhoSpec(n_list=(n,), replications=1, uv_grid=int(size), vol=vol)
            ug = _uv(spec)
            seed = int(rng.integers(1000))
            true, rv = _realized_clock(spec, n, seed)
            ref = max(float(np.max(np.abs(psi_grid(rv[i], rv[j], ug, ug)
                                          - psi_grid(true[i], true[j], ug, ug))))
                      for i in range(rv.size) for j in range(i + 1, rv.size))
            assert abs(_rho_replication(spec, n, seed) - ref) <= 1e-12 * ref


def test_rho_without_interior_cells_is_zero():
    rep = run_rho(RhoSpec(n_list=(100,), replications=2, uv_grid=2, vol=ConstantVol(1.0)))
    assert np.all(rep.tables["rho_samples_n100"]["rho"] == 0.0)
    assert rep.metadata["per_n"]["100"]["kde"] is False


def test_rho_metadata_reference_rate():
    rep = run_rho(RhoSpec(n_list=(100, 400), replications=2, uv_grid=5,
                          vol=ConstantVol(1.0)))
    per_n = rep.metadata["per_n"]
    assert per_n["100"]["ref_rate"] == 0.1
    assert per_n["400"]["ref_rate"] == 0.05
    assert per_n["400"]["log_ref_rate"] == pytest.approx(-0.5 * math.log(400))
    assert set(rep.tables) == {"rho_samples_n100", "rho_samples_n400",
                               "rho_kde_n100", "rho_kde_n400"}


def test_kde_rejects_degenerate_input():
    with pytest.raises(ValueError, match="zero bandwidth"):
        kde_log(np.full(10, 0.25))
    with pytest.raises(ValueError):
        kde_log(np.array([0.1, -0.2, 0.3]))
    with pytest.raises(ValueError):
        kde_log(np.array([0.5]))


def test_kde_lognormal_mode():
    rng = np.random.default_rng(8)
    samples = np.exp(rng.standard_normal(10_000))
    grid, density = kde_log(samples)
    assert grid.shape == (512,)
    assert abs(grid[np.argmax(density)]) <= 0.15
    integral = np.trapezoid(density, grid)
    assert abs(integral - 1.0) <= 1e-3


def test_ks_distance_matches_scipy():
    rng = np.random.default_rng(6)
    x = np.sort(rng.standard_normal(500))
    ours = ks_normal_distance(x)
    ref = scipy.stats.kstest(x, "norm").statistic
    assert ours == pytest.approx(ref, abs=1e-12)


def test_write_csv_roundtrip(tmp_path):
    path = tmp_path / "t.csv"
    cols = {"a": np.array([0.1, 0.5, 1.0 / 3.0]), "k": np.array([1, 2, 3])}
    write_csv(path, cols)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "a,k"
    for i, line in enumerate(lines[1:]):
        a, k = line.split(",")
        assert float(a) == cols["a"][i]  # repr round-trips exactly
        assert int(k) == cols["k"][i]


def _format_cell(val) -> str:
    """The cell-by-cell formatter that write_csv replaced, kept as its oracle."""
    if isinstance(val, (np.integer, int)):
        return str(int(val))
    return repr(float(val))


def _write_csv_by_cell(path, columns):
    lines = [",".join(columns)]
    for row in zip(*columns.values()):
        lines.append(",".join(_format_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


_RNG = np.random.default_rng(12)
_WRITE_CSV_TABLES = {
    "special_floats": {"x": np.array([-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf,
                                      5e-324, -5e-324, 1e16, 1e-5, 0.1 + 0.2, 1.0, -2.5])},
    "repeated": {"x": _RNG.permutation(np.repeat([0.1, -0.0, 0.0, 2.5, math.nan], 9))},
    "normals": {"x": _RNG.standard_normal(10_000)},
    "int64_past_2_53": {"k": np.array([2 ** 53 + 1, -(2 ** 62) - 3, 0, 2 ** 63 - 1])},
    "int32": {"k": np.array([-5, 7, 2 ** 31 - 1, 7], dtype=np.int32)},
    "uint64": {"k": np.array([2 ** 64 - 1, 0, 2 ** 63 + 5, 1], dtype=np.uint64)},
    "float32": {"x": np.array([0.1, 1 / 3, -0.0, math.nan, 3e38], dtype=np.float32)},
    "bool": {"b": np.array([True, False, True])},
    "strided": {"x": _RNG.standard_normal(30)[::3], "k": np.arange(20)[1::2]},
    "mixed": {"u": np.linspace(0.0, 1.0, 11), "n_failed": np.arange(11) % 3,
              "c": np.where(np.arange(11) % 4 == 0, math.nan, np.linspace(-1.0, 1.0, 11))},
    "no_rows": {"rank": np.arange(1, 1), "statistic": np.array([]),
                "normal_quantile": np.array([])},
}


@pytest.mark.parametrize("table", sorted(_WRITE_CSV_TABLES))
def test_write_csv_matches_cell_by_cell_formatter(tmp_path, table):
    cols = _WRITE_CSV_TABLES[table]
    write_csv(tmp_path / "columnar.csv", cols)
    _write_csv_by_cell(tmp_path / "by_cell.csv", cols)
    assert (tmp_path / "columnar.csv").read_bytes() == (tmp_path / "by_cell.csv").read_bytes()


def test_write_report_files(tmp_path):
    rep = run_qq(QqSpec(n=200, replications=3, vol=ConstantVol(1.0)))
    paths = write_report(rep, tmp_path / "out")
    names = sorted(p.name for p in paths)
    assert names == ["qq_meta.json", "qq_replications.csv", "qq_statistics.csv"]
    meta = json.loads((tmp_path / "out" / "qq_meta.json").read_text(encoding="utf-8"))
    assert meta["kind"] == "qq"
    assert meta["spec"]["n"] == 200
    assert meta["spec"]["vol"] == {"model": "constant", "sigma2": 1.0}
    assert sorted(meta["files"]) == ["qq_replications.csv", "qq_statistics.csv"]


def test_metadata_echoes_cir_parameters():
    rep = run_contour(ContourSpec(n_list=(100,), uv_grid=3, replications=1,
                                  vol=CirParams(0.6, 1.4, 1.1, 1.2)))
    vol = rep.metadata["spec"]["vol"]
    assert vol == {"model": "cir", "kappa": 0.6, "theta": 1.4, "nu": 1.1, "s0": 1.2}


def test_pool_size_clamp():
    assert _pool_size(1, 10) == 1
    assert _pool_size(2, 1) == 1
    assert _pool_size(3, 2) <= 2
    assert _pool_size(2, 10) == min(2, os.cpu_count() or 1)
    for bad in (0, -1, 1.5, "2"):
        with pytest.raises(ValueError, match="workers"):
            _pool_size(bad, 10)


def test_workers_do_not_change_results():
    spec = QqSpec(n=300, replications=6, vol=ConstantVol(1.0), seed=2)
    a = run_qq(spec, workers=1)
    b = run_qq(spec, workers=3)
    assert a.metadata == b.metadata
    for name in a.tables:
        for col in a.tables[name]:
            assert np.array_equal(a.tables[name][col], b.tables[name][col],
                                  equal_nan=True)
