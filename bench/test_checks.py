"""Each workload's checks pass on a real call and object to a perturbed output.

Run from the root of a checkout:  python3 -m pytest -q bench/test_checks.py
"""

import contextlib
import io
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import run
from workloads import WORKLOADS

CLI = run.import_cli()


def call(wl, k, out):
    with contextlib.redirect_stdout(io.StringIO()):
        assert CLI.main(wl.argv(k, out)) == 0


def edit_csv(src: Path, dst: Path, name: str, edit) -> None:
    """Copy the output directory, then let ``edit(header, rows)`` change one CSV."""
    shutil.copytree(src, dst)
    lines = (dst / name).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    edit(header, rows)
    (dst / name).write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n",
                            encoding="utf-8")


def shift(column, row, delta):
    def edit(header, rows):
        i = header.index(column)
        rows[row][i] = repr(float(rows[row][i]) + delta)
    return edit


def swap(a, b, row):
    def edit(header, rows):
        i, j = header.index(a), header.index(b)
        rows[row][i], rows[row][j] = rows[row][j], rows[row][i]
    return edit


def drop_row(row):
    def edit(header, rows):
        del rows[row]
    return edit


@pytest.fixture(scope="module")
def estimate(tmp_path_factory):
    work = tmp_path_factory.mktemp("estimate")
    wl = WORKLOADS["estimate_cli"](7, work)
    call(wl, 0, work / "out")
    return wl, work


def interior_row(wl):
    return next(i for i, q in enumerate(wl.query_sets[0])
                if q[4] == "interior" and 0.1 < q[2] < q[3] < 0.9)


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_estimate_checks(estimate, tmp_path):
    wl, work = estimate
    failed, problems = wl.check_call(0, work / "out")
    assert problems == [] and failed == len(wl.TAIL)
    row = interior_row(wl)
    bad = [("c_hat", shift("c_hat", row, 1e-6)), ("swap", swap("ci_lo", "ci_hi", row)),
           ("v_hat", shift("v_hat", row, 1e-3)), ("rv_s", shift("rv_s", row, 1e-9)),
           ("missing", drop_row(row))]
    for label, edit in bad:
        edit_csv(work / "out", tmp_path / label, "estimates.csv", edit)
        assert wl.check_call(0, tmp_path / label)[1], label


def test_estimate_boundary_rows_exact(estimate, tmp_path):
    wl, work = estimate
    row = next(i for i, q in enumerate(wl.query_sets[0]) if q[4] == "boundary" and q[3] == 1.0)
    edit_csv(work / "out", tmp_path / "edge", "estimates.csv", shift("c_hat", row, -1e-12))
    assert wl.check_call(0, tmp_path / "edge")[1]


def test_contour_checks(tmp_path):
    wl = WORKLOADS["contour_cli"](7, tmp_path)
    call(wl, 0, tmp_path / "out")
    assert wl.check_call(0, tmp_path / "out") == (0, [])
    cell = 50 * 101 + 30
    bad = [("true_c", shift("true_c", cell, 1e-6)), ("swap", swap("ci_lo", "ci_hi", cell)),
           ("edge", shift("c_hat", 101 * 100 + 40, 1e-9)), ("dent", shift("c_hat", cell, -1e-3)),
           ("missing", drop_row(cell))]
    for label, edit in bad:
        edit_csv(tmp_path / "out", tmp_path / label, "contour_n100.csv", edit)
        assert wl.check_call(0, tmp_path / label)[1], label


def test_qq_checks(tmp_path):
    wl = WORKLOADS["qq_cir"](7, tmp_path)
    call(wl, 0, tmp_path / "out")
    assert wl.check_call(0, tmp_path / "out") == (0, [])
    assert wl.finish() == []
    for label, edit in [("statistic", shift("c_hat", 3, 1e-6)), ("missing", drop_row(3))]:
        edit_csv(tmp_path / "out", tmp_path / label, "qq_replications.csv", edit)
        assert WORKLOADS["qq_cir"](7, tmp_path).check_call(0, tmp_path / label)[1], label
    # c_hat and the statistic moved together pass the per-call check; the
    # recomputation from the simulated path does not
    for reps in wl.pooled.values():
        reps["c_hat"] = reps["c_hat"] + 1e-6
    assert wl.sampled_problems()


def test_qq_clt_bands(tmp_path):
    wl = WORKLOADS["qq_cir"](7, tmp_path)
    z = np.random.default_rng(0).standard_normal(600)

    def pool(stat):
        # c_true = 0 and v_hat = 1 at n = 10^4, so the statistic is 100 c_hat
        return {0: {"c_hat": stat / 100.0, "c_true": np.zeros(stat.size),
                    "v_hat": np.ones(stat.size), "statistic": stat}}

    wl.pooled = pool(z)
    assert wl.clt_problems() == []
    wl.pooled = pool(z + 0.5)
    assert any("KS" in p for p in wl.clt_problems())
    wl.pooled = pool(1.3 * z)
    problems = wl.clt_problems()
    assert any("coverage" in p for p in problems) and any("variance" in p for p in problems)


def test_rho_checks(tmp_path):
    wl = WORKLOADS["rho_const"](7, tmp_path)
    call(wl, 0, tmp_path / "out")
    assert wl.check_call(0, tmp_path / "out") == (0, [])
    assert wl.subgrid_problems() == []
    for block in wl.samples.values():
        for n in block:
            block[n] = np.full_like(block[n], 1e-6)
    assert wl.subgrid_problems()
    edit_csv(tmp_path / "out", tmp_path / "neg", "rho_samples_n2500.csv",
             shift("rho", 1, -1.0))
    assert WORKLOADS["rho_const"](7, tmp_path).check_call(0, tmp_path / "neg")[1]
    edit_csv(tmp_path / "out", tmp_path / "missing", "rho_samples_n10000.csv", drop_row(0))
    assert WORKLOADS["rho_const"](7, tmp_path).check_call(0, tmp_path / "missing")[1]


def test_rho_kernel_check_rejects_a_wrong_grid(tmp_path):
    wl = WORKLOADS["rho_const"](7, tmp_path)
    from hfcopula.kernel import psi_grid

    ug = np.linspace(0.0, 1.0, 101)
    grid = psi_grid(0.3, 0.7, ug, ug)
    wl.grid_calls = [(0.3, 0.7, grid)]
    assert wl.kernel_problems() == []
    wl.grid_calls = [(0.3, 0.7, grid + 1e-6)]
    assert wl.kernel_problems()

