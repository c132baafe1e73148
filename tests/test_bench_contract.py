"""The benchmark's traced run rebinds library names; they must all exist.

``bench/tracing.py`` wraps functions by name in ``cli``, ``experiments``
and ``estimators``, and calls ``psi_grid(s, t, u_grid, v_grid)``
positionally.  A rename in the library fails here instead of quietly
breaking ``bench/run.py --trace 1``.  Every command's output goes through
``cli.write_report``, so the tracer's ``emit`` span must see it.
"""

import importlib.util
from pathlib import Path

import numpy as np

from hfcopula import cli, experiments, kernel

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_and_uninstall():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    original = experiments.psi_grid
    tracer.install()
    try:
        ug = np.linspace(0.0, 1.0, 11)
        grid = experiments.psi_grid(0.3, 0.7, ug, ug)
    finally:
        tracer.uninstall()
    assert experiments.psi_grid is original
    np.testing.assert_array_equal(grid, kernel.psi_grid(0.3, 0.7, ug, ug))
    assert [span[tracing.NAME] for span in tracer.spans] == ["grid"]
    assert tracer.spans[0][tracing.SIZE] == ug.size * ug.size
    assert tracer.grids[0][:2] == (0.3, 0.7)


def test_tracer_records_emit_span_for_simulate(tmp_path):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["--command", "simulate", "--n", "10", "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    emits = [span for span in tracer.spans if span[tracing.NAME] == "emit"]
    assert len(emits) == 1
    assert emits[0][tracing.EXTRA] == sum(p.stat().st_size for p in tmp_path.iterdir())


def test_tracer_records_one_query_span_per_estimate_call(tmp_path):
    """``--command estimate`` makes one ``boundary_aware_interval`` call, which
    holds the kernel's value and gradient calls."""
    sim = tmp_path / "sim"
    assert cli.main(["--command", "simulate", "--n", "100", "--out", str(sim)]) == 0
    queries = tmp_path / "q.csv"
    queries.write_text("s,t,u,v\n0.3,0.7,0.5,0.5\n0.2,0.8,0.0,0.4\n", encoding="utf-8")
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for k in range(2):
            assert cli.main(["--command", "estimate", "--input", str(sim / "scenario.csv"),
                             "--queries", str(queries), "--out", str(tmp_path / f"o{k}")]) == 0
    finally:
        tracer.uninstall()
    names = [span[tracing.NAME] for span in tracer.spans]
    queries_at = [i for i, name in enumerate(names) if name == "query"]
    assert len(queries_at) == 2
    for i in queries_at:
        inside = sorted(names[j] for j, span in enumerate(tracer.spans)
                        if span[tracing.PARENT] == i)
        assert inside == ["grad_psi", "psi"]
    assert tracing.layer_metrics(tracer)["estimators.query_calls"] == 2
