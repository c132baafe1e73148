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
