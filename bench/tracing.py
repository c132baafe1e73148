"""Spans around the calls into hfcopula's layers, for the traced run.

hfcopula binds functions by name when a module is imported
(``from .kernel import psi_grid`` in ``experiments``, and so on), so a
wrapper placed on the defining module alone would see none of the calls.
:meth:`Tracer.install` therefore rebinds the name in each module that
calls it, and :meth:`Tracer.uninstall` puts the originals back.  Spans
(name, start, end, parent, sizes) are kept in memory and written out once,
when the run ends.

Layer boundaries, by span name:

- ``main``: ``cli.main``, opened by the benchmark around each call
- ``run``: ``run_qq`` / ``run_contour`` / ``run_rho`` as the CLI calls them
- ``emit``: ``write_report`` / ``write_csv`` as the CLI calls them
- ``simulate``: ``simulate_scenario`` as the CLI and the runners call it
- ``path``: ``SampledPath.__post_init__``, the prefix sums of the realized measures
- ``query``: ``boundary_aware_interval`` from the CLI, ``copula_estimate`` and
  ``variance_estimate`` from the runners
- ``psi`` / ``grad_psi``: the scalar kernel, as the estimators and runners call it
- ``grid``: ``psi_grid`` / ``grad_psi_grid`` as the runners call them

``realized_variation`` and ``quarticity`` are O(1) lookups and are not
wrapped: a span would cost more than the call, so their time stays in the
caller's self time.  ``gaussmath`` runs once per quadrature node, inside
the kernel spans, and is not wrapped either.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

import numpy as np

START, END, NAME, PARENT, SIZE, EXTRA = range(6)
CAPTURED_GRIDS = 2


class Tracer:
    """Records nested spans; one instance per traced run."""

    def __init__(self):
        # [start, end, name, parent index, size known at entry, size known at exit]
        self.spans: list[list] = []
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        # (s, t, values) of the first psi_grid calls, for the kernel-error check
        self.grids: list[tuple[float, float, np.ndarray]] = []

    def call(self, name: str, fn, args=(), kwargs=None, size: float = 0.0, after=None):
        """Call ``fn`` inside a span; ``after(args, kwargs, result)`` sets its exit size."""
        kwargs = kwargs or {}
        rec = [time.perf_counter(), 0.0, name, self._open[-1] if self._open else -1, size, 0.0]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[END] = time.perf_counter()
            self._open.pop()
        if after is not None:
            rec[EXTRA] = after(args, kwargs, result)
        return result

    def _wrap(self, owner, attr: str, name: str, size=None, after=None) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, original, args, kwargs,
                             size(*args, **kwargs) if size else 0.0, after)

        self._undo.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self) -> None:
        from hfcopula import cli, estimators, experiments

        def substeps(params, config, *a, **kw):
            return float(config.intervals * config.substeps)

        def grid_cells(s, t, u_grid, v_grid, *a, **kw):
            return float(len(u_grid) * len(v_grid))

        def capture(args, kwargs, result):
            if len(self.grids) < CAPTURED_GRIDS:
                self.grids.append((float(args[0]), float(args[1]), result.copy()))
            return 0.0

        def replications(spec, *a, **kw):
            return float(spec.replications * len(getattr(spec, "n_list", (None,))))

        def kept(args, kwargs, report):
            return float(_kept(report))

        def report_bytes(args, kwargs, result):
            return float(sum(Path(p).stat().st_size for p in result))

        def csv_bytes(args, kwargs, result):
            return float(Path(args[0]).stat().st_size)

        for module in (cli, experiments):
            self._wrap(module, "simulate_scenario", "simulate", size=substeps)
        self._wrap(estimators.SampledPath, "__post_init__", "path")
        self._wrap(cli, "boundary_aware_interval", "query")
        for attr in ("copula_estimate", "variance_estimate"):
            self._wrap(experiments, attr, "query")
        for module in (estimators, experiments):
            self._wrap(module, "psi", "psi")
        self._wrap(estimators, "grad_psi", "grad_psi")
        self._wrap(experiments, "psi_grid", "grid", size=grid_cells, after=capture)
        self._wrap(experiments, "grad_psi_grid", "grid", size=grid_cells)
        for attr in ("run_qq", "run_contour", "run_rho"):
            self._wrap(cli, attr, "run", size=replications, after=kept)
        self._wrap(cli, "write_report", "emit", after=report_bytes)
        self._wrap(cli, "write_csv", "emit", after=csv_bytes)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Spans as JSON records, times in seconds from the first span's start."""
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [{"name": s[NAME], "start": s[START] - t0, "end": s[END] - t0,
                 "parent": s[PARENT], "size": s[SIZE], "exit_size": s[EXTRA]}
                for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


def _kept(report) -> int:
    """Replications of an experiment report that gave a result."""
    md = report.metadata
    if report.kind == "qq":
        return md["kept"]
    spec = md["spec"]
    if report.kind == "rho":
        return sum(int(np.isfinite(tab["rho"]).sum())
                   for name, tab in report.tables.items() if name.startswith("rho_samples"))
    # contour: a replication without an interval leaves every interior cell failed
    failed = sum(int(report.tables[f"contour_n{n}"]["n_failed"].max()) for n in spec["n_list"])
    return spec["replications"] * len(spec["n_list"]) - failed


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals over every span the tracer recorded."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]

    def total(name, key=lambda s: s[END] - s[START]):
        return sum(key(s) for s in spans if s[NAME] == name)

    def count(name):
        return sum(1 for s in spans if s[NAME] == name)

    def self_time(name):
        return sum(s[END] - s[START] - child_time[i]
                   for i, s in enumerate(spans) if s[NAME] == name)

    def rate(amount, seconds):
        return amount / seconds if seconds > 0.0 else 0.0

    sim_busy = total("simulate")
    grid_busy = total("grid")
    return {
        "simulate.calls": count("simulate"),
        "simulate.busy_s": sim_busy,
        "simulate.substeps_per_s": rate(total("simulate", lambda s: s[SIZE]), sim_busy),
        "estimators.path_calls": count("path"),
        "estimators.path_busy_s": total("path"),
        "estimators.query_calls": count("query"),
        "estimators.query_self_s": self_time("query"),
        "kernel.psi_calls": count("psi"),
        "kernel.psi_busy_s": total("psi"),
        "kernel.grad_psi_calls": count("grad_psi"),
        "kernel.grad_psi_busy_s": total("grad_psi"),
        "kernel.grid_calls": count("grid"),
        "kernel.grid_busy_s": grid_busy,
        "kernel.grid_cells_per_s": rate(total("grid", lambda s: s[SIZE]), grid_busy),
        "experiments.reduce_self_s": self_time("run"),
        "experiments.emit_busy_s": total("emit"),
        "experiments.emit_bytes": total("emit", lambda s: s[EXTRA]),
        "experiments.replications": total("run", lambda s: s[SIZE]),
        "experiments.kept": total("run", lambda s: s[EXTRA]),
        "cli.self_s": self_time("main"),
        "cli.input_bytes": total("main", lambda s: s[SIZE]),
    }
