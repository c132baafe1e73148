"""Benchmark of the hfcopula command line: four workloads, each in its own process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload qq_cir --seed 3 --seconds 20 --trace 0
    python3 bench/run.py            # every workload in turn, one process each

Every timed call is ``hfcopula.cli.main(argv)`` in this process with
``--workers 1``, so config resolution, CSV input and emission are inside
the measurement.  The benchmark imports hfcopula from ``src/`` next to
this directory and from nowhere else; without it, it exits with code 2.

With ``--trace 0`` a run measures set-up in three fresh processes, makes
the untimed first call, then makes calls until their summed wall time
reaches ``--seconds``, and reports the end-to-end metrics.  Times are
calibrated: each call's wall time is divided by the mean of the
reference loop's times just before and just after it, and scaled by
``reference.NOMINAL_S`` (see ``reference.py`` for why).  With
``--trace 1`` it makes a fixed number of pairs of calls, one untraced
and the same one traced (see ``tracing.py``), and reports the per-layer
metrics.  Either way the outputs of every call are checked, and the last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 3

END_TO_END = {"setup_s": "s", "items_per_s": "items/s", "call_p50_ms": "ms", "peak_rss_mb": "MB"}
PER_LAYER = {
    "simulate.calls": "count", "simulate.busy_s": "s", "simulate.substeps_per_s": "1/s",
    "estimators.path_calls": "count", "estimators.path_busy_s": "s",
    "estimators.query_calls": "count", "estimators.query_self_s": "s",
    "kernel.psi_calls": "count", "kernel.psi_busy_s": "s",
    "kernel.grad_psi_calls": "count", "kernel.grad_psi_busy_s": "s",
    "kernel.grid_calls": "count", "kernel.grid_busy_s": "s", "kernel.grid_cells_per_s": "1/s",
    "kernel.max_abs_err": "1",
    "experiments.reduce_self_s": "s", "experiments.emit_busy_s": "s",
    "experiments.emit_bytes": "bytes", "experiments.replications": "count",
    "experiments.kept": "count",
    "cli.self_s": "s", "cli.input_bytes": "bytes",
    "trace.overhead_s": "s", "trace.untraced_s": "s", "trace.traced_s": "s",
}
WORKLOAD_NAMES = ("qq_cir", "rho_const", "estimate_cli", "contour_cli")


class Runner:
    """Makes the calls of one workload and keeps the tally of their checks."""

    def __init__(self, workload, cli, out: Path):
        self.wl = workload
        self.cli = cli
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.input_bytes = workload.input_bytes()

    def call(self, k: int, tracer=None) -> float:
        """Make call ``k``, check what it wrote, and return its wall time."""
        shutil.rmtree(self.out, ignore_errors=True)
        argv = self.wl.argv(k, self.out)
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            if tracer is None:
                code = self.cli.main(argv)
            else:
                code = tracer.call("main", self.cli.main, (argv,), size=self.input_bytes)
            elapsed = time.perf_counter() - start
        self.attempted += self.wl.ops_per_call
        if code != 0:
            self.failed += self.wl.ops_per_call
            self.problems.append(f"{self.wl.name} call {k}: exit code {code}")
            return elapsed
        try:
            failed, problems = self.wl.check_call(k, self.out)
        except (OSError, ValueError, KeyError) as exc:
            failed, problems = self.wl.ops_per_call, [f"{self.wl.name} call {k}: {exc!r}"]
        self.failed += failed
        self.problems += problems
        return elapsed


def probe(argv: list[str]) -> dict:
    """Set-up time and peak memory of a fresh process making the first call."""
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), str(SRC), *argv],
                          capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_cli():
    sys.path.insert(0, str(SRC))
    import hfcopula
    from hfcopula import cli

    if not Path(hfcopula.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"hfcopula imported from {hfcopula.__file__}, not from {SRC}")
    return cli


def timed_run(runner: Runner, seconds: float) -> tuple[list[float], list[float]]:
    """Calls until their wall time sums to ``seconds``: (wall times, calibrated times)."""
    from reference import NOMINAL_S, reference_s

    walls: list[float] = []
    calibrated: list[float] = []
    before = reference_s()
    k = 1
    while sum(walls) < seconds or len(walls) < runner.wl.min_calls:
        walls.append(runner.call(k))
        # about a tenth of the call's time goes to the loop, so that a long
        # call is calibrated on more than its two edges
        passes = max(1, round(0.1 * walls[-1] / NOMINAL_S))
        after = statistics.fmean(reference_s() for _ in range(passes))
        calibrated.append(walls[-1] / (0.5 * (before + after)) * NOMINAL_S)
        before = after
        k += 1
    return walls, calibrated


def end_to_end(runner: Runner, probes: list[dict], seconds: float) -> dict:
    from reference import NOMINAL_S

    wl = runner.wl
    walls, calibrated = timed_run(runner, seconds)
    runner.problems += wl.finish()
    print(f"{wl.name}: {len(walls)} timed calls, call_p50_ms is their median; "
          f"uncalibrated: median {1000.0 * statistics.median(walls):.1f} ms, "
          f"{wl.items_per_call * len(walls) / sum(walls):.6g} items/s, "
          f"set-up {statistics.median(p['setup_s'] for p in probes):.3f} s", file=sys.stderr)
    return {
        "setup_s": statistics.median(p["setup_s"] / p["ref_s"] * NOMINAL_S for p in probes),
        "items_per_s": wl.items_per_call * len(calibrated) / sum(calibrated),
        "call_p50_ms": 1000.0 * statistics.median(calibrated),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in probes),
    }


def traced_run(runner: Runner, seconds: float) -> dict:
    """Pairs of the same call, untraced then traced; per-layer totals of the traced ones.

    The round count depends only on the workload and ``seconds``, so the
    call counts repeat exactly from run to run.  Pairing the calls keeps
    a drift of the machine's speed out of the tracing overhead.
    """
    from tracing import Tracer, layer_metrics

    wl = runner.wl
    rounds = max(wl.min_calls, round(seconds / (2.0 * wl.call_s)))
    tracer = Tracer()
    untraced = traced = 0.0
    for k in range(1, rounds + 1):
        untraced += runner.call(k)
        tracer.install()
        try:
            traced += runner.call(k, tracer)
        finally:
            tracer.uninstall()
    tracer.write(HERE / "_traces" / f"{wl.name}.json")
    wl.grid_calls = tracer.grids
    runner.problems += wl.finish()
    metrics = layer_metrics(tracer)
    metrics["kernel.max_abs_err"] = wl.kernel_err
    metrics["trace.untraced_s"] = untraced
    metrics["trace.traced_s"] = traced
    metrics["trace.overhead_s"] = traced - untraced
    print(f"{wl.name}: {rounds} calls untraced, each followed by the same call traced",
          file=sys.stderr)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    try:
        wl = WORKLOADS[name](seed, work)
        probes = [] if trace else [probe(wl.argv(0, work / f"probe{i}"))
                                   for i in range(SETUP_PROBES)]
        runner = Runner(wl, import_cli(), work / "out")
        runner.problems += [f"{name} set-up probe: exit code {p['exit']}"
                            for p in probes if p["exit"] != 0]
        runner.call(0)
        metrics = traced_run(runner, seconds) if trace else end_to_end(runner, probes, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    for problem in runner.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for key, unit in units.items():
        print(f"{name}: {key} = {metrics[key]:.6g} {unit}", file=sys.stderr)
    print(f"{name}: attempted {runner.attempted}, failed {runner.failed}", file=sys.stderr)
    return {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }


def run_all(args) -> int:
    """Each workload in its own process; one result line per workload."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= 0 if result["correct"] else 1
        print(f"{name}: {lines[-1]}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "hfcopula" / "cli.py").is_file():
        print(f"error: no hfcopula sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
