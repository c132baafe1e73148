"""Command-line interface.

One executable with five commands (simulate, estimate, contour, qq, rho)
wired to the library modules.  Settings resolve in three layers: built-in
defaults, then a JSON config file, then command-line flags; a config-file
value must have the type of its flag.  Each command returns an
:class:`ExperimentReport` and a one-line summary and writes nothing;
:func:`main` writes the report with :func:`write_report`, so every check
runs before any file exists.  All outputs are UTF-8 CSV plus a JSON
metadata file that echoes the resolved settings, so any output directory
is reproducible from its own metadata.

Exit codes: 0 success, 2 config or validation error, 3 numerical failure
(realized variations that coincide), 4 I/O or input-data error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .estimators import SampledPath, _is_int, _is_real, boundary_aware_interval
from .experiments import (
    ContourSpec,
    ExperimentReport,
    QqSpec,
    RhoSpec,
    _COMMANDS,
    _vol_dict,
    run_contour,
    run_qq,
    run_rho,
    write_report,
)
# bound here only for bench/tracing.py, which wraps cli.write_csv by name
from .experiments import write_csv  # noqa: F401
from .kernel import NearDiagonalError
from .simulate import DEFAULT_CIR, CirParams, ConstantVol, SimConfig, simulate_scenario

__all__ = ["main"]

# flags that only the command line takes; every other flag's key may also
# be set in a config file
_FLAG_ONLY = {"help", "version", "config", "verbose"}


class InputDataError(Exception):
    """Input data file exists but cannot be parsed as expected."""


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hfcopula",
        description="Copula estimation for time-changed Brownian motion: "
                    "simulation, estimation, and Monte Carlo experiments.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    p.add_argument("--command", choices=_COMMANDS, help="what to run")
    p.add_argument("--config", type=Path, help="JSON config file (flags override it)")
    p.add_argument("--out", help="output directory (default: out)")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--workers", type=int, help="max parallel replication workers")
    p.add_argument("--verbose", action="store_true", help="echo resolved config to stderr")

    g = p.add_argument_group("model and sampling overrides")
    g.add_argument("--n", type=int, help="observations per unit time")
    g.add_argument("--n-list", help="comma-separated list of n values")
    g.add_argument("--horizon", type=float, help="observation horizon")
    g.add_argument("--substeps", type=int, help="simulation sub-grid refinement")
    g.add_argument("--kappa", type=float, help="CIR mean-reversion rate")
    g.add_argument("--theta", type=float, help="CIR long-run variance")
    g.add_argument("--nu", type=float, help="CIR vol-of-vol")
    g.add_argument("--s0", type=float, help="CIR initial variance")
    g.add_argument("--constant-vol", type=float,
                   help="hold variance constant at this value instead of CIR")

    q = p.add_argument_group("query and experiment overrides")
    q.add_argument("--s", type=float, help="first time point")
    q.add_argument("--t", type=float, help="second time point")
    q.add_argument("--u", type=float, help="first unit coordinate")
    q.add_argument("--v", type=float, help="second unit coordinate")
    q.add_argument("--level", type=float, help="confidence level")
    q.add_argument("--uv-grid", type=int, help="grid resolution per unit axis")
    q.add_argument("--st-step", type=float, help="time grid step for the sup statistic")
    q.add_argument("--tau", type=float, help="lower time bound for the sup statistic")
    q.add_argument("--replications", type=int, help="Monte Carlo replication count")
    q.add_argument("--input", help="path CSV to estimate from (columns: time,X)")
    q.add_argument("--queries", help="query CSV (columns: s,t,u,v[,level])")
    return p


# the type= of the flag of every key a config file may set; any other key is
# a config error
_CONFIG_TYPES = {a.dest: a.type for a in _build_parser()._actions if a.dest not in _FLAG_ONLY}
_CONFIG_KEYS = frozenset(_CONFIG_TYPES)

# a config-file value must pass the check for its flag's type (n_list may
# also be a JSON list); null passes none of them
_TYPE_CHECKS = {
    int: (_is_int, "an integer"),
    float: (_is_real, "a real number"),
    None: (lambda val: isinstance(val, str), "a string"),
}


def _load_config_file(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return data


def _resolve(args: argparse.Namespace) -> dict:
    cfg: dict = {"seed": 0, "out": "out", "workers": 1, "level": 0.95}
    if args.config is not None:
        data = _load_config_file(args.config)
        for key, val in data.items():
            is_type, what = _TYPE_CHECKS[_CONFIG_TYPES[key]]
            if not (is_type(val) or key == "n_list" and isinstance(val, list)):
                raise ValueError(f"config value {key!r} must be {what}, got {val!r}")
        cfg.update(data)
    for key in _CONFIG_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if "command" not in cfg:
        raise ValueError("no command given: use --command or a config file")
    if cfg["command"] not in _COMMANDS:
        raise ValueError(f"unknown command {cfg['command']!r}")
    if cfg["workers"] < 1:
        raise ValueError(f"workers must be an integer >= 1, got {cfg['workers']!r}")
    if isinstance(cfg.get("n_list"), str):
        try:
            cfg["n_list"] = tuple(int(x) for x in cfg["n_list"].split(",") if x.strip())
        except ValueError as exc:
            raise ValueError(f"bad n_list: {cfg['n_list']!r}") from exc
    return cfg


def _set_fields(cls, cfg: dict) -> dict:
    """The fields of dataclass ``cls`` that the resolved config sets."""
    return {f.name: cfg[f.name] for f in fields(cls) if f.name in cfg}


def _vol_model(cfg: dict) -> CirParams | ConstantVol:
    if "constant_vol" in cfg:
        return ConstantVol(sigma2=cfg["constant_vol"])
    return replace(DEFAULT_CIR, **_set_fields(CirParams, cfg))


def cmd_simulate(cfg: dict) -> tuple[ExperimentReport, str]:
    vol = _vol_model(cfg)
    sim = SimConfig(**{"n": 1000, **_set_fields(SimConfig, cfg)})
    scn = simulate_scenario(vol, sim)
    values = scn.path.values
    scenario = {"time": np.arange(values.size) / sim.n, "X": values,
                "true_T": scn.true_T, "true_Q": scn.true_Q}
    meta = {"command": "simulate", "version": __version__, **asdict(sim),
            "vol": _vol_dict(vol)}
    return ExperimentReport("simulate", {"scenario": scenario}, meta), f"rows={values.size}"


def _read_columns(path: str, needed: tuple[str, ...],
                  optional: tuple[str, ...] = ()) -> dict[str, np.ndarray]:
    """The columns ``needed``, and those of ``optional`` present, of a CSV file.

    The header names the columns, in any order; other columns are ignored.
    Every later line is a data row of comma-separated numbers, which may be
    quoted: a blank line or a ``#`` comment is a malformed row.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputDataError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines:
        raise InputDataError(f"{path}: empty file")
    header = [h.strip() for h in next(csv.reader(lines[:1]))]
    if any(c not in header for c in needed):
        raise InputDataError(f"{path}: header must contain columns {','.join(needed)}")
    index = {c: header.index(c) for c in (*needed, *optional) if c in header}
    body = lines[1:]
    # loadtxt would skip a blank line
    if "" in body:
        raise InputDataError(f"{path}: malformed data row: line {body.index('') + 2} is blank")
    try:
        data = (np.loadtxt(body, delimiter=",", comments=None, quotechar='"',
                           usecols=tuple(index.values()), ndmin=2)
                if body else np.empty((0, len(index))))
    except ValueError as exc:
        raise InputDataError(f"{path}: malformed data row: {exc}") from exc
    return dict(zip(index, data.T))


def _read_path_csv(path: str) -> SampledPath:
    cols = _read_columns(path, ("time", "X"))
    times, values = cols["time"], cols["X"]
    if times.size < 2:
        raise InputDataError(f"{path}: need at least 2 observations")

    dt = np.diff(times)
    mean_dt = (times[-1] - times[0]) / (times.size - 1)
    if mean_dt <= 0.0 or np.any(np.abs(dt - mean_dt) > 1e-9 * abs(mean_dt)):
        raise ValueError(f"{path}: non-uniform grid (relative tolerance 1e-9)")
    if abs(times[0]) > 1e-9 * mean_dt:
        raise ValueError(f"{path}: grid must start at time 0, got {float(times[0])!r}")
    n = round(1.0 / mean_dt)
    if n < 1 or abs(n * mean_dt - 1.0) > 1e-9:
        raise ValueError(f"{path}: grid spacing {float(mean_dt)!r} is not 1/n for integer n")
    horizon = (times.size - 1) / n
    return SampledPath(values=values, n=n, horizon=horizon)


_QUERY_COLUMNS = ("s", "t", "u", "v")


def _read_queries(cfg: dict) -> dict[str, np.ndarray]:
    """The query columns s, t, u, v and level; boundary_aware_interval checks the rows."""
    if "queries" in cfg:
        cols = _read_columns(cfg["queries"], _QUERY_COLUMNS, optional=("level",))
        if not cols["s"].size:
            raise InputDataError(f"{cfg['queries']}: no query rows")
        cols.setdefault("level", np.full(cols["s"].size, cfg["level"]))
        return cols
    missing = [k for k in _QUERY_COLUMNS if k not in cfg]
    if missing:
        raise ValueError(
            f"estimate needs either --queries or all of --s/--t/--u/--v (missing {missing})"
        )
    return {c: np.array([cfg[c]]) for c in (*_QUERY_COLUMNS, "level")}


_ESTIMATE_COLUMNS = ("s", "t", "u", "v", "level", "c_hat", "v_hat",
                     "ci_lo", "ci_hi", "rv_s", "rv_t")


def cmd_estimate(cfg: dict) -> tuple[ExperimentReport, str]:
    if "input" not in cfg:
        raise ValueError("estimate needs --input pointing at a path CSV")
    path = _read_path_csv(cfg["input"])
    queries = _read_queries(cfg)
    # out-of-range values are validation errors (exit 2), not data errors
    est = boundary_aware_interval(path, *(queries[c] for c in (*_QUERY_COLUMNS, "level")))
    estimates = {name: queries[name] if name in queries else est[name]
                 for name in _ESTIMATE_COLUMNS}
    rows = queries["s"].size
    meta = {"command": "estimate", "version": __version__, "input": cfg["input"],
            "n": path.n, "horizon": path.horizon, "queries": rows}
    return ExperimentReport("estimate", {"estimates": estimates}, meta), f"rows={rows}"


# one line per n of a contour or rho run, filled from its metadata entry for n
_PER_N_SUMMARY = {
    "contour": "coverage={mean_interior_coverage:.4f} mean_width={mean_interior_width:.5f}",
    "rho": "median={median_rho:.5f} ref={ref_rate:.5f}",
}


def _summary(md: dict) -> str:
    if md["kind"] == "qq":
        return (f"kept={md['kept']} dropped={sum(md['dropped'].values())} "
                f"ks={md['ks_distance']:.4f} mean={md['mean_statistic']:.4f} "
                f"var={md['variance_statistic']:.4f}")
    return "; ".join(f"n={n} " + _PER_N_SUMMARY[md["kind"]].format(**entry)
                     for n, entry in md["per_n"].items())


def cmd_experiment(cfg: dict) -> tuple[ExperimentReport, str]:
    # built per call, so that a runner name rebound in this module is the one called
    spec_cls, run = {
        "contour": (ContourSpec, run_contour),
        "qq": (QqSpec, run_qq),
        "rho": (RhoSpec, run_rho),
    }[cfg["command"]]
    kwargs = _set_fields(spec_cls, cfg)
    if "n_list" in spec_cls.__dataclass_fields__ and "n" in cfg:
        kwargs.setdefault("n_list", (cfg["n"],))
    report = run(spec_cls(**kwargs, vol=_vol_model(cfg)), workers=cfg["workers"])
    return report, _summary(report.metadata)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args)
        if args.verbose:
            print(json.dumps(cfg, sort_keys=True, default=str), file=sys.stderr)
        command = cfg["command"]
        build = {"simulate": cmd_simulate, "estimate": cmd_estimate}.get(command, cmd_experiment)
        report, summary = build(cfg)
        paths = write_report(report, cfg["out"])
        print(f"{command}: {summary}")
        print(f"{command}: wrote {len(paths)} files to {cfg['out']}")
        return 0
    except NearDiagonalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InputDataError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
