"""Command-line interface.

One executable with five commands (simulate, estimate, contour, qq, rho)
wired to the library modules.  Settings resolve in three layers: built-in
defaults, then a JSON config file, then command-line flags.  All outputs
are UTF-8 CSV plus a JSON metadata file that echoes the resolved settings,
so any output directory is reproducible from its own metadata.

Exit codes: 0 success, 2 config or validation error, 3 numerical failure
(realized variations that coincide), 4 I/O or input-data error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .estimators import CopulaQuery, SampledPath, boundary_aware_interval, realized_variation
from .experiments import (
    ContourSpec,
    QqSpec,
    RhoSpec,
    run_contour,
    run_qq,
    run_rho,
    write_csv,
    write_report,
)
from .kernel import NearDiagonalError
from .simulate import CirParams, ConstantVol, SimConfig, simulate_scenario

__all__ = ["main"]

_COMMANDS = ("simulate", "estimate", "contour", "qq", "rho")

# flags that only the command line takes; every other flag's key may also
# be set in a config file
_FLAG_ONLY = {"help", "version", "config", "verbose"}


class ConfigError(ValueError):
    """Bad config file or flag combination."""


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


# every key a config file may set; anything else is a config error
_CONFIG_KEYS = frozenset(a.dest for a in _build_parser()._actions) - _FLAG_ONLY


def _load_config_file(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return data


def _resolve(args: argparse.Namespace) -> dict:
    cfg: dict = {"seed": 0, "out": "out", "workers": 1, "level": 0.95}
    if args.config is not None:
        cfg.update(_load_config_file(args.config))
    flag_names = [k for k in _CONFIG_KEYS if k not in ("command",)]
    for key in flag_names:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if args.command is not None:
        cfg["command"] = args.command
    if "command" not in cfg:
        raise ConfigError("no command given: use --command or a config file")
    if cfg["command"] not in _COMMANDS:
        raise ConfigError(f"unknown command {cfg['command']!r}")
    workers = cfg["workers"]
    if not (isinstance(workers, int) and not isinstance(workers, bool) and workers >= 1):
        raise ConfigError(f"workers must be an integer >= 1, got {workers!r}")
    if isinstance(cfg.get("n_list"), str):
        try:
            cfg["n_list"] = tuple(int(x) for x in cfg["n_list"].split(",") if x.strip())
        except ValueError as exc:
            raise ConfigError(f"bad n_list: {cfg['n_list']!r}") from exc
    if isinstance(cfg.get("n_list"), list):
        cfg["n_list"] = tuple(cfg["n_list"])
    return cfg


def _vol_model(cfg: dict) -> CirParams | ConstantVol:
    if cfg.get("constant_vol") is not None:
        return ConstantVol(sigma2=cfg["constant_vol"])
    return CirParams(
        kappa=cfg.get("kappa", 0.5),
        theta=cfg.get("theta", 1.5),
        nu=cfg.get("nu", 1.0),
        s0=cfg.get("s0", 1.5),
    )


def cmd_simulate(cfg: dict) -> int:
    vol = _vol_model(cfg)
    sim = SimConfig(
        n=cfg.get("n", 1000),
        horizon=cfg.get("horizon", 1.0),
        substeps=cfg.get("substeps", 10),
        seed=cfg["seed"],
    )
    scn = simulate_scenario(vol, sim)

    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    times = np.arange(scn.path.values.size) / sim.n
    write_csv(out / "scenario.csv", {
        "time": times,
        "X": scn.path.values,
        "true_T": scn.true_T,
        "true_Q": scn.true_Q,
    })
    meta = {
        "command": "simulate",
        "version": __version__,
        "seed": sim.seed,
        "n": sim.n,
        "horizon": sim.horizon,
        "substeps": sim.substeps,
        "vol": {"model": "constant", "sigma2": vol.sigma2} if isinstance(vol, ConstantVol)
        else {"model": "cir", "kappa": vol.kappa, "theta": vol.theta,
              "nu": vol.nu, "s0": vol.s0},
        "files": ["scenario.csv"],
    }
    (out / "simulate_meta.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"simulate: wrote {scn.path.values.size} rows to {out / 'scenario.csv'}")
    return 0


def _read_path_csv(path: Path) -> SampledPath:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputDataError(f"cannot read input file {path}: {exc}") from exc
    rows = list(csv.reader(text.splitlines()))
    if not rows:
        raise InputDataError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    if "time" not in header or "X" not in header:
        raise InputDataError(f"{path}: header must contain 'time' and 'X' columns")
    it, ix = header.index("time"), header.index("X")
    try:
        times = np.array([float(r[it]) for r in rows[1:]])
        values = np.array([float(r[ix]) for r in rows[1:]])
    except (ValueError, IndexError) as exc:
        raise InputDataError(f"{path}: malformed data row: {exc}") from exc
    if times.size < 2:
        raise InputDataError(f"{path}: need at least 2 observations")

    dt = np.diff(times)
    mean_dt = (times[-1] - times[0]) / (times.size - 1)
    if mean_dt <= 0.0 or np.any(np.abs(dt - mean_dt) > 1e-9 * abs(mean_dt)):
        raise ValueError(f"{path}: non-uniform grid (relative tolerance 1e-9)")
    if abs(times[0]) > 1e-9 * mean_dt:
        raise ValueError(f"{path}: grid must start at time 0, got {times[0]!r}")
    n = round(1.0 / mean_dt)
    if n < 1 or abs(n * mean_dt - 1.0) > 1e-9:
        raise ValueError(f"{path}: grid spacing {mean_dt!r} is not 1/n for integer n")
    horizon = (times.size - 1) / n
    return SampledPath(values=values, n=n, horizon=horizon)


def _read_queries(cfg: dict) -> list[tuple[CopulaQuery, float]]:
    default_level = cfg["level"]
    if cfg.get("queries") is not None:
        qpath = Path(cfg["queries"])
        try:
            text = qpath.read_text(encoding="utf-8")
        except OSError as exc:
            raise InputDataError(f"cannot read queries file {qpath}: {exc}") from exc
        rows = list(csv.reader(text.splitlines()))
        if not rows:
            raise InputDataError(f"{qpath}: empty file")
        header = [h.strip() for h in rows[0]]
        needed = ("s", "t", "u", "v")
        if any(c not in header for c in needed):
            raise InputDataError(f"{qpath}: header must contain columns s,t,u,v")
        idx = {c: header.index(c) for c in needed}
        ilevel = header.index("level") if "level" in header else None
        out = []
        for r in rows[1:]:
            try:
                fields = {c: float(r[idx[c]]) for c in needed}
                lvl = float(r[ilevel]) if ilevel is not None else default_level
            except (IndexError, ValueError) as exc:
                raise InputDataError(f"{qpath}: malformed query row {r!r}: {exc}") from exc
            # domain violations are validation errors, not data errors
            out.append((CopulaQuery(**fields), lvl))
        if not out:
            raise InputDataError(f"{qpath}: no query rows")
        return out
    missing = [k for k in ("s", "t", "u", "v") if cfg.get(k) is None]
    if missing:
        raise ConfigError(
            f"estimate needs either --queries or all of --s/--t/--u/--v (missing {missing})"
        )
    return [(CopulaQuery(s=cfg["s"], t=cfg["t"], u=cfg["u"], v=cfg["v"]), default_level)]


def cmd_estimate(cfg: dict) -> int:
    if cfg.get("input") is None:
        raise ConfigError("estimate needs --input pointing at a path CSV")
    path = _read_path_csv(Path(cfg["input"]))
    queries = _read_queries(cfg)
    for q, lvl in queries:
        if not 0.0 < lvl < 1.0:
            raise ValueError(f"level must lie in (0, 1), got {lvl!r}")
        if q.s > path.horizon or q.t > path.horizon:
            raise ValueError(
                f"query ({q.s!r}, {q.t!r}) outside the observed horizon {path.horizon!r}"
            )

    cols: dict[str, list] = {k: [] for k in
                             ("s", "t", "u", "v", "level", "c_hat", "v_hat",
                              "ci_lo", "ci_hi", "rv_s", "rv_t")}
    for q, lvl in queries:
        est = boundary_aware_interval(path, q, lvl)
        cols["s"].append(q.s)
        cols["t"].append(q.t)
        cols["u"].append(q.u)
        cols["v"].append(q.v)
        cols["level"].append(lvl)
        cols["c_hat"].append(est.c_hat)
        cols["v_hat"].append(est.v_hat)
        cols["ci_lo"].append(est.ci_lo)
        cols["ci_hi"].append(est.ci_hi)
        cols["rv_s"].append(realized_variation(path, q.s))
        cols["rv_t"].append(realized_variation(path, q.t))

    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "estimates.csv", {k: np.array(v) for k, v in cols.items()})
    meta = {
        "command": "estimate",
        "version": __version__,
        "input": str(cfg["input"]),
        "n": path.n,
        "horizon": path.horizon,
        "queries": len(queries),
        "files": ["estimates.csv"],
    }
    (out / "estimate_meta.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"estimate: wrote {len(queries)} rows to {out / 'estimates.csv'}")
    return 0


def cmd_experiment(cfg: dict) -> int:
    command = cfg["command"]
    vol = _vol_model(cfg)
    common = {"seed": cfg["seed"], "vol": vol}
    if cfg.get("substeps") is not None:
        common["substeps"] = cfg["substeps"]
    if cfg.get("horizon") is not None:
        common["horizon"] = cfg["horizon"]

    if command == "contour":
        spec_kwargs = dict(common)
        for key in ("s", "t", "uv_grid", "level", "replications"):
            if cfg.get(key) is not None:
                spec_kwargs[key] = cfg[key]
        if cfg.get("n_list") is not None:
            spec_kwargs["n_list"] = cfg["n_list"]
        elif cfg.get("n") is not None:
            spec_kwargs["n_list"] = (cfg["n"],)
        spec = ContourSpec(**spec_kwargs)
        report = run_contour(spec, workers=cfg["workers"])
        per_n = report.metadata["per_n"]
        summary = "; ".join(
            f"n={n} coverage={per_n[str(n)]['mean_interior_coverage']:.4f} "
            f"mean_width={per_n[str(n)]['mean_interior_width']:.5f}"
            for n in spec.n_list)
    elif command == "qq":
        spec_kwargs = dict(common)
        for key in ("s", "t", "u", "v", "n", "replications"):
            if cfg.get(key) is not None:
                spec_kwargs[key] = cfg[key]
        spec = QqSpec(**spec_kwargs)
        report = run_qq(spec, workers=cfg["workers"])
        md = report.metadata
        summary = (f"kept={md['kept']} dropped={sum(md['dropped'].values())} "
                   f"ks={md['ks_distance']:.4f} mean={md['mean_statistic']:.4f} "
                   f"var={md['variance_statistic']:.4f}")
    else:
        spec_kwargs = dict(common)
        for key in ("tau", "st_step", "uv_grid", "replications"):
            if cfg.get(key) is not None:
                spec_kwargs[key] = cfg[key]
        if cfg.get("n_list") is not None:
            spec_kwargs["n_list"] = cfg["n_list"]
        elif cfg.get("n") is not None:
            spec_kwargs["n_list"] = (cfg["n"],)
        spec = RhoSpec(**spec_kwargs)
        report = run_rho(spec, workers=cfg["workers"])
        per_n = report.metadata["per_n"]
        summary = "; ".join(
            f"n={n} median={per_n[str(n)]['median_rho']:.5f} "
            f"ref={per_n[str(n)]['ref_rate']:.5f}"
            for n in spec.n_list)

    paths = write_report(report, cfg["out"])
    print(f"{command}: {summary}")
    print(f"{command}: wrote {len(paths)} files to {cfg['out']}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args)
        if args.verbose:
            print(json.dumps(cfg, sort_keys=True, default=str), file=sys.stderr)
        if cfg["command"] == "simulate":
            return cmd_simulate(cfg)
        if cfg["command"] == "estimate":
            return cmd_estimate(cfg)
        return cmd_experiment(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
