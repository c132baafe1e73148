"""Monte Carlo experiment runners and report emission.

Three experiments: confidence contours on a (u, v) grid, the QQ data of
the studentized statistic, and the sup-norm distance between estimated
and true copula over a time/unit grid with a kernel density estimate on
log scale.  Every runner is a pure function of its spec (the master seed
included); replications derive their seed as master + index and may be
farmed out to a process pool without changing a single output byte.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .estimators import (
    _check_pos_int,
    _check_real,
    _grid_index,
    copula_estimate,
    interval_bounds,
    realized_variation,
    variance_estimate,
)
from .kernel import NearDiagonalError, clock_angle, ndtr, ndtri, psi_grid, sup_difference
# bound here only for bench/tracing.py, which wraps experiments.grad_psi_grid and
# experiments.psi by name
from .kernel import grad_psi_grid, psi  # noqa: F401
from .simulate import DEFAULT_CIR, CirParams, ConstantVol, SimConfig, simulate_scenario

__all__ = [
    "ContourSpec",
    "QqSpec",
    "RhoSpec",
    "ExperimentReport",
    "run_contour",
    "run_qq",
    "run_rho",
    "kde_log",
    "ks_normal_distance",
    "write_report",
    "write_csv",
]

# the commands of the CLI, each of which names the *_meta.json of its report
_COMMANDS = ("simulate", "estimate", "contour", "qq", "rho")


def _check_spec(spec) -> None:
    """Checks of the fields every spec has, and of those only some specs have.

    ``n_list`` or ``n``, ``uv_grid``, ``s`` and ``t`` are checked where
    present.  Runs first in each spec, so that the spec's own checks may
    rely on a valid ``horizon``.
    """
    _check_real("horizon", spec.horizon, lo=0.0)
    _check_pos_int("replications", spec.replications)
    _check_pos_int("seed", spec.seed, minimum=0)
    # replication i runs at seed + i, so every such seed must fit SimConfig
    if spec.seed + spec.replications - 1 >= 2 ** 64:
        raise ValueError(
            f"seed + replications - 1 must be below 2**64 (replication i runs at "
            f"seed + i), got seed={spec.seed!r}, replications={spec.replications!r}"
        )
    _check_pos_int("substeps", spec.substeps)
    if not isinstance(spec.vol, (CirParams, ConstantVol)):
        raise ValueError(f"vol must be CirParams or ConstantVol, got {spec.vol!r}")
    if hasattr(spec, "n_list"):
        object.__setattr__(spec, "n_list", tuple(_check_pos_int("n", n) for n in spec.n_list))
        if not spec.n_list:
            raise ValueError("n_list must not be empty")
    n_values = spec.n_list if hasattr(spec, "n_list") else (_check_pos_int("n", spec.n),)
    # SimConfig owns the sampling layout (n * horizon whole intervals): build
    # one per n now, so that no frequency's replications run before another fails
    for n in n_values:
        SimConfig(n=n, horizon=spec.horizon, substeps=spec.substeps, seed=spec.seed)
    if hasattr(spec, "uv_grid") and _check_pos_int("uv_grid", spec.uv_grid) < 2:
        raise ValueError(f"uv_grid must be >= 2, got {spec.uv_grid!r}")
    if hasattr(spec, "s"):
        s, t = _check_real("s", spec.s), _check_real("t", spec.t)
        if not 0.0 < s < t <= spec.horizon:
            raise ValueError(
                f"need 0 < s < t <= horizon, got s={spec.s!r}, t={spec.t!r}, "
                f"horizon={spec.horizon!r}"
            )
        # the gradient needs 0 < [X]_s < [X]_t, so s and t must fall in
        # distinct grid cells past the first, at every sampling frequency
        for n in n_values:
            if not 1 <= _grid_index(n, s) < _grid_index(n, t):
                raise ValueError(
                    f"need 1 <= floor(n*s) < floor(n*t), so that 0 < [X]_s < [X]_t, "
                    f"got n={n!r}, s={spec.s!r}, t={spec.t!r}"
                )


@dataclass(frozen=True)
class ContourSpec:
    """Confidence-contour experiment over a full (u, v) grid."""

    s: float = 0.3
    t: float = 0.7
    n_list: tuple[int, ...] = (100, 10000)
    uv_grid: int = 101
    level: float = 0.95
    replications: int = 1
    seed: int = 0
    horizon: float = 1.0
    substeps: int = 10
    vol: CirParams | ConstantVol = DEFAULT_CIR

    def __post_init__(self) -> None:
        _check_spec(self)
        _check_real("level", self.level, lo=0.0, hi=1.0)


@dataclass(frozen=True)
class QqSpec:
    """Studentized-statistic sampling experiment at a single query point."""

    s: float = 0.3
    t: float = 0.7
    u: float = 0.7
    v: float = 0.3
    n: int = 10000
    replications: int = 1000
    seed: int = 0
    horizon: float = 1.0
    substeps: int = 10
    vol: CirParams | ConstantVol = DEFAULT_CIR

    def __post_init__(self) -> None:
        _check_spec(self)
        _check_real("u", self.u, lo=0.0, hi=1.0)
        _check_real("v", self.v, lo=0.0, hi=1.0)


@dataclass(frozen=True)
class RhoSpec:
    """Sup-norm statistic experiment over a time grid and (u, v) grid."""

    tau: float = 0.1
    horizon: float = 1.0
    st_step: float = 0.05
    uv_grid: int = 101
    n_list: tuple[int, ...] = (100, 400, 1600)
    replications: int = 500
    seed: int = 0
    substeps: int = 10
    vol: CirParams | ConstantVol = DEFAULT_CIR

    def __post_init__(self) -> None:
        _check_spec(self)
        _check_real("tau", self.tau, lo=0.0, hi=self.horizon)
        _check_real("st_step", self.st_step, lo=0.0)

    def time_grid(self) -> np.ndarray:
        count = int(math.floor((self.horizon - self.tau) / self.st_step + 1e-9)) + 1
        return self.tau + self.st_step * np.arange(count)


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    """Named data columns plus JSON-ready metadata for one command's run."""

    kind: str
    tables: dict[str, dict[str, np.ndarray]]
    metadata: dict

    def __post_init__(self) -> None:
        if self.kind not in _COMMANDS:
            raise ValueError(f"unknown report kind {self.kind!r}")
        for tname, cols in self.tables.items():
            lengths = {name: len(arr) for name, arr in cols.items()}
            if len(set(lengths.values())) > 1:
                raise ValueError(f"table {tname!r} has ragged columns: {lengths}")


def _vol_dict(vol: CirParams | ConstantVol) -> dict:
    """The variance model as metadata: its name and its parameters."""
    return {"model": "constant" if isinstance(vol, ConstantVol) else "cir", **asdict(vol)}


def _spec_dict(spec) -> dict:
    return {**asdict(spec), "vol": _vol_dict(spec.vol)}


def _pool_size(workers: int, count: int) -> int:
    """Processes to run ``count`` replications on: no more than replications or CPUs."""
    _check_pos_int("workers", workers)
    return min(int(workers), count, os.cpu_count() or 1)


def _map_replications(fn, count: int, workers: int) -> list:
    size = _pool_size(workers, count)
    if size <= 1:
        return [fn(i) for i in range(count)]
    # imported here, so that a single-process run never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, count // (size * 4))
    with ProcessPoolExecutor(max_workers=size) as ex:
        return list(ex.map(fn, range(count), chunksize=chunk))


# --- replications -----------------------------------------------------------

def _scenario(spec, n: int, rep: int, through: float | None = None):
    """Replication ``rep``'s scenario at ``n``: seed ``spec.seed + rep``, up to ``through``."""
    cfg = SimConfig(n=n, horizon=spec.horizon, substeps=spec.substeps,
                    seed=spec.seed + rep)
    return simulate_scenario(spec.vol, cfg, through=through)


def _replication(spec, n: int, u_axis: np.ndarray, v_axis: np.ndarray, rep: int):
    """``(c_true, c_hat, v_hat)`` of replication ``rep`` on the cells ``u_axis x v_axis``.

    The true copula, the plug-in estimate and its feasible variance at the
    spec's ``(s, t)``, each of shape ``(len(u_axis), len(v_axis))``.
    ``v_hat`` is NaN on the boundary of the unit square, where the interval
    is the point ``c_hat``, and at every cell when the realized variations
    coincide (NearDiagonalError).
    """
    # nothing past t is read, and the spec has s < t <= horizon
    scn = _scenario(spec, n, rep, through=spec.t)
    path = scn.path
    true_s, true_t = scn.true_T[path.index_at([spec.s, spec.t])].tolist()
    c_true = psi_grid(true_s, true_t, u_axis, v_axis)
    c_hat = copula_estimate(path, spec.s, spec.t, u_axis[:, None], v_axis[None, :])

    v_hat = np.full(c_hat.shape, np.nan)
    iu, iv = ((0.0 < axis) & (axis < 1.0) for axis in (u_axis, v_axis))
    try:
        v_hat[np.ix_(iu, iv)] = variance_estimate(path, spec.s, spec.t,
                                                  u_axis[iu][:, None], v_axis[iv][None, :])
    except NearDiagonalError:
        # realized variations coincide: this replication has no interval at any cell
        pass
    return c_true, c_hat, v_hat


# --- qq ---------------------------------------------------------------------

def run_qq(spec: QqSpec, workers: int = 1) -> ExperimentReport:
    """Sample the studentized statistic across replications.

    Replications whose variance estimate fails near the diagonal, and
    degenerate ones, whose statistic is not finite, are dropped from the
    statistic sample and counted in the metadata.
    """
    # the 1x1 case of the replication: one cell (u, v)
    reps = _map_replications(
        partial(_replication, spec, spec.n, np.array([spec.u]), np.array([spec.v])),
        spec.replications, workers)
    c_true, c_hat, v_hat = np.stack(reps, axis=1).reshape(3, spec.replications)

    near_diagonal = np.isnan(v_hat)
    # a v_hat of 0, or one so small that n / v_hat overflows, gives no
    # finite statistic: such a replication is degenerate
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        stat = np.sqrt(spec.n / v_hat) * (c_hat - c_true)
    ok = np.isfinite(stat)
    stat[~ok] = np.nan

    kept = stat[ok]
    order = np.sort(kept)
    m = order.size
    quantiles = ndtri((np.arange(1, m + 1) - 0.5) / m)
    ks = ks_normal_distance(order) if m else math.nan

    scaled_err = np.sqrt(spec.n) * (c_hat[ok] - c_true[ok])
    dropped = {
        "near_diagonal": int(near_diagonal.sum()),
        "degenerate": int((~ok & ~near_diagonal).sum()),
    }
    z975 = ndtri(0.975)
    metadata = {
        "spec": _spec_dict(spec),
        "kept": int(m),
        "dropped": dropped,
        "ks_distance": float(ks),
        "mean_statistic": float(np.mean(kept)) if m else math.nan,
        "variance_statistic": float(np.var(kept, ddof=1)) if m > 1 else math.nan,
        "mean_v_hat": float(np.mean(v_hat[ok])) if m else math.nan,
        "empirical_variance_scaled_error": float(np.var(scaled_err, ddof=1)) if m > 1 else math.nan,
        "coverage_95": float(np.mean(np.abs(kept) <= z975)) if m else math.nan,
    }
    tables = {
        "qq_statistics": {
            "rank": np.arange(1, m + 1),
            "statistic": order,
            "normal_quantile": quantiles,
        },
        "qq_replications": {
            "replication": np.arange(spec.replications),
            "c_true": c_true,
            "c_hat": c_hat,
            "v_hat": v_hat,
            "statistic": stat,
        },
    }
    return ExperimentReport(kind="qq", tables=tables, metadata=metadata)


# --- contour ----------------------------------------------------------------

def run_contour(spec: ContourSpec, workers: int = 1) -> ExperimentReport:
    """Estimate the copula with confidence bands on a (u, v) grid per n.

    Cells whose interval could not be computed (variance failure) are
    recorded as missing in that replication, never imputed.
    """
    ug = np.linspace(0.0, 1.0, spec.uv_grid)
    uu = np.repeat(ug, spec.uv_grid)
    vv = np.tile(ug, spec.uv_grid)
    inner = (0.0 < ug) & (ug < 1.0)
    interior = np.outer(inner, inner)

    tables = {}
    meta_per_n = {}
    for n in spec.n_list:
        reps = _map_replications(partial(_replication, spec, n, ug, ug),
                                 spec.replications, workers)
        c_true, c_hat, v_hat = np.stack(reps, axis=1)
        _, lo, hi = interval_bounds(c_hat, v_hat, n, ug[:, None], ug[None, :], spec.level)

        valid = ~np.isnan(lo)
        n_valid = valid.sum(axis=0)
        covered = np.where(valid, (lo <= c_true) & (c_true <= hi), 0.0)
        width = np.where(valid, hi - lo, 0.0)
        coverage = np.where(n_valid > 0, covered.sum(axis=0) / np.maximum(n_valid, 1), np.nan)
        mean_width = np.where(n_valid > 0, width.sum(axis=0) / np.maximum(n_valid, 1), np.nan)
        n_failed = spec.replications - n_valid

        tables[f"contour_n{n}"] = {
            "u": uu,
            "v": vv,
            "true_c": c_true[0].ravel(),
            "c_hat": c_hat[0].ravel(),
            "ci_lo": lo[0].ravel(),
            "ci_hi": hi[0].ravel(),
            "coverage": coverage.ravel(),
            "mean_width": mean_width.ravel(),
            "n_failed": n_failed.ravel().astype(np.int64),
        }
        # NaN when no interior cell has an interval in any replication
        meta_per_n[str(n)] = {
            "mean_interior_width": float(np.nanmean(mean_width[interior]))
            if n_valid[interior].any() else math.nan,
            "mean_interior_coverage": float(np.nanmean(coverage[interior]))
            if n_valid[interior].any() else math.nan,
            "failed_cells": int(n_failed.sum()),
        }

    metadata = {
        "spec": _spec_dict(spec),
        "per_n": meta_per_n,
    }
    return ExperimentReport(kind="contour", tables=tables, metadata=metadata)


# --- rho --------------------------------------------------------------------

def _sup_distance(true_clock: np.ndarray, realized_clock: np.ndarray,
                  grid: np.ndarray) -> float:
    """Sup of |psi(realized) - psi(true)| over ordered time pairs and cells ``grid x grid``."""
    i, j = np.triu_indices(true_clock.size, k=1)
    theta0 = clock_angle(true_clock[i], true_clock[j])
    theta1 = clock_angle(realized_clock[i], realized_clock[j])
    return float(np.max(sup_difference(grid, theta0, theta1), initial=0.0))


def _rho_replication(spec: RhoSpec, n: int, rep: int) -> float:
    scn = _scenario(spec, n, rep)
    path = scn.path
    tg = spec.time_grid()
    return _sup_distance(scn.true_T[path.index_at(tg)], realized_variation(path, tg),
                         np.linspace(0.0, 1.0, spec.uv_grid))


def run_rho(spec: RhoSpec, workers: int = 1) -> ExperimentReport:
    """Sample the sup-norm distance between estimated and true copula.

    The sup runs over ordered time pairs from the spec's grid (the kernel
    is symmetric, so unordered pairs add nothing) and the full (u, v)
    grid.  For each pair, one diagonal cell of the grid dominates all the
    others, and its distance is an integral over the correlation, from the
    true clock's to the realized clock's
    (:func:`~hfcopula.kernel.sup_difference`).
    """
    tables = {}
    meta_per_n = {}
    for n in spec.n_list:
        samples = np.array(_map_replications(
            partial(_rho_replication, spec, n), spec.replications, workers))

        tables[f"rho_samples_n{n}"] = {
            "replication": np.arange(spec.replications),
            "rho": samples,
        }
        entry = {
            "median_rho": float(np.median(samples)),
            "mean_rho": float(np.mean(samples)),
            "ref_rate": float(1.0 / math.sqrt(n)),
            "log_ref_rate": float(-0.5 * math.log(n)),
        }
        try:
            grid, density = kde_log(samples)
            tables[f"rho_kde_n{n}"] = {"log_rho": grid, "density": density}
            entry["kde"] = True
        except ValueError:
            # fewer than 2 samples or no spread: the samples table still
            # carries everything
            entry["kde"] = False
        meta_per_n[str(n)] = entry

    metadata = {
        "spec": _spec_dict(spec),
        "per_n": meta_per_n,
    }
    return ExperimentReport(kind="rho", tables=tables, metadata=metadata)


# --- statistics helpers -----------------------------------------------------

def kde_log(samples) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian kernel density estimate of log(samples) on a 512-point grid.

    Bandwidth is Silverman's rule h = 0.9 * min(sd, IQR/1.34) * m^(-1/5);
    the grid spans [min - 3h, max + 3h] of the log data.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need at least 2 samples")
    if not np.all(np.isfinite(x)) or np.any(x <= 0.0):
        raise ValueError("samples must be positive finite reals")
    logx = np.log(x)
    sd = float(np.std(logx, ddof=1))
    iqr = float(np.quantile(logx, 0.75) - np.quantile(logx, 0.25))
    h = 0.9 * min(sd, iqr / 1.34) * x.size ** (-0.2)
    if not h > 0.0:
        raise ValueError("zero bandwidth: samples have no spread")
    grid = np.linspace(logx.min() - 3.0 * h, logx.max() + 3.0 * h, 512)
    z = (grid[:, None] - logx[None, :]) / h
    density = np.exp(-0.5 * z * z).sum(axis=1) / (x.size * h * math.sqrt(2.0 * math.pi))
    return grid, density


def ks_normal_distance(sorted_sample: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of a sorted sample to the standard normal."""
    x = np.asarray(sorted_sample, dtype=float)
    m = x.size
    if m < 1:
        raise ValueError("need at least 1 sample")
    f = ndtr(x)
    ranks = np.arange(1, m + 1)
    return float(max(np.max(ranks / m - f), np.max(f - (ranks - 1) / m)))


# --- emission ----------------------------------------------------------------

def _format_column(col) -> list[str]:
    """The cells of one column: integers via str, anything else as float64 via repr."""
    col = np.asarray(col)
    if col.dtype.kind in "iu":
        return list(map(str, col.tolist()))
    a = np.ascontiguousarray(col, dtype=np.float64)
    # one repr per distinct bit pattern, not per distinct value: -0.0 == 0.0
    bits, inverse = np.unique(a.view(np.int64), return_inverse=True)
    text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    return text[inverse].tolist()


def write_csv(path: Path, columns: dict[str, np.ndarray]) -> None:
    """UTF-8 CSV with a header row; floats via repr for lossless round-trips.

    Each column is formatted once, as a whole, and each distinct float in it
    is formatted once.
    """
    cells = [_format_column(col) for col in columns.values()]
    lines = [",".join(columns), *map(",".join, zip(*cells))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_report(report: ExperimentReport, out_dir) -> list[Path]:
    """Write each table as CSV plus a JSON metadata file; returns the paths.

    The metadata file holds the report's metadata plus its ``kind``, the
    package ``version`` and the ``files`` written.  NaN and infinities are
    not JSON, so a non-finite value is written as null.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name in sorted(report.tables):
        p = out / f"{name}.csv"
        write_csv(p, report.tables[name])
        paths.append(p)
    meta = {**report.metadata, "kind": report.kind, "version": __version__,
            "files": [p.name for p in paths]}
    # a round trip through JSON text turns each NaN or infinity into None
    meta = json.loads(json.dumps(meta), parse_constant=lambda _: None)
    mp = out / f"{report.kind}_meta.json"
    mp.write_text(json.dumps(meta, sort_keys=True, indent=2, allow_nan=False) + "\n",
                  encoding="utf-8")
    paths.append(mp)
    return paths
