"""Simulation of time-changed Brownian motion with CIR variance.

The variance process is sampled from its exact transition law (a scaled
noncentral chi-squared), so the only discretization error in the price
path is the left-endpoint rule of the stochastic integral on a sub-grid
``substeps`` times finer than the observation grid.  The integrated
variance (the time change) and integrated fourth power (quarticity) are
recorded at observation times for oracle comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import SampledPath, _check_pos_int, _check_real, _grid_index, _is_int

__all__ = [
    "CirParams",
    "ConstantVol",
    "SimConfig",
    "SimulatedScenario",
    "DEFAULT_CIR",
    "derive_streams",
    "simulate_cir",
    "simulate_scenario",
]


@dataclass(frozen=True)
class CirParams:
    """Square-root variance process parameters; construction enforces Feller."""

    kappa: float
    theta: float
    nu: float
    s0: float

    def __post_init__(self) -> None:
        for name in ("kappa", "theta", "nu", "s0"):
            _check_real(name, getattr(self, name), lo=0.0)
        if not 2.0 * self.kappa * self.theta > self.nu ** 2:
            raise ValueError(
                f"Feller condition 2*kappa*theta > nu**2 violated: "
                f"2*{self.kappa!r}*{self.theta!r} = {2.0 * self.kappa * self.theta!r} "
                f"<= {self.nu ** 2!r} = nu**2"
            )


@dataclass(frozen=True)
class ConstantVol:
    """Degenerate variance model: sigma^2 held constant (no randomness)."""

    sigma2: float = 1.0

    def __post_init__(self) -> None:
        _check_real("sigma2", self.sigma2, lo=0.0)


DEFAULT_CIR = CirParams(kappa=0.5, theta=1.5, nu=1.0, s0=1.5)


@dataclass(frozen=True)
class SimConfig:
    """Sampling layout: n observations per unit time over [0, horizon]."""

    n: int
    horizon: float = 1.0
    substeps: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _check_pos_int("n", self.n))
        _check_real("horizon", self.horizon, lo=0.0)
        intervals = self.n * self.horizon
        if abs(intervals - round(intervals)) > 1e-9 or round(intervals) < 1:
            raise ValueError(
                f"n*horizon must be a positive integer number of intervals, "
                f"got {intervals!r}"
            )
        object.__setattr__(self, "substeps", _check_pos_int("substeps", self.substeps))
        if not (_is_int(self.seed) and 0 <= self.seed < 2 ** 64):
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def intervals(self) -> int:
        return round(self.n * self.horizon)


@dataclass(frozen=True, eq=False)
class SimulatedScenario:
    """A simulated path plus the true time change and quarticity at grid times."""

    path: SampledPath
    true_T: np.ndarray
    true_Q: np.ndarray

    def __post_init__(self) -> None:
        npts = self.path.values.size
        if self.true_T.size != npts or self.true_Q.size != npts:
            raise ValueError("true_T/true_Q length must match the path")
        for name, arr in (("true_T", self.true_T), ("true_Q", self.true_Q)):
            if arr[0] != 0.0 or np.any(np.diff(arr) < 0.0):
                raise ValueError(f"{name} must be nondecreasing and start at 0")


def derive_streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Two independent generators (variance driver, Brownian driver) from one seed."""
    vol_ss, drv_ss = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(vol_ss), np.random.default_rng(drv_ss)


def simulate_cir(
    params: CirParams | ConstantVol,
    config: SimConfig,
    rng: np.random.Generator | None = None,
    steps: int | None = None,
) -> np.ndarray:
    """Variance path on the sub-grid, length steps + 1.

    ``steps`` is the number of sub-steps to take, n*horizon*substeps (the
    whole layout) by default.  Fewer steps return the first steps + 1
    values of the whole path, bit for bit: all n*horizon*substeps normals
    are still drawn, and the chi-squares that follow them in the stream
    fill in the same order, so a shorter draw is a prefix of the full one.

    CIR transitions are sampled exactly: given x, the next value is
    c * ((Z + sqrt(x*exp(-kappa*dt)/c))^2 + chi2(df - 1)) with
    df = 4*kappa*theta/nu^2 > 2 under Feller, every Z drawn before any chi2.
    The division-free form below, stable as nu -> 0, steps on Python floats
    read from the scaled draws through memoryview and streams each value
    into np.fromiter: the same doubles as stepping on numpy scalars, bit
    for bit, without their per-operation cost or an intermediate list.
    """
    total = config.intervals * config.substeps
    if steps is None:
        steps = total
    elif not (_is_int(steps) and 0 <= steps <= total):
        raise ValueError(f"steps must be an integer in [0, {total}], got {steps!r}")
    if isinstance(params, ConstantVol):
        return np.full(steps + 1, params.sigma2)
    if rng is None:
        rng = derive_streams(config.seed)[0]

    dt = 1.0 / (config.n * config.substeps)
    decay = math.exp(-params.kappa * dt)
    c = params.nu ** 2 * (1.0 - decay) / (4.0 * params.kappa)
    df = 4.0 * params.kappa * params.theta / params.nu ** 2

    # the draws are scaled in place: same products, no scaled copies
    z = rng.standard_normal(total)[:steps]
    z *= math.sqrt(c)
    y = rng.chisquare(df - 1.0, steps)
    y *= c

    def path():
        sqrt, x = math.sqrt, params.s0
        yield x
        for a, b in zip(memoryview(z), memoryview(y)):
            root = a + sqrt(x * decay)
            x = root * root + b
            yield x

    return np.fromiter(path(), np.float64, steps + 1)


def simulate_scenario(
    params: CirParams | ConstantVol, config: SimConfig, through: float | None = None
) -> SimulatedScenario:
    """Simulate X_t = integral of sigma dB at observation times i/n.

    The Brownian driver draws come from a stream independent of the
    variance driver, matching the model's independence assumption.  The
    time change T and quarticity Q are left-Riemann sums of sigma^2 and
    sigma^4 on the sub-grid; with constant sigma^2 = 1 they are exact.

    ``through`` in (0, horizon] stops the simulation at grid index
    k = floor(n*through): the path (with horizon ``through``), T and Q
    have k + 1 points and equal the first k + 1 points of the full
    scenario, bit for bit.  None simulates the whole horizon.  A variance
    whose fourth power overflows raises ValueError.
    """
    horizon = config.horizon if through is None else _check_real("through", through, lo=0.0)
    if horizon > config.horizon:
        raise ValueError(f"through must not exceed horizon {config.horizon!r}, got {through!r}")
    intervals = _grid_index(config.n, horizon)
    m = config.substeps
    total = intervals * m
    denom = config.n * m  # each sub-step has width 1/denom exactly

    # at most two sub-grid buffers: the variance path (CIR only) and one work
    # buffer, which holds sigma^4 (CIR only), then the driver draws xi, then
    # the increments dx = sqrt(sigma2) * xi / sqrt(denom), each the same bits
    # as a fresh array computed by that formula.  Dividing the cumulative
    # sums by the exact integer denom (rather than multiplying by a rounded
    # 1/denom) keeps T_{i/n} = i/n exact for sigma2 constant at 1
    vol_rng, drv_rng = derive_streams(config.seed)
    constant = isinstance(params, ConstantVol)
    with np.errstate(over="ignore"):  # an overflowing sigma^4 is reported below
        if constant:
            # every block of m sub-steps holds sigma2 alone, so its sum is the
            # one pairwise sum that reshape(intervals, m).sum(axis=1) takes of
            # each row; like simulate_cir(ConstantVol), this reads no variance draw
            block = np.full(m, params.sigma2)
            true_t = _clock(np.full(intervals, block.sum()), denom)
            true_q = _clock(np.full(intervals, (block * block).sum()), denom)
            work = np.empty(total)
        else:
            s2 = simulate_cir(params, config, rng=vol_rng, steps=total)[:-1]
            true_t = _clock(s2.reshape(intervals, m).sum(axis=1), denom)
            work = np.multiply(s2, s2)
            true_q = _clock(work.reshape(intervals, m).sum(axis=1), denom)
    if not math.isfinite(true_q[-1]):
        raise ValueError(
            f"the variance's fourth power sigma^4 overflows: its integral "
            f"true_Q is {float(true_q[-1])!r}, so the variance is too large"
        )
    drv_rng.standard_normal(out=work)
    # IEEE sqrt is correctly rounded: the scalar root has the bits of np.sqrt
    work *= math.sqrt(params.sigma2) if constant else np.sqrt(s2, out=s2)
    work /= math.sqrt(denom)

    x = np.empty(intervals + 1)
    x[0] = 0.0
    np.cumsum(work.reshape(intervals, m).sum(axis=1), out=x[1:])

    path = SampledPath(values=x, n=config.n, horizon=horizon)
    return SimulatedScenario(path=path, true_T=true_t, true_Q=true_q)


def _clock(block_sums: np.ndarray, denom: int) -> np.ndarray:
    """0, then the cumulative sums of ``block_sums`` divided by ``denom``."""
    out = np.empty(block_sums.size + 1)
    out[0] = 0.0
    out[1:] = np.cumsum(block_sums) / denom
    return out
