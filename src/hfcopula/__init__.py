"""Copula estimation for time-changed Brownian motion.

Estimates the conditional copula of a continuous martingale observed on a
regular grid, using realized variation as a plug-in clock, with CLT-based
confidence intervals and Monte Carlo experiment drivers.
"""

__version__ = "0.1.0"

from .estimators import (
    CopulaEstimate,
    CopulaQuery,
    SampledPath,
    boundary_aware_interval,
    confidence_interval,
    copula_estimate,
    interval_bounds,
    quarticity,
    realized_variation,
    variance_estimate,
    variance_quadratic_form,
)
from .experiments import (
    ContourSpec,
    ExperimentReport,
    QqSpec,
    RhoSpec,
    kde_log,
    ks_normal_distance,
    run_contour,
    run_qq,
    run_rho,
    write_csv,
    write_report,
)
from .kernel import (
    NearDiagonalError,
    grad_psi,
    grad_psi_grid,
    psi,
    psi_grid,
)
from .simulate import (
    DEFAULT_CIR,
    CirParams,
    ConstantVol,
    SimConfig,
    SimulatedScenario,
    derive_streams,
    simulate_cir,
    simulate_scenario,
)

__all__ = [
    "__version__",
    "CopulaEstimate",
    "CopulaQuery",
    "SampledPath",
    "boundary_aware_interval",
    "confidence_interval",
    "copula_estimate",
    "interval_bounds",
    "quarticity",
    "realized_variation",
    "variance_estimate",
    "variance_quadratic_form",
    "ContourSpec",
    "ExperimentReport",
    "QqSpec",
    "RhoSpec",
    "kde_log",
    "ks_normal_distance",
    "run_contour",
    "run_qq",
    "run_rho",
    "write_csv",
    "write_report",
    "NearDiagonalError",
    "grad_psi",
    "grad_psi_grid",
    "psi",
    "psi_grid",
    "DEFAULT_CIR",
    "CirParams",
    "ConstantVol",
    "SimConfig",
    "SimulatedScenario",
    "derive_streams",
    "simulate_cir",
    "simulate_scenario",
]
