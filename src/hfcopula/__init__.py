"""Copula estimation for time-changed Brownian motion.

Estimates the conditional copula of a continuous martingale observed on a
regular grid, using realized variation as a plug-in clock, with CLT-based
confidence intervals and Monte Carlo experiment drivers.  The top-level
names are the union of the library modules' ``__all__`` lists.
"""

__version__ = "0.1.0"

from . import estimators, experiments, kernel, simulate
from .estimators import *  # noqa: F401,F403
from .experiments import *  # noqa: F401,F403
from .kernel import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403

__all__ = ["__version__", *estimators.__all__, *experiments.__all__, *kernel.__all__,
           *simulate.__all__]
