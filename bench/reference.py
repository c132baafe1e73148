"""A fixed reference loop that stands for the speed of the machine at the moment.

On a shared 2-core box the wall time of one and the same call drifts by
+-25% over minutes as other tenants load the host; longer runs do not
remove a drift that lasts minutes.  The benchmark times this loop beside
every call and reports each call's time in units of the loop's time,
scaled by ``NOMINAL_S``: the slowdown the host imposes on both cancels.
The loop mixes interpreter-bound scalar work, as in the CIR simulator and
the scalar quadrature, with vectorised special functions, as in the grid
kernel.  It never touches hfcopula, so a change to the program moves the
calibrated times in full.
"""

import math
import time

import numpy as np
from scipy.special import ndtr, ndtri

# typical time of one reference_s() call on a quiet 2-core Xeon box at 2.1 GHz;
# a fixed scale, so calibrated times read as seconds on that box
NOMINAL_S = 0.05


def reference_s() -> float:
    """Wall time of one pass of the reference loop."""
    start = time.perf_counter()
    x = 0.5
    for _ in range(300_000):
        x = math.sqrt(x * 0.999 + 1e-3)
    grid = np.linspace(1e-6, 1.0 - 1e-6, 50_000)
    for _ in range(24):
        ndtr(ndtri(grid) * 0.7 + 0.1)
    return time.perf_counter() - start
