"""Test-only depth references, each one scipy HiGHS solve.

``depth_bruteforce_oracle`` solves one exact LP over the trimmed region's
definition.

D_alpha is the set of barycenters (1/alpha) sum_i delta_i x_i of loadings
0 <= delta_i <= w_i of mass alpha, so the depth of x is

    max alpha  s.t.  sum_i delta_i x_i - alpha x = 0,
                     sum_i delta_i - alpha = 0,
                     0 <= delta_i <= w_i,  0 <= alpha <= 1,

linear in (delta, alpha) together and always feasible at zero. It is
handed to scipy's HiGHS, independent of the in-package simplex path, and
has no span check, so it also answers on flat clouds.

``highs_depth_lp`` solves the depth LP in the form the in-package simplex
takes, max sum(delta) subject to A delta = 0 and 0 <= delta <= w, with
column i of A equal to x_i - x and each row scaled to unit size.
"""

import numpy as np
import scipy.optimize

from liftzonoid import EmpiricalMeasure, NotConverged
from liftzonoid.measures import as_vector


def depth_bruteforce_oracle(mu: EmpiricalMeasure, point) -> float:
    """Depth of ``point`` in ``mu`` by one HiGHS solve, clipped to [0, 1]."""
    x = as_vector(point, dim=mu.dim, name="point")
    n = mu.size
    a_eq = np.block([[mu.points.T, -x[:, None]], [np.ones((1, n)), -np.ones((1, 1))]])
    c = np.zeros(n + 1)
    c[-1] = -1.0
    bounds = np.column_stack([np.zeros(n + 1), np.append(mu.weights, 1.0)])
    lp = scipy.optimize.linprog(
        c=c,
        A_eq=a_eq,
        b_eq=np.zeros(mu.dim + 1),
        bounds=bounds,
        method="highs",
        options={"primal_feasibility_tolerance": 1e-9},
    )
    if lp.status != 0:
        raise NotConverged(f"oracle LP ended with HiGHS status {lp.status}: {lp.message}")
    return min(1.0, max(0.0, float(lp.x[-1])))


def highs_depth_lp(a, w) -> float:
    """Optimum of max sum(delta) s.t. a delta = 0, 0 <= delta <= w, by HiGHS."""
    a = np.asarray(a, dtype=float)
    a = a / np.maximum(np.abs(a).max(axis=1, keepdims=True), 1e-300)
    n = len(w)
    lp = scipy.optimize.linprog(
        -np.ones(n),
        A_eq=a,
        b_eq=np.zeros(a.shape[0]),
        bounds=np.column_stack([np.zeros(n), w]),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-9, "dual_feasibility_tolerance": 1e-9},
    )
    if lp.status != 0:
        raise NotConverged(f"depth LP ended with HiGHS status {lp.status}: {lp.message}")
    return -float(lp.fun)
