"""Sort-and-cumsum reference for the upper-alpha tail of a weighted cloud.

Kept apart from the package's own tail kernel so that the benchmark's
output checks do not share code with what they check. One direction is
sorted once; tied projection values are grouped, and every alpha is then
answered from cumulative sums over the groups.
"""

from __future__ import annotations

import numpy as np

# the upper quantile is the first value whose closed upper mass reaches
# alpha, up to this slack on the cumulative sums (the package's convention)
MASS_SLACK = 1e-12


class TailTable:
    """Upper-tail sums of ``<X, u>`` for one cloud and one direction."""

    def __init__(self, points: np.ndarray, weights: np.ndarray, u: np.ndarray):
        v = points @ u
        order = np.argsort(-v, kind="stable")
        vs, ws, xs = v[order], weights[order], points[order]
        starts = np.flatnonzero(np.r_[True, vs[1:] != vs[:-1]])
        self.values = vs[starts]  # distinct projections, descending
        self.mass = np.add.reduceat(ws, starts)
        self.cum_mass = np.cumsum(self.mass)
        self.cum_vw = np.cumsum(self.values * self.mass)
        self.group_xw = np.add.reduceat(ws[:, None] * xs, starts, axis=0)
        self.cum_xw = np.cumsum(self.group_xw, axis=0)
        self.scale = 1.0 + float(np.abs(v).max())

    def _split(self, alpha: float):
        g = min(int(np.searchsorted(self.cum_mass, alpha - MASS_SLACK)), self.values.size - 1)
        above = float(self.cum_mass[g - 1]) if g > 0 else 0.0
        residual = min(max(alpha - above, 0.0), float(self.mass[g]))
        return g, residual

    def quantile(self, alpha: float) -> float:
        return float(self.values[self._split(alpha)[0]])

    def support(self, alpha: float) -> float:
        g, residual = self._split(alpha)
        above = float(self.cum_vw[g - 1]) if g > 0 else 0.0
        return (above + residual * float(self.values[g])) / alpha

    def boundary(self, alpha: float) -> np.ndarray:
        g, residual = self._split(alpha)
        above = self.cum_xw[g - 1] if g > 0 else np.zeros(self.cum_xw.shape[1])
        return (above + (residual / float(self.mass[g])) * self.group_xw[g]) / alpha

    def alpha_for_support(self, h: float) -> float:
        """Exact inverse of the decreasing map alpha -> support(alpha).

        On the segment where group g is the marginal one,
        ``h * alpha = S + (alpha - W) * v_g`` with S, W the sums above g,
        which is solved in closed form.
        """
        ends = self.cum_vw / self.cum_mass  # support at each group's end
        g = min(int(np.searchsorted(-ends, -h, side="left")), self.values.size - 1)
        if g == 0:
            return float(self.cum_mass[0])
        s_above, w_above = float(self.cum_vw[g - 1]), float(self.cum_mass[g - 1])
        v = float(self.values[g])
        return (s_above - w_above * v) / (h - v)
