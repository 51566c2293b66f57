"""Phases exp(i r x) over a 1-d grid x from two small tables.

The plane-wave basis in x, the discretized-continuum oracle in t and the
contour inversion over its times all need exp(i r x_j) for many rates r at
every point x_j of a grid that comes from outside: a grid is measured here,
not assumed uniform.  On a uniform grid each phase is the product of one
entry of a coarse table and one of a fine table, so a rate costs about
2 sqrt(n) complex exponentials instead of n; any other grid takes the same
tables at stride 1, n exponentials a rate.

The two time sums built on it stay separate.  The oracle's roots are not
uniform, so it tables them as rates over uniform times.  The contour's nodes
are uniform by construction, so ``amplitude._phase_sum`` tables them from
their own step at J = ceil(sqrt(n)) and measures only its blocks of times;
best of 5 on a 2-CPU Xeon, on 131,072 nodes the oracle's layout took
83-348 ms against 2.0-20 ms (M = 41-601 times).
"""

from __future__ import annotations

import math

import numpy as np

# A grid is uniform when every x[j] lies within this many float64 epsilons of
# max|x| of x[0] + j*dx.
_UNIFORM_EPS = 8.0


class PhaseGrid:
    """A 1-d grid x, split as x[J*a + b] = x[J*a] + b*dx where it is uniform.

    x is uniform when every x[j] lies within 8 float64 epsilons of max|x| of
    x[0] + j*dx, dx = (x[-1] - x[0])/(n - 1); grids of one or two points
    are uniform.  There the stride is J = ceil(sqrt(n)), and with
    j = J*a + b, exp(i r x[j]) = coarse[a] * fine[b] with the coarse table
    exp(i r x[J*a]) and the fine table exp(i r b dx).  On any other grid
    J = 1: the coarse table holds every x[j] and the fine table is 1.
    """

    def __init__(self, x: np.ndarray):
        n = x.size
        self.x = x
        self.step = (x[-1] - x[0]) / (n - 1) if n > 1 else 0.0
        departure = np.max(np.abs(x[:1] + self.step * np.arange(n) - x), initial=0.0)
        uniform = departure <= _UNIFORM_EPS * np.finfo(float).eps * np.max(np.abs(x), initial=0.0)
        self.stride = max(1, math.ceil(math.sqrt(n))) if uniform else 1

    def tables(self, rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The coarse and fine tables, of shapes (ceil(n/J), *rates.shape) and (J, *rates.shape)."""
        coarse = np.exp(1j * np.multiply.outer(self.x[::self.stride], rates))
        fine = np.exp(1j * np.multiply.outer(self.step * np.arange(self.stride), rates))
        return coarse, fine

    def product(self, coarse: np.ndarray, fine: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Every phase, coarse[a] * fine[b] into out[J*a + b]; out is (n, *rates.shape)."""
        n, stride = self.x.size, self.stride
        full = n // stride * stride
        # splitting out's first axis in two never copies, so this writes into out
        head = out[:full].reshape(full // stride, stride, *out.shape[1:])
        np.multiply(coarse[:full // stride, None], fine, out=head)
        np.multiply(coarse[full // stride:], fine[:n - full], out=out[full:])
        return out
