"""Exact finite-dimensional oracle: one level coupled to N energy bins.

Discretizing the continuum into N uniform bins turns the model into an
(N+1) x (N+1) Hermitian arrowhead matrix whose resolvent and time
evolution are available exactly.  This validates the projector partition
identities and provides a brute-force reference for the survival
amplitude and the continuum occupation, trustworthy up to the recurrence
time set by the level spacing.  The evolution comes from the roots of the secular
equation (Bunch, Nielsen & Sorensen 1978; Gu & Eisenstat 1995) and the
closed-form eigenvectors they give: no (N+1) x (N+1) array is built for it.
The Cauchy sums over every (root, bin) pair, in each root sweep and in the
occupations, come from a one-level Chebyshev far field (a black-box fast
multipole method) over L = 2^levels uniform leaves of the bins: each root or
bin sums the terms of its leaf and the two beside it, about 375, exactly,
and the rest from its leaf's far field, which sums every other leaf
directly at Chebyshev nodes.  That far field is built once a solve in
O(L^2) work, so a sweep costs O(N) work and the occupations O(N nt) plus
O(L^2 nt); the two outer roots, beyond the bins, are summed exactly.
Below 1,000 bins there would be fewer than 8 leaves; every pair is then
near, and the sums are the dense O(N^2) ones.
On a uniform time grid the phases come from two tables of O(N sqrt(nt))
entries, so without the occupations no (N+1) x nt array is built either.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial.chebyshev import chebvander

from ._blocks import row_blocks
from ._phases import PhaseGrid
from .errors import DomainError, NumericalError
from .amplitude import SurvivalSeries, _check_times
from .spectral import SpectralModel

__all__ = ["DiscreteModel", "PartitionedResolvent", "build_discrete",
           "resolvent_direct", "resolvent_partitioned", "survival_exact_discrete"]


@dataclass(frozen=True)
class DiscreteModel:
    """Level energy, bin energies, couplings, and bin widths."""

    omega0: float
    energies: np.ndarray
    couplings: np.ndarray
    widths: np.ndarray

    def __post_init__(self):
        energies = np.asarray(self.energies, dtype=float)
        couplings = np.asarray(self.couplings, dtype=complex)
        widths = np.asarray(self.widths, dtype=float)
        if not (energies.ndim == 1 and energies.shape == couplings.shape == widths.shape):
            raise DomainError("energies, couplings, widths must be matching 1-d arrays")
        if energies.size < 2:
            raise DomainError("need at least two bins")
        if not all(np.all(np.isfinite(a)) for a in (self.omega0, energies, couplings, widths)):
            raise DomainError("level energy, bin energies, couplings and widths must be finite")
        if np.any(np.diff(energies) <= 0):
            raise DomainError("bin energies must be strictly increasing")
        object.__setattr__(self, "energies", energies)
        object.__setattr__(self, "couplings", couplings)
        object.__setattr__(self, "widths", widths)

    @property
    def size(self) -> int:
        return self.energies.size

    def hamiltonian(self) -> np.ndarray:
        """Hermitian arrowhead matrix: level in slot 0, bins on the diagonal."""
        n = self.size
        h = np.zeros((n + 1, n + 1), dtype=complex)
        h[0, 0] = self.omega0
        h[1:, 0] = self.couplings
        h[0, 1:] = np.conj(self.couplings)
        h[np.arange(1, n + 1), np.arange(1, n + 1)] = self.energies
        return h

    def sigma_discrete(self, omega):
        """Riemann-sum self-energy sum |V_i|^2 / (omega - eps_i), elementwise in omega."""
        w = np.asarray(omega, dtype=complex)
        sums, = _cauchy_sums(w.ravel(), self.energies, np.abs(self.couplings) ** 2)
        return sums.reshape(w.shape)[()]

    def recurrence_time(self) -> float:
        """2*pi over the largest level spacing; decay mimicry ends here."""
        return 2.0 * np.pi / float(np.max(np.diff(self.energies)))


@dataclass(frozen=True)
class PartitionedResolvent:
    """Projected resolvent blocks; Kronecker-delta bin convention."""

    g_p: complex
    g_qp: np.ndarray
    g_q: np.ndarray


def build_discrete(model: SpectralModel, omega0: float, n: int,
                   window: tuple[float, float] | None = None) -> DiscreteModel:
    """Discretize a spectral model into n uniform bins, |V_i|^2 = D(eps_i) * width.

    The bins split the support, cut to ``window`` if one is given, and each
    sits at its midpoint eps_i.
    """
    if n < 2:
        raise DomainError("need at least two bins")
    lo, hi = model.support()
    if window is not None:
        lo = max(lo, float(window[0]))
        hi = min(hi, float(window[1]))
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise DomainError(f"the bins need a finite interval, not [{lo}, {hi}]: an infinite "
                          "support needs a truncation window, and a window must overlap it")
    edges = np.linspace(lo, hi, n + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    couplings = np.sqrt(model.density(centers) * widths)
    return DiscreteModel(omega0=float(omega0), energies=centers,
                         couplings=couplings, widths=widths)


def resolvent_direct(m: DiscreteModel, omega: complex) -> np.ndarray:
    """Full resolvent by direct linear solve of (omega - H) G = 1."""
    omega = complex(omega)
    n = m.size + 1
    a = omega * np.eye(n, dtype=complex) - m.hamiltonian()
    try:
        return np.linalg.solve(a, np.eye(n, dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"resolvent solve failed at omega={omega}: {exc}") from exc


def resolvent_partitioned(m: DiscreteModel, omega: complex) -> PartitionedResolvent:
    """Closed partition formulas for all three projected resolvent blocks."""
    omega = complex(omega)
    g_p = 1.0 / (omega - m.omega0 - m.sigma_discrete(omega))
    free = 1.0 / (omega - m.energies)
    g_qp = free * m.couplings * g_p
    g_q = np.diag(free)
    g_q += np.outer(free * m.couplings, free * np.conj(m.couplings)) * g_p
    return PartitionedResolvent(g_p=g_p, g_qp=g_qp, g_q=g_q)


# A root is done when its last step is at most this fraction of its offset,
# or when g is at its rounding level.
_STEP_TOL = 1e-15
_EPS = np.finfo(float).eps
# Root sweeps before a NumericalError.  Binned densities take 4; random models
# with couplings over ten decades and a tenth of the poles 1e-11 apart take
# 12 to 15 on 200 bins (TestSecularAgainstEigh.test_couplings_over_ten_decades
# in tests/test_discrete_oracle.py) and up to 17 on up to 1,600.
_MAX_SWEEPS = 50
# Inner iterations of the local model's safeguarded Newton solve.
_MODEL_ITERATIONS = 100


# Chebyshev nodes per leaf.  On 3000 and 10^4 bins of
# Box(0.05, 100) and ThresholdPower(0.01, 0.5, 0, 20), 16 nodes left s2 off
# the dense sum by up to 6.5e-14 of itself and s1 by 1.1e-14 of |z| sqrt(s2);
# 20 took both to rounding, at most 2.6e-15 and 2.5e-16, and 24 or 32 were
# no closer (s1 up to 4e-15) and up to 25 % slower.
_TREE_NODES = 20
# Points per leaf: the fewest that keep 500 and 800 bins, where a tree could
# have but two levels, on the dense sums and their results as they were; a
# two-level tree of 200 points a leaf ran one secular sweep over 800
# Box(0.05, 100) bins in 1.7 ms against 2.1-2.2 ms dense.  From three
# levels a sweep on the built tree takes 1.7-2.3 against 3.6-4.2 ms at 1000
# bins, 6.3-6.9 against 21-23 ms at 3000 and 19 against 198-214 ms at 10^4,
# and the far field's build, once a solve, 0.3, 0.8-1.3 and 3.2-3.4 ms
# (best of 15 on a shared 2-CPU machine).
_TREE_LEAF = 125


class _TreeOperators(NamedTuple):
    coefficients: np.ndarray    # (p, p): c_k T_k(t_j), c_0 = 1/p and c_k = 2/p after
    spread: np.ndarray          # (p, p): (t_i - t_j)/2, node i's place less node j's, in leaves


class _Leaves(NamedTuple):
    """Ascending points sorted into the leaves of the tree."""

    starts: np.ndarray          # where each leaf's points start, then the point count
    coord: np.ndarray           # each point's place in its leaf, from -1 to 1


def _interpolation(s):
    """Each node's Lagrange polynomial at the leaf coordinates s, on a new last axis:
    numpy's chebvander, T_0 .. T_{p-1} at s, times the nodes' Chebyshev coefficients."""
    return chebvander(s, _TREE_NODES - 1) @ _tree_operators().coefficients


@functools.cache
def _tree_operators() -> _TreeOperators:
    """The tree's constant matrices, built at first use from the node count alone."""
    p = _TREE_NODES
    nodes = np.cos(np.pi * (np.arange(p) + 0.5) / p)
    coefficients = chebvander(nodes, p - 1).T * (2.0 / p)
    coefficients[0] /= 2.0
    return _TreeOperators(coefficients, np.subtract.outer(nodes, nodes) / 2.0)


def _tree_depth(n: int) -> int:
    """log2 of the leaf count L over n points, _TREE_LEAF to 2 _TREE_LEAF a leaf.

    A leaf's far field is every leaf but itself and its two neighbours, so
    from 8 leaves the near field is at most 3/8 of the dense sum; with
    fewer the sums are dense, and the depth is 0.  The far field's build
    takes (L - 1)(L - 2) products of a _TREE_NODES^2 kernel, per column
    and power: O(L^2) = O(n^2 / _TREE_LEAF^2) work, against the exact near
    field's O(n^2 / L) in every pass over the targets.
    """
    depth = (n // _TREE_LEAF).bit_length() - 1
    return depth if depth >= 3 else 0


def _leaves(points, lo, width, depth) -> _Leaves:
    """Ascending points in the 2^depth leaves of [lo, lo + width]."""
    n = 1 << depth
    scaled = (points - lo) * (n / width)
    index = np.minimum(scaled.astype(int), n - 1)
    return _Leaves(np.searchsorted(index, np.arange(n + 1)), 2.0 * (scaled - index) - 1.0)


def _slots(starts):
    """Each leaf's points padded to the fullest leaf's: indices and a mask, (leaves, width)."""
    counts = np.diff(starts)
    slot = np.arange(int(np.max(counts)))
    return np.minimum(starts[:-1, None] + slot, starts[-1] - 1), slot < counts[:, None]


class _Tree(NamedTuple):
    """The far field of fixed sources on the uniform leaves of [lo, lo + width]."""

    lo: float
    width: float
    depth: int
    inside: slice               # the sources within [lo, lo + width]
    sources: _Leaves            # theirs, in the leaves
    local: np.ndarray           # (leaves, powers, nodes, columns): each leaf's far field


def _tree(span, y, weights, squares=False, y_shift=None) -> _Tree | None:
    """The far field of sources Y = y + y_shift, ascending, on the
    2^depth uniform leaves of [span[0], span[-1]], with the depth from
    ``_tree_depth(span.size)``, or None below 8 leaves, where every pair is
    near.

    The sources within the span are anterpolated onto their leaves' nodes,
    the leaves in blocks of the budget.  Each leaf's far field at its nodes
    then sums the nodes of every leaf two or more away directly, one
    offset d at a time on all leaves at once: 2 (L - 2) kernels and
    O(L^2) work at L leaves.  The far field depends on the sources alone,
    so one tree serves every set of targets.  Sources outside the span are
    left to ``_cauchy_sums``'s exact pass.
    """
    depth = _tree_depth(span.size)
    if not depth:
        return None
    ops = _tree_operators()
    lo, width = float(span[0]), float(span[-1] - span[0])
    Y = y if y_shift is None else y + y_shift
    inside = slice(int(np.searchsorted(Y, lo)), int(np.searchsorted(Y, lo + width, "right")))
    sources = _leaves(Y[inside], lo, width, depth)
    w = weights[inside].reshape(inside.stop - inside.start, -1)
    leaves = 1 << depth
    powers = np.arange(1, 2 + squares)
    slots, valid = _slots(sources.starts)
    multipole = np.empty((leaves, _TREE_NODES, w.shape[1]))
    # A block of leaves takes half the budget, in its gathered weights and
    # interpolation: at the whole budget the oracle benchmark's cases
    # peaked 0.3 MB higher in RSS.
    for group in row_blocks(leaves, 2 * slots.shape[1] * (w.shape[1] + _TREE_NODES)):
        interp = _interpolation(sources.coord[slots[group]]) * valid[group, :, None]
        multipole[group] = np.swapaxes(interp, 1, 2) @ w[slots[group]]
    local = np.zeros((leaves, powers.size) + multipole.shape[1:])
    h = width / leaves
    # the kernel from leaf b - d to leaf b is ((spread + d) h)^-power, and from
    # b + d the same with -d: a sign times a power of (d - spread) h, as a
    # negative base takes pow about 25 times as long
    sign = (-1.0) ** powers[:, None, None]
    for d in range(2, leaves):
        local[:-d] += sign * ((d - ops.spread) * h) ** -powers[:, None, None] @ multipole[d:, None]
        local[d:] += ((d + ops.spread) * h) ** -powers[:, None, None] @ multipole[:-d, None]
    return _Tree(lo, width, depth, inside, sources, local)


def _cauchy_sums(x, y, weights, squares=False, x_shift=None, y_shift=None, tree=None):
    """Sums over sources i of weights[i]/(X_k - Y_i) and, with squares, of
    weights[i]/(X_k - Y_i)^2, for targets X = x + x_shift and sources
    Y = y + y_shift, both ascending; weights is (sources,) or (sources, cols).
    The dense sums also take complex targets, in any order.

    X_k - Y_i is formed as (x_k - y_i) + x_shift_k - y_shift_i, so an offset
    keeps its relative accuracy however closely a target hugs a source.
    Every source enters every target's sums; a caller that wants a term
    out subtracts it from them.

    Without a tree every pair is summed exactly, in row blocks: the dense
    sums.  With ``tree``, the sources' far field from ``_tree`` (Fong &
    Darve, J. Comput. Phys. 228, 8712 (2009)), a target within its span
    sums its leaf and the two beside it exactly, and the sources outside
    the span, and takes the rest from its leaf's far field, interpolated
    at _TREE_NODES nodes; a target outside the span sums every source
    exactly.  Returns the sums, then, with squares, the sums of the squares.
    """
    sums = [np.empty(x.shape + weights.shape[1:], np.result_type(x, weights))
            for _ in range(1 + squares)]
    everything = slice(0, y.size)
    if tree is None:
        groups = [(0, x.size, [everything])]
    else:
        X = x if x_shift is None else x + x_shift
        lo, hi = tree.lo, tree.lo + tree.width
        inside = slice(int(np.searchsorted(X, lo)), int(np.searchsorted(X, hi, "right")))
        targets = _leaves(X[inside], lo, tree.width, tree.depth)
        starts_x = targets.starts + inside.start
        starts_y = tree.sources.starts + tree.inside.start
        box = np.arange(1 << tree.depth)
        near_lo = starts_y[np.maximum(box - 1, 0)]
        near_hi = starts_y[np.minimum(box + 2, box.size)]
        beyond = [cols for cols in (slice(0, tree.inside.start), slice(tree.inside.stop, y.size))
                  if cols.stop > cols.start]
        groups = [(starts_x[b], starts_x[b + 1], [slice(near_lo[b], near_hi[b])] + beyond)
                  for b in box]
        groups += [(0, inside.start, [everything]), (inside.stop, x.size, [everything])]
        groups = [group for group in groups if group[1] > group[0]]

    def pairs(rows, cols):
        inv = np.subtract.outer(x[rows], y[cols])
        if x_shift is not None:
            inv += x_shift[rows, None]
        if y_shift is not None:
            inv -= y_shift[cols]
        return np.reciprocal(inv, out=inv)

    # The exact pass: the first columns of a group write its rows' sums,
    # the sources beyond the span add to them.
    for first, last, columns in groups:
        for block in row_blocks(last - first, sum(c.stop - c.start for c in columns)):
            rows = slice(first + block.start, first + block.stop)
            for n, cols in enumerate(columns):
                inv = pairs(rows, cols)
                for power, out in enumerate(sums):
                    if power:
                        inv *= inv
                    if n:
                        out[rows] += inv @ weights[cols]
                    else:
                        np.matmul(inv, weights[cols], out=out[rows])
                del inv  # before the next block's, or the far field's, arrays come
    if tree is None or inside.stop == inside.start:
        return sums
    slots, valid = _slots(targets.starts)
    _, powers, _, cols = tree.local.shape
    for group in row_blocks(box.size, 2 * slots.shape[1] * (2 * powers * cols + _TREE_NODES)):
        far = _interpolation(targets.coord[slots[group]])[:, None] @ tree.local[group]
        rows = slice(starts_x[group.start], starts_x[group.stop])
        for power, out in enumerate(sums):
            out[rows] += far[:, power][valid[group]].reshape(out[rows].shape)
    return sums


def _bisection_point(lo, hi):
    """Midpoint of a bracket; geometric when its ends differ by more than 4x."""
    small, large = np.minimum(np.abs(lo), np.abs(hi)), np.maximum(np.abs(lo), np.abs(hi))
    geometric = (lo * hi > 0) & (large > 4.0 * small)
    return np.where(geometric, np.sign(lo) * np.sqrt(small * large), 0.5 * (lo + hi))


def _secular(omega0: float, poles: np.ndarray, z2: np.ndarray):
    """All m + 1 roots of g(lam) = lam - omega0 - sum z2/(lam - d), z2 > 0.

    Root k lies in gap k, (d_{k-1}, d_k), with the Weyl bounds
    min(omega0, d_0) - |z| and max(omega0, d_{m-1}) + |z| closing the two
    outer gaps.  Each root is kept as an offset tau from its nearer pole,
    picked by the sign of g at the gap's midpoint.  A sweep sums g and g'
    over every pole and updates every unfinished root with the fixed-weight
    model of g (Bunch, Nielsen & Sorensen 1978; LAPACK's dlaed4): the gap's
    two pole terms exact, and g less them, the linear lam - omega0 among
    it, linearized about the current point.  The model is solved by
    safeguarded Newton inside the root's bracket.  A sweep whose step is
    no shorter than the root's last one bisects the bracket instead, which
    ends the slow climb out of a weakly coupled pole's neighbourhood when
    a strong pole lies just beyond it.
    Returns the origin poles, the offsets, g' = 1 + sum z2/(lam - d)^2 at
    the roots and the sweeps.
    """
    m = poles.size
    k = np.arange(m + 1)
    has_left, has_right = k > 0, k < m
    norm = math.sqrt(float(np.sum(z2)))
    lower = np.concatenate(([min(omega0, poles[0]) - norm], poles))
    upper = np.concatenate((poles, [max(omega0, poles[-1]) + norm]))
    a_left = np.concatenate(([0.0], z2))
    a_right = np.concatenate((z2, [0.0]))
    # Origins start on the left pole (the right one in the first gap), at
    # the gap's midpoint; an outer gap starts in the middle of its bounds.
    origin = np.where(has_left, lower, upper)
    tau = 0.5 * np.where(has_left, upper - lower, lower - upper)
    lo = np.where(has_left, 0.0, lower - upper)
    hi = np.where(has_left, upper - lower, 0.0)
    gprime = np.empty(m + 1)
    last_step = np.full(m + 1, np.inf)
    active = k
    tree = _tree(poles, poles, z2, squares=True)

    def pole_offsets(o, kk):
        # origin minus each pole of the gap; inf where the gap has none
        return (np.where(has_left[kk], o - lower[kk], np.inf),
                np.where(has_right[kk], o - upper[kk], np.inf))

    for sweep in range(1, _MAX_SWEEPS + 1):
        o, t, kk = origin[active], tau[active], k[active]
        al, ar = a_left[kk], a_right[kk]
        s1, s2 = _cauchy_sums(o, poles, z2, squares=True, x_shift=t, tree=tree)
        cl, cr = pole_offsets(o, kk)
        g = (o - omega0) + t - s1
        gprime[active] = 1.0 + s2
        # the model's rest and slope: g and g' less the gap's two pole terms
        pl, pr = al / (cl + t), ar / (cr + t)
        rest = g + pl + pr
        slope = 1.0 + s2 - pl / (cl + t) - pr / (cr + t)
        # g's rounding level: Cauchy-Schwarz bounds the sum of |z2/(lam - d)|
        # over every pole by |z| sqrt(s2)
        noise = _EPS * (np.abs(o - omega0) + np.abs(t) + norm * np.sqrt(s2))
        if sweep == 1:
            # g < 0 at an inner gap's midpoint: the root hugs the right pole
            right = active[has_left[kk] & has_right[kk] & (g < 0)]
            tau[right] += lower[right] - upper[right]
            origin[right] = upper[right]
            lo[right], hi[right] = lower[right] - upper[right], 0.0
            o, t = origin[active], tau[active]
            cl, cr = pole_offsets(o, kk)
        lo_a = np.where(g < 0, t, lo[active])
        hi_a = np.where(g > 0, t, hi[active])

        # The model f matches g and g' at t; Newton runs on f times its
        # pole factors, a cubic, and bisects whenever it leaves the bracket.
        # A root's solve ends when its Newton step stops shrinking: from
        # there on the steps are rounding noise.
        x, ilo, ihi = t, lo_a, hi_a
        live = np.ones(t.size, dtype=bool)
        last = np.full(t.size, np.inf)
        for _ in range(_MODEL_ITERATIONS):
            xl, xr = cl + x, cr + x
            f = rest + slope * (x - t) - al / xl - ar / xr
            fp = slope + al / xl**2 + ar / xr**2
            ilo = np.where(f < 0, x, ilo)
            ihi = np.where(f > 0, x, ihi)
            with np.errstate(invalid="ignore", divide="ignore"):
                x_new = x - f / (fp + f * (1.0 / xl + 1.0 / xr))
            newton = ((x_new > ilo) & (x_new < ihi)) | (x_new == x)
            x_new = np.where(newton, x_new, 0.5 * (ilo + ihi))
            moved = np.abs(x_new - x)
            live &= (f != 0) & (moved > 0) & ~(newton & (moved >= last))
            last = np.where(newton, moved, np.inf)
            x = np.where(live, x_new, x)
            if not np.any(live):
                break

        step = np.abs(x - t)
        done = (step <= _STEP_TOL * np.abs(t)) | (np.abs(g) <= noise)
        inside = (x > lo_a) & (x < hi_a)
        bisect = ~inside | (step >= last_step[active])
        new = np.where(done, np.where(inside, x, t),
                       np.where(bisect, _bisection_point(lo_a, hi_a), x))
        last_step[active] = np.abs(new - t)
        tau[active] = new
        lo[active], hi[active] = lo_a, hi_a
        active = active[~done]
        if active.size == 0:
            return origin, tau, gprime, sweep
    raise NumericalError(f"secular equation: {active.size} of {m + 1} roots "
                         f"unconverged after {_MAX_SWEEPS} sweeps")


def _spectrum(m: DiscreteModel):
    """The arrowhead's spectrum, with the decoupled bins deflated.

    A bin with V_i = 0 keeps eigenvalue eps_i with weight 0, so only the
    coupled bins enter the secular equation.  Returns their indices, each
    root as its origin pole plus an offset, the weights 1/g' and the sweeps.
    """
    z2 = np.abs(m.couplings) ** 2
    coupled = np.flatnonzero(z2 > 0)
    if coupled.size == 0:
        return coupled, np.array([float(m.omega0)]), np.zeros(1), np.ones(1), 0
    origin, tau, gprime, sweeps = _secular(float(m.omega0), m.energies[coupled], z2[coupled])
    return coupled, origin, tau, 1.0 / gprime, sweeps


def survival_exact_discrete(m: DiscreteModel, times, with_occupations: bool = False
                            ) -> tuple[SurvivalSeries, np.ndarray | None]:
    """Exact A(t) and bin occupations c_i(t) from the arrowhead's secular equation.

    H = U H_r U^dagger with U = diag(1, e^{i arg V_i}) and H_r the same
    matrix built from |V_i|.  The eigenvalues of H_r are the roots lam_k of
    g(lam) = lam - omega0 - sum |V_i|^2/(lam - eps_i), the level's weights
    are w_k = |<0|k>|^2 = 1/g'(lam_k), so A(t) = sum_k w_k e^{-i lam_k t}
    and c_i(t) = V_i sum_k w_k e^{-i lam_k t}/(lam_k - eps_i), which is zero
    on a decoupled bin.  The phases w_k e^{-i lam_k t} come from the two
    tables of PhaseGrid, J = ceil(sqrt(nt)) on nt uniform times and 1 on
    any others, and A(t[J*a + b]) is their matrix product, one for each row
    block of roots.  The sums over the roots and the bins, in each root
    sweep and in c_i(t), run on L uniform leaves of the bins with a far
    field built once a solve (``_tree``): O(L^2) work to build it, then O(N)
    a sweep, and O(N nt + L^2 nt) for the occupations; L is 2^tree_levels,
    between N/250 and N/125.  Below about 1,000 bins, under 8 leaves, the
    sums are the dense O(N^2) and O(N^2 nt) ones.  The phases take O(N nt)
    work and O(N sqrt(nt)) exponentials on uniform times; without
    occupations no (N + 1) x nt
    array is built, and the occupations add the (N + 1) x nt weighted
    phases.  ``info`` carries the root sweeps, ``phase_stride`` = J,
    ``weight_defect`` = |sum_k w_k - 1| and ``tree_levels``, log2 of the
    leaf count (0 where the sums are dense).
    """
    times = _check_times(times)
    t = times.ravel()
    coupled, origin, tau, weights, sweeps = _spectrum(m)
    grid = PhaseGrid(t)
    # A(t[J*a + b]) at [a, b]: the weighted coarse table times the fine one
    table = np.zeros((-(-t.size // grid.stride), grid.stride), dtype=complex)
    phases = np.empty((tau.size, t.size), dtype=complex) if with_occupations else None
    for rows in row_blocks(tau.size, table.shape[0] + grid.stride):
        coarse, fine = grid.tables(-(origin[rows] + tau[rows]))
        coarse *= weights[rows]
        table += coarse @ fine.T
        if with_occupations:
            grid.product(coarse, fine, out=phases[rows].T)
    amp = table.ravel()[:t.size].reshape(times.shape)
    occupations = None
    if with_occupations:
        # the sums over the roots with the bins as targets, eps_i - lam_k formed
        # as (eps_i - origin) - tau, so they are minus c_i / V_i
        bins, phases = m.energies[coupled], phases.view(float)
        sums, = _cauchy_sums(bins, origin, phases, y_shift=tau,
                             tree=_tree(bins, origin, phases, y_shift=tau))
        del phases  # so that the phases, the sums and the occupations never coexist
        occupations = np.zeros((m.size, t.size), dtype=complex)
        occupations[coupled] = np.multiply(-m.couplings[coupled, None], sums.view(complex),
                                           out=sums.view(complex))
        occupations = occupations.reshape(m.size, *times.shape)
    series = SurvivalSeries(
        times=times, amplitude=amp, method="discrete_oracle",
        info={"n_bins": m.size, "recurrence_time": m.recurrence_time(),
              "secular_sweeps": sweeps, "phase_stride": grid.stride,
              "weight_defect": abs(float(np.sum(weights)) - 1.0),
              "tree_levels": _tree_depth(coupled.size)})
    return series, occupations
