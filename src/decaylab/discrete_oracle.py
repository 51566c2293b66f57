"""Exact finite-dimensional oracle: one level coupled to N energy bins.

Discretizing the continuum turns the model into an (N+1) x (N+1)
Hermitian arrowhead matrix whose resolvent and time evolution are
available exactly.  This validates the projector partition identities and
provides a brute-force reference for the survival amplitude and the
continuum occupation, trustworthy up to the recurrence time set by the
level spacing.  The evolution comes from the roots of the secular
equation (Bunch, Nielsen & Sorensen 1978; Gu & Eisenstat 1995) and the
closed-form eigenvectors they give, in O(N^2) work and O(N) memory: no
(N+1) x (N+1) array is built for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._blocks import row_blocks
from .errors import DomainError, NoConvergence, SingularMatrix
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
        """Hermitian matrix: level in slot 0, bins on the diagonal."""
        return _arrowhead(self.omega0, self.energies, self.couplings)

    def sigma_discrete(self, omega):
        """Riemann-sum self-energy sum |V_i|^2 / (omega - eps_i), elementwise in omega."""
        w = np.asarray(omega, dtype=complex)
        flat = w.ravel()
        out = np.empty(flat.size, dtype=complex)
        z2 = np.abs(self.couplings) ** 2
        for rows in row_blocks(flat.size, self.size):
            out[rows] = (1.0 / np.subtract.outer(flat[rows], self.energies)) @ z2
        return out.reshape(w.shape)[()]

    def recurrence_time(self) -> float:
        """2*pi over the largest level spacing; decay mimicry ends here."""
        return 2.0 * np.pi / float(np.max(np.diff(self.energies)))


def _arrowhead(omega0: float, energies: np.ndarray, couplings: np.ndarray) -> np.ndarray:
    """Level in slot 0 coupled to the bins on the diagonal; dtype of the couplings."""
    n = energies.size
    h = np.zeros((n + 1, n + 1), dtype=couplings.dtype)
    h[0, 0] = omega0
    h[1:, 0] = couplings
    h[0, 1:] = np.conj(couplings)
    h[np.arange(1, n + 1), np.arange(1, n + 1)] = energies
    return h


@dataclass(frozen=True)
class PartitionedResolvent:
    """Projected resolvent blocks; Kronecker-delta bin convention."""

    g_p: complex
    g_qp: np.ndarray
    g_q: np.ndarray


def build_discrete(model: SpectralModel, omega0: float, n: int,
                   binning: str = "uniform",
                   window: tuple[float, float] | None = None) -> DiscreteModel:
    """Discretize a spectral model into n bins with |V_i|^2 = D(eps_i) * width_i."""
    if n < 2:
        raise DomainError("need at least two bins")
    lo, hi = model.support()
    if window is not None:
        lo = max(lo, float(window[0]))
        hi = min(hi, float(window[1]))
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise DomainError("infinite support requires an explicit truncation window")
    if binning == "uniform":
        edges = np.linspace(lo, hi, n + 1)
        centers = 0.5 * (edges[:-1] + edges[1:])
        widths = np.diff(edges)
    elif binning == "gauss-legendre":
        x, w = np.polynomial.legendre.leggauss(n)
        centers = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
        widths = 0.5 * (hi - lo) * w
    else:
        raise DomainError(f"unknown binning '{binning}'")
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
        raise SingularMatrix(f"resolvent solve failed at omega={omega}: {exc}") from exc


def resolvent_partitioned(m: DiscreteModel, omega: complex) -> PartitionedResolvent:
    """Closed partition formulas for all three projected resolvent blocks."""
    omega = complex(omega)
    g_p = 1.0 / (omega - m.omega0 - m.sigma_discrete(omega))
    free = 1.0 / (omega - m.energies)
    g_qp = free * m.couplings * g_p
    g_q = np.diag(free).astype(complex)
    g_q += np.outer(free * m.couplings, free * np.conj(m.couplings)) * g_p
    return PartitionedResolvent(g_p=g_p, g_qp=g_qp, g_q=g_q)


# A root is done when its last step is at most this fraction of its offset,
# or when g is at its rounding level.
_STEP_TOL = 1e-15
_EPS = np.finfo(float).eps
# Root sweeps before NoConvergence.  Binned densities take 4; random models
# with couplings over ten decades and poles 1e-11 apart took up to 16.
_MAX_SWEEPS = 50
# Inner iterations of the local model's safeguarded Newton solve.
_MODEL_ITERATIONS = 100


def _rest_sums(origin, tau, gap, poles, z2):
    """Sums of z2/(lam - d) and z2/(lam - d)^2 over all poles but the gap's two.

    lam - d is formed as (origin - d) + tau, so the offsets keep their
    relative accuracy however closely a root hugs its pole.
    """
    s1 = np.empty(tau.size)
    s2 = np.empty(tau.size)
    m = poles.size
    for rows in row_blocks(tau.size, m):
        inv = np.subtract.outer(origin[rows], poles)
        inv += tau[rows, None]
        np.reciprocal(inv, out=inv)
        k = gap[rows]
        r = np.arange(k.size)
        inv[r[k > 0], k[k > 0] - 1] = 0.0
        inv[r[k < m], k[k < m]] = 0.0
        s1[rows] = inv @ z2
        inv *= inv
        s2[rows] = inv @ z2
    return s1, s2


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
    picked by the sign of g at the gap's midpoint.  A sweep updates every
    unfinished root with the fixed-weight model of g (Bunch, Nielsen &
    Sorensen 1978): the gap's two poles exact, every other term, the linear
    lam - omega0 among them, linearized about the current point.  The model
    is solved by safeguarded Newton inside the root's bracket.  A sweep
    whose step is no shorter than the root's last one bisects the bracket
    instead, which ends the slow climb out of a weakly coupled pole's
    neighbourhood when a strong pole lies just beyond it.
    Returns the origin poles, the offsets, g' at the roots and the sweeps.
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

    def pole_offsets(o, kk):
        # origin minus each pole of the gap; inf where the gap has none
        return (np.where(has_left[kk], o - lower[kk], np.inf),
                np.where(has_right[kk], o - upper[kk], np.inf))

    for sweep in range(1, _MAX_SWEEPS + 1):
        o, t, kk = origin[active], tau[active], k[active]
        al, ar = a_left[kk], a_right[kk]
        s1, s2 = _rest_sums(o, t, kk, poles, z2)
        cl, cr = pole_offsets(o, kk)
        rest = (o - omega0) + t - s1
        slope = 1.0 + s2
        g = rest - al / (cl + t) - ar / (cr + t)
        gprime[active] = slope + al / (cl + t) ** 2 + ar / (cr + t) ** 2
        # g's rounding level: Cauchy-Schwarz bounds the rest's sum of
        # |z2/(lam - d)| by |z| sqrt(s2); the two pole terms are known exactly
        noise = _EPS * (np.abs(o - omega0) + np.abs(t) + norm * np.sqrt(s2)
                        + np.abs(al / (cl + t)) + np.abs(ar / (cr + t)))
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
    raise NoConvergence(f"secular equation: {active.size} of {m + 1} roots "
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
    on a decoupled bin.  Work is O(N^2); beyond the (N + 1) x len(times)
    phases, memory is O(N).  ``info`` carries the root sweeps and
    ``weight_defect`` = |sum_k w_k - 1|.
    """
    times = _check_times(times)
    t = times.ravel()
    coupled, origin, tau, weights, sweeps = _spectrum(m)
    phases = np.exp(-1j * np.outer(origin + tau, t))
    phases *= weights[:, None]
    amp = np.sum(phases, axis=0).reshape(times.shape)
    occupations = None
    if with_occupations:
        occupations = np.zeros((m.size, t.size), dtype=complex)
        weighted = phases.view(float)
        poles = m.energies[coupled]
        for rows in row_blocks(coupled.size, tau.size):
            # the Cauchy block 1/(lam_k - eps_i), with lam_k - eps_i as (origin - eps_i) + tau
            cauchy = np.subtract.outer(-poles[rows], -origin)
            cauchy += tau
            np.reciprocal(cauchy, out=cauchy)
            occupations[coupled[rows]] = (m.couplings[coupled[rows], None]
                                          * (cauchy @ weighted).view(complex))
        occupations = occupations.reshape(m.size, *times.shape)
    series = SurvivalSeries(
        times=times, amplitude=amp, method="discrete_oracle",
        info={"n_bins": m.size, "recurrence_time": m.recurrence_time(),
              "secular_sweeps": sweeps,
              "weight_defect": abs(float(np.sum(weights)) - 1.0)})
    return series, occupations
