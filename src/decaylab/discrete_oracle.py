"""Exact finite-dimensional oracle: one level coupled to N energy bins.

Discretizing the continuum turns the model into an (N+1) x (N+1)
Hermitian matrix whose resolvent and time evolution are available
exactly.  This validates the projector partition identities and provides
a brute-force reference for the survival amplitude and the continuum
occupation, trustworthy up to the recurrence time set by the level
spacing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularMatrix
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

    def sigma_discrete(self, omega: complex) -> complex:
        """Riemann-sum self-energy sum |V_i|^2 / (omega - eps_i)."""
        return complex(np.sum(np.abs(self.couplings) ** 2 / (omega - self.energies)))

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
    delta_convention: str = "kronecker"


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


def survival_exact_discrete(m: DiscreteModel, times, with_occupations: bool = False
                            ) -> tuple[SurvivalSeries, np.ndarray | None]:
    """Eigendecomposition evolution: exact A(t) and bin occupations c_i(t).

    H = U H_r U^dagger with U = diag(1, e^{i arg V_i}) and H_r the same
    matrix built from |V_i|, so only the real H_r is diagonalized and U
    puts the coupling phases back on the bin occupations.
    """
    times = _check_times(times)
    evals, evecs = np.linalg.eigh(_arrowhead(m.omega0, m.energies, np.abs(m.couplings)))
    overlap0 = evecs[0, :]
    phases = np.exp(-1j * np.outer(evals, times))
    amp = (overlap0**2 @ phases).reshape(times.shape)
    occupations = None
    if with_occupations:
        gauge = np.exp(1j * np.angle(m.couplings))
        occupations = (gauge[:, None] * ((evecs[1:, :] * overlap0[None, :]) @ phases)
                       ).reshape(m.size, *times.shape)
    series = SurvivalSeries(
        times=times, amplitude=amp, method="discrete_oracle",
        info={"n_bins": m.size, "recurrence_time": m.recurrence_time()})
    return series, occupations
