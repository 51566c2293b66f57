"""Wave packet prepared in the continuum by the decay.

The coefficient of continuum energy eps grows from zero as the discrete
state empties, saturating on a Lorentzian energy distribution of full
width gamma.  Spatial synthesis expands the coefficients over
energy-normalized continuum eigenfunctions: free plane waves (kinetic
energy k^2, mass-1/2 convention) or Airy states of a linear slope.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import special

from ._blocks import row_blocks
from .errors import BasisUnavailable, DomainError

__all__ = [
    "spectral_distribution",
    "default_energy_grid",
    "packet_coefficients",
    "packet_norm_sq",
    "plane_wave_eigenfunction",
    "airy_slope_eigenfunction",
    "synthesize_packet",
    "ContinuumPacket",
    "evolve_packet",
]


def spectral_distribution(omega0: float, gamma: float):
    """Normalized Lorentzian line shape of the emitted packet (FWHM gamma)."""
    if gamma <= 0:
        raise DomainError("gamma must be positive")
    omega0 = float(omega0)
    half = 0.5 * gamma

    def dist(eps):
        eps = np.asarray(eps, dtype=float)
        return (gamma / (2.0 * np.pi)) / ((eps - omega0) ** 2 + half**2)

    return dist

def default_energy_grid(omega0: float, gamma: float, n: int = 2001,
                        span: float = 40.0) -> np.ndarray:
    """Uniform energy grid over [omega0 - span*gamma, omega0 + span*gamma].

    The default span keeps more than 99 percent of the Lorentzian weight
    on the grid; the window always appears in run manifests.
    """
    if gamma <= 0 or span <= 0 or n < 2:
        raise DomainError("need gamma > 0, span > 0 and at least two grid points")
    return np.linspace(omega0 - span * gamma, omega0 + span * gamma, int(n))


def packet_coefficients(v_eps, omega0: float, gamma: float, eps, t) -> np.ndarray:
    """Continuum coefficients c(eps, t) in the exponential-decay approximation.

    c = V(eps)/(eps - omega0 + i*gamma/2) * (exp(-i*eps*t)
        - exp(-i*omega0*t) * exp(-gamma*t/2)); identically zero at t = 0.
    ``t=inf`` drops the decaying term and the free phase (magnitudes only).
    A time array gives shape (n_t, n_eps); a scalar time gives (n_eps,).
    """
    if gamma <= 0:
        raise DomainError("gamma must be positive")
    eps = np.asarray(eps, dtype=float)
    coupling = np.asarray(v_eps(eps) if callable(v_eps) else v_eps, dtype=complex)
    if coupling.shape not in ((), eps.shape):
        raise DomainError("coupling array must match the energy grid")
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):
        raise DomainError("t must be nonnegative, not NaN")
    prefactor = coupling / (eps - omega0 + 0.5j * gamma)
    saturated = np.isinf(t)[..., None]
    t_finite = np.where(saturated, 0.0, t[..., None])
    bracket = (np.exp(-1j * eps * t_finite)
               - np.exp(-1j * omega0 * t_finite - 0.5 * gamma * t_finite))
    return prefactor * np.where(saturated, 1.0, bracket)


def packet_norm_sq(eps: np.ndarray, coeffs: np.ndarray) -> float | np.ndarray:
    """Riemann-sum norm sum |c|^2 * deps over the last axis of (..., n_eps)."""
    deps = np.gradient(np.asarray(eps, dtype=float))
    return np.sum(np.abs(coeffs) ** 2 * deps, axis=-1)


def plane_wave_eigenfunction(eps, x) -> np.ndarray:
    """Energy-normalized free wave exp(ikx)/sqrt(4*pi*k) with eps = k^2."""
    eps = np.asarray(eps, dtype=float)
    if np.any(eps <= 0):
        raise BasisUnavailable("plane-wave basis needs strictly positive energies")
    k = np.sqrt(eps)
    x = np.asarray(x, dtype=float)
    return np.exp(1j * np.multiply.outer(x, k)) / np.sqrt(4.0 * np.pi * k)


def airy_slope_eigenfunction(eps, x, beta_slope: float, offset: float = 0.0) -> np.ndarray:
    """Energy-normalized eigenfunctions of kinetic k^2 plus -beta*x + offset.

    Ai(-beta^(1/3) * (x + (eps - offset)/beta)) scaled by beta^(-1/6);
    the WKB tail matches cos(integral k dx)/sqrt(pi*k), the normalization
    that makes the overlap of two of them a delta in energy.
    """
    if beta_slope is None or beta_slope <= 0:
        raise BasisUnavailable("slope basis requires beta_slope > 0")
    eps = np.asarray(eps, dtype=float)
    x = np.asarray(x, dtype=float)
    b3 = beta_slope ** (1.0 / 3.0)
    arg = -b3 * (np.add.outer(x, (eps - offset) / beta_slope))
    return beta_slope ** (-1.0 / 6.0) * special.airy(arg)[0]


# basis name -> eigenfunction(eps, x, beta_slope, offset), shape (n_x, n_eps)
BASES = {
    "plane_wave": lambda eps, x, beta_slope, offset: plane_wave_eigenfunction(eps, x),
    "linear_slope_airy": airy_slope_eigenfunction,
}


def synthesize_packet(eps: np.ndarray, coeffs: np.ndarray, x: np.ndarray,
                      basis: str = "plane_wave", beta_slope: float | None = None,
                      offset: float = 0.0) -> np.ndarray:
    """Spatial packet Psi(x) = sum_k phi_{eps_k}(x) c_k deps_k.

    Coefficients of shape (..., n_eps) give a packet of shape (..., n_x);
    each eigenfunction is evaluated once, in energy blocks of the shared
    block budget of (x, eps) points.
    """
    eps = np.asarray(eps, dtype=float)
    coeffs = np.asarray(coeffs, dtype=complex)
    x = np.asarray(x, dtype=float)
    if coeffs.shape[-1:] != eps.shape:
        raise DomainError("coefficients must match the energy grid")
    phi = BASES.get(basis)
    if phi is None:
        raise BasisUnavailable(f"unknown basis '{basis}'")
    if basis == "plane_wave" and (beta_slope is not None or offset != 0.0):
        raise BasisUnavailable("the plane-wave basis takes neither beta_slope nor offset")
    weighted = coeffs * np.gradient(eps)
    psi = np.zeros(coeffs.shape[:-1] + x.shape, dtype=complex)
    for block in row_blocks(eps.size, x.size):
        psi += weighted[..., block] @ phi(eps[block], x, beta_slope, offset).T
    return psi


@dataclass
class ContinuumPacket:
    """Coefficients (and optionally the spatial packet) on a time grid."""

    eps: np.ndarray
    times: np.ndarray
    coeffs: np.ndarray           # shape (n_times, n_eps)
    basis: str = "plane_wave"
    x: np.ndarray | None = None
    psi: np.ndarray | None = None  # shape (n_times, n_x) when synthesized
    info: dict = field(default_factory=dict)

    def norm_sq(self) -> np.ndarray:
        return packet_norm_sq(self.eps, self.coeffs)


def evolve_packet(v_eps, omega0: float, gamma: float, eps: np.ndarray, times,
                  x: np.ndarray | None = None, basis: str = "plane_wave",
                  beta_slope: float | None = None, offset: float = 0.0) -> ContinuumPacket:
    """Coefficients for every requested time; the spatial packet when x is given."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    eps = np.asarray(eps, dtype=float)
    coeffs = packet_coefficients(v_eps, omega0, gamma, eps, times)
    psi = None
    if x is not None:
        x = np.asarray(x, dtype=float)
        psi = synthesize_packet(eps, coeffs, x, basis, beta_slope, offset)
    return ContinuumPacket(eps=eps, times=times, coeffs=coeffs, basis=basis, x=x, psi=psi,
                           info={"omega0": omega0, "gamma": gamma,
                                 "window": (float(eps[0]), float(eps[-1]))})
