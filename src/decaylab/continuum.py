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
from ._phases import PhaseGrid
from .errors import DomainError

__all__ = [
    "default_energy_grid",
    "packet_coefficients",
    "packet_norm_sq",
    "plane_wave_eigenfunction",
    "airy_slope_eigenfunction",
    "synthesize_packet",
    "ContinuumPacket",
    "evolve_packet",
]


def default_energy_grid(omega0: float, gamma: float, n: int, span: float) -> np.ndarray:
    """Uniform energy grid of n points over [omega0 - span*gamma, omega0 + span*gamma].

    A span of 40 keeps more than 99 percent of the Lorentzian weight on
    the grid; the window always appears in run manifests.
    """
    if gamma <= 0 or span <= 0 or n < 2:
        raise DomainError("need gamma > 0, span > 0 and at least two grid points")
    return np.linspace(omega0 - span * gamma, omega0 + span * gamma, int(n))


def packet_coefficients(v_eps, omega0: float, gamma: float, eps, t) -> np.ndarray:
    """Continuum coefficients c(eps, t) in the exponential-decay approximation.

    c = V(eps)/(eps - omega0 + i*gamma/2) * (exp(-i*eps*t)
        - exp(-i*omega0*t) * exp(-gamma*t/2)); identically zero at t = 0.
    A time array gives shape (n_t, n_eps); a scalar time gives (n_eps,).
    """
    if gamma <= 0:
        raise DomainError("gamma must be positive")
    eps = np.asarray(eps, dtype=float)
    coupling = np.asarray(v_eps(eps) if callable(v_eps) else v_eps, dtype=complex)
    if coupling.shape not in ((), eps.shape):
        raise DomainError("coupling array must match the energy grid")
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0) & (t < np.inf)):
        raise DomainError("t must be finite and nonnegative")
    t = t[..., None]
    return (coupling / (eps - omega0 + 0.5j * gamma)
            * (np.exp(-1j * eps * t) - np.exp(-1j * omega0 * t - 0.5 * gamma * t)))


def packet_norm_sq(eps: np.ndarray, coeffs: np.ndarray) -> float | np.ndarray:
    """Riemann-sum norm sum |c|^2 * deps over the last axis of (..., n_eps)."""
    deps = np.gradient(np.asarray(eps, dtype=float))
    return np.sum(np.abs(coeffs) ** 2 * deps, axis=-1)


def plane_wave_eigenfunction(eps, x) -> np.ndarray:
    """Energy-normalized free wave exp(ikx)/sqrt(4*pi*k) with eps = k^2, shape (n_x, n_eps).

    x is any 1-d grid, tabled by _phases.PhaseGrid.  On a uniform x (every
    x[j] within 8 float64 epsilons of max|x| of x[0] + j*dx; grids of one or
    two points are uniform), with j = J*a + b and J = ceil(sqrt(n_x)), the
    wave is the product of a coarse table exp(ik x[J*a])/sqrt(4*pi*k) and a
    fine table exp(ik b*dx): n_x/J + J complex exponentials an energy instead
    of n_x.  On any other x, J = 1 and each point takes its own exponential.
    """
    eps = np.asarray(eps, dtype=float)
    if np.any(eps <= 0):
        raise DomainError("plane-wave basis needs strictly positive energies")
    k = np.sqrt(eps)
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DomainError(f"the plane-wave x grid must be 1-d, not of shape {x.shape}")
    grid = PhaseGrid(x)
    coarse, fine = grid.tables(k)
    coarse /= np.sqrt(4.0 * np.pi * k)
    return grid.product(coarse, fine, out=np.empty((x.size, *k.shape), dtype=complex))


def _u_coefficients(switch: float) -> tuple[np.ndarray, np.ndarray]:
    """The u_k of Airy's asymptotic expansions (DLMF 9.7.2), split by parity of k.

    The expansions stop before the first even k whose term u_k / zeta^k is
    below the float64 epsilon at the switch, the smallest |arg| they serve.
    """
    zeta = 2.0 / 3.0 * switch**1.5
    u = [1.0]  # grows to u_2K, the first omitted term
    while len(u) % 2 == 0 or u[-1] / zeta ** (len(u) - 1) >= np.finfo(float).eps:
        k = len(u)
        u.append(u[-1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / ((2 * k - 1) * 216 * k))
    return np.array(u[0:-1:2]), np.array(u[1::2])


# Ai(arg) is summed from its asymptotic expansions for |arg| >= AI_SWITCH,
# at 0.08-0.15 us a point; scipy's airy, which also computes Ai', Bi and Bi',
# takes 1.6-3.6 us a point there (2-core Xeon).  At the switch 10 pairs of
# terms (u_0 to u_19) leave a first omitted term of 1.4e-16.
AI_SWITCH = 10.0
_U_EVEN, _U_ODD = _u_coefficients(AI_SWITCH)
# float arrays of a chunk's size that the expansions hold at once
_AI_TEMPORARIES = 8


def _u_sums(zeta: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum_k u_2k w^k and sum_k u_2k+1 w^k / zeta over the kept terms, by Horner."""
    even = np.full_like(w, _U_EVEN[-1])
    odd = np.full_like(w, _U_ODD[-1])
    for u_even, u_odd in zip(_U_EVEN[-2::-1], _U_ODD[-2::-1]):
        even *= w
        even += u_even
        odd *= w
        odd += u_odd
    odd /= zeta
    return even, odd


def _ai(arg: np.ndarray) -> np.ndarray:
    """Airy function Ai, from its asymptotic expansions where |arg| >= AI_SWITCH.

    With z = |arg| and zeta = 2/3 z^(3/2):
      arg <= -AI_SWITCH, DLMF 9.7.9:
        Ai(-z) = pi^(-1/2) z^(-1/4) [cos(zeta - pi/4) P + sin(zeta - pi/4) Q],
        P = sum_k (-1)^k u_2k / zeta^2k, Q = sum_k (-1)^k u_2k+1 / zeta^(2k+1),
        with cos(zeta -+ pi/4) expanded so that no rounding of zeta - pi/4
        enters the phase;
      arg >= AI_SWITCH, DLMF 9.7.5:
        Ai(z) = exp(-zeta) / (2 sqrt(pi) z^(1/4)) sum_k (-1)^k u_k / zeta^k;
    scipy.special.airy in between.  The points go in chunks of the block
    budget over _AI_TEMPORARIES, so a chunk's temporaries fit in it.
    """
    ai = np.empty(arg.shape)
    flat_arg, flat_ai = arg.ravel(), ai.reshape(-1)  # flat_ai is a view of ai
    for chunk in row_blocks(arg.size, _AI_TEMPORARIES):
        a, out = flat_arg[chunk], flat_ai[chunk]
        below = a <= -AI_SWITCH
        above = a >= AI_SWITCH
        between = ~(below | above)
        z = -a[below]
        zeta = (2.0 / 3.0) * z * np.sqrt(z)
        p, q = _u_sums(zeta, -1.0 / (zeta * zeta))
        out[below] = ((np.cos(zeta) * (p - q) + np.sin(zeta) * (p + q))
                      / np.sqrt(2.0 * np.pi * np.sqrt(z)))
        z = a[above]
        zeta = (2.0 / 3.0) * z * np.sqrt(z)
        even, odd = _u_sums(zeta, 1.0 / (zeta * zeta))
        out[above] = np.exp(-zeta) * (even - odd) / (2.0 * np.sqrt(np.pi * np.sqrt(z)))
        out[between] = special.airy(a[between])[0]
    return ai


def airy_slope_eigenfunction(eps, x, beta_slope: float) -> np.ndarray:
    """Energy-normalized eigenfunctions of kinetic k^2 plus -beta*x.

    Ai(-beta^(1/3) * (x + eps/beta)) scaled by beta^(-1/6); on a slope
    raised by o, pass eps - o.  The WKB tail matches cos(integral k dx) /
    sqrt(pi*k), the normalization that makes the overlap of two of them a
    delta in energy.  Ai comes from its oscillatory expansion (DLMF 9.7.9)
    where the argument is at or below -AI_SWITCH = -10, from its exponential
    one (DLMF 9.7.5) at or above +10, and from scipy.special.airy in between.
    """
    if beta_slope is None or beta_slope <= 0:
        raise DomainError("slope basis requires beta_slope > 0")
    eps = np.asarray(eps, dtype=float)
    x = np.asarray(x, dtype=float)
    b3 = beta_slope ** (1.0 / 3.0)
    arg = -b3 * (np.add.outer(x, eps / beta_slope))
    return beta_slope ** (-1.0 / 6.0) * _ai(arg)


# basis name -> eigenfunction(eps, x, beta_slope), shape (n_x, n_eps)
BASES = {
    "plane_wave": lambda eps, x, beta_slope: plane_wave_eigenfunction(eps, x),
    "linear_slope_airy": airy_slope_eigenfunction,
}


def synthesize_packet(eps: np.ndarray, coeffs: np.ndarray, x: np.ndarray,
                      basis: str = "plane_wave", beta_slope: float | None = None) -> np.ndarray:
    """Spatial packet Psi(x) = sum_k phi_{eps_k}(x) c_k deps_k.

    Coefficients of shape (..., n_eps) give a packet of shape (..., n_x);
    each eigenfunction is evaluated once, in energy blocks of the shared
    block budget of (x, eps) points.  Both bases take any 1-d x; the
    plane-wave basis builds each block from its two phase tables, which
    are cheapest on a uniform x (see plane_wave_eigenfunction).
    """
    eps = np.asarray(eps, dtype=float)
    coeffs = np.asarray(coeffs, dtype=complex)
    x = np.asarray(x, dtype=float)
    if coeffs.shape[-1:] != eps.shape:
        raise DomainError("coefficients must match the energy grid")
    phi = BASES.get(basis)
    if phi is None:
        raise DomainError(f"unknown basis '{basis}'")
    if basis == "plane_wave" and beta_slope is not None:
        raise DomainError("the plane-wave basis takes no beta_slope")
    weighted = coeffs * np.gradient(eps)
    psi = np.zeros(coeffs.shape[:-1] + x.shape, dtype=complex)
    for block in row_blocks(eps.size, x.size):
        psi += weighted[..., block] @ phi(eps[block], x, beta_slope).T
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


def evolve_packet(v_eps, omega0: float, gamma: float, eps: np.ndarray, times,
                  x: np.ndarray | None = None, basis: str = "plane_wave",
                  beta_slope: float | None = None) -> ContinuumPacket:
    """Coefficients for every requested time; the spatial packet when x is given."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    eps = np.asarray(eps, dtype=float)
    coeffs = packet_coefficients(v_eps, omega0, gamma, eps, times)
    psi = None
    if x is not None:
        x = np.asarray(x, dtype=float)
        psi = synthesize_packet(eps, coeffs, x, basis, beta_slope)
    return ContinuumPacket(eps=eps, times=times, coeffs=coeffs, basis=basis, x=x, psi=psi,
                           info={"omega0": omega0, "gamma": gamma,
                                 "window": (float(eps[0]), float(eps[-1]))})
