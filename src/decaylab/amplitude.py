"""Survival amplitude of the discrete state by several independent routes.

* direct numerical inversion of the Laplace-Fourier transform along a
  horizontal contour above the real axis,
* the residue-plus-branch-cut decomposition built from the second-sheet
  pole and the threshold cut integral,
* closed forms for the two exactly solvable models (Lorentzian density
  and the wide flat band).

The numeric inversion subtracts the free propagator pole analytically,
so the quadrature only sees a smooth difference that decays like the
inverse cube of frequency, and the subtracted part is restored exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, special

from .errors import (DomainError, QuadratureFailure, SingularDenominator,
                     TruncationError)
from .poles import PoleResult, find_pole, lorentzian_poles
from .selfenergy import SelfEnergy
from .spectral import Lorentzian

__all__ = [
    "SurvivalSeries",
    "survival_numeric",
    "survival_lorentzian",
    "survival_box",
    "cut_integral",
    "tail_asymptote",
    "survival_pole_cut",
]


@dataclass
class SurvivalSeries:
    """Complex survival amplitude on a time grid, with optional decomposition."""

    times: np.ndarray
    amplitude: np.ndarray
    method: str
    pole_term: np.ndarray | None = None
    cut_term: np.ndarray | None = None
    info: dict = field(default_factory=dict)

    def probability(self) -> np.ndarray:
        return np.abs(self.amplitude) ** 2


def _check_times(times) -> np.ndarray:
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 0:
        raise DomainError("empty time grid")
    if np.any(times < 0) or not np.all(np.isfinite(times)):
        raise DomainError("times must be finite and nonnegative")
    return times


def default_contour_offset(se: SelfEnergy, omega0: float, t_max: float) -> float:
    """Contour height: half the weak-coupling rate plus a slice of the width.

    Capped at 3/t_max because the integrand carries exp(offset * t); a
    contour far above the axis makes late times numerically hopeless
    while any positive offset is analytically valid.
    """
    lo, hi = se.model.support()
    gamma_ww = 2.0 * np.pi * float(se.model.density(omega0)) if lo < omega0 < hi else 0.0
    offset = 0.5 * gamma_ww + 0.1 * se.model.char_width()
    if t_max > 0:
        offset = min(offset, 3.0 / t_max)
    return max(offset, 1e-8)


def survival_numeric(se: SelfEnergy, omega0: float, times,
                     contour_offset: float | None = None,
                     omega_max: float | None = None,
                     n_points: int | None = None) -> SurvivalSeries:
    """Invert the transform of the dressed propagator along Im omega = offset.

    Composite Simpson quadrature on the truncated contour, applied to the
    dressed-minus-free difference; the free pole contributes its exact
    exponential, which also guarantees A(0) -> 1 as the truncation grows.
    """
    times = _check_times(times)
    omega0 = float(omega0)
    t_max = float(times.max())

    if contour_offset is None:
        offset = default_contour_offset(se, omega0, t_max)
    else:
        offset = float(contour_offset)
        if offset <= 0:
            raise DomainError("contour offset must be positive")

    weight = se.weight()
    lo, hi = se.model.support()
    reach = max(abs(b) for b in (lo, hi) if np.isfinite(b)) if np.isfinite(lo) or np.isfinite(hi) else 0.0
    reach = max(reach, abs(omega0))
    growth = np.exp(offset * t_max)

    if omega_max is None:
        target = 1e-5
        omega_max = max(
            np.sqrt(growth * weight / (np.pi * target)) if weight > 0 else 0.0,
            2.0 * reach + 10.0 * (1.0 + offset),
            abs(omega0) + 10.0 * (se.model.char_width() + 1.0),
        )
    else:
        omega_max = float(omega_max)
    margin = omega_max - reach
    if margin <= 0:
        raise TruncationError("omega_max does not clear the spectral support")
    tail_estimate = growth * weight / (np.pi * margin**2)
    if tail_estimate > 1e-4:
        raise TruncationError(
            f"estimated truncated-tail contribution {tail_estimate:.3e} > 1e-4; "
            "increase omega_max or lower the contour")

    if n_points is None:
        n_points = int(np.ceil(2.0 * omega_max * max(t_max, 1.0) / 0.08))
        n_points = min(max(n_points, 20_001), 4_000_001)
    n_points = int(n_points)
    if n_points < 3:
        raise DomainError("n_points must be at least 3")
    if n_points % 2 == 0:
        n_points += 1

    x = np.linspace(-omega_max, omega_max, n_points)
    h = x[1] - x[0]
    nodes = x + 1j * offset
    sigma = se.sigma_upper_grid(nodes)
    diff = 1.0 / (nodes - omega0 - sigma) - 1.0 / (nodes - omega0)
    w = np.full(n_points, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    f = (1j / (2.0 * np.pi)) * diff * (w * h / 3.0)

    amp = np.zeros(times.size, dtype=complex)
    chunk = 16_384
    for start in range(0, n_points, chunk):
        xs = x[start:start + chunk]
        amp += f[start:start + chunk] @ np.exp(-1j * np.outer(xs, times))
    amp *= np.exp(offset * times)
    amp += np.exp(-1j * omega0 * times)

    return SurvivalSeries(
        times=times, amplitude=amp, method="numeric_inversion",
        info={"contour_offset": offset, "omega_max": omega_max,
              "n_points": n_points, "tail_estimate": tail_estimate})


def survival_lorentzian(model: Lorentzian, omega0: float, times) -> SurvivalSeries:
    """Two-pole closed form for the Lorentzian spectral density.

    Both poles lie in the lower half plane and evolve as exp(-i*pole*t),
    so the amplitude decays; the residues sum to one, which pins A(0).
    """
    times = _check_times(times)
    lp = lorentzian_poles(model.amplitude_sq, model.center, model.width, float(omega0))
    amp = (lp.residue_plus * np.exp(-1j * lp.omega_plus * times)
           + lp.residue_minus * np.exp(-1j * lp.omega_minus * times))
    return SurvivalSeries(times=times, amplitude=amp, method="closed_form_lorentzian",
                          info={"poles": lp})


def survival_box(amplitude_sq: float, half_width: float, omega0: float,
                 times) -> SurvivalSeries:
    """Wide flat-band closed form: pure exponential at gamma = 2*pi*A^2.

    Valid in the regime half_width >> |omega0| and half_width >> A^2;
    finite-band deviations are probed with survival_numeric.
    """
    times = _check_times(times)
    gamma = 2.0 * np.pi * float(amplitude_sq)
    amp = np.exp(-1j * float(omega0) * times - 0.5 * gamma * times)
    return SurvivalSeries(times=times, amplitude=amp, method="closed_form_box",
                          info={"gamma": gamma})


def cut_integral(se: SelfEnergy, omega0: float, t: float) -> complex:
    """Branch-cut contribution to A(t) from the cut hung below the threshold.

    Integrates exp(-xi*t) times the sheet discontinuity over the vertical
    cut, divided by the one-sided propagator denominators, after the
    substitution u = xi*t that keeps the quadrature well scaled at all
    times.
    """
    omega0 = float(omega0)
    t = float(t)
    if t <= 0:
        raise DomainError("cut_integral requires t > 0")
    mu, _ = se.model.support()
    if not np.isfinite(mu):
        raise DomainError("cut integral requires a finite lower support bound")

    def integrand(u: float) -> complex:
        xi = u / t
        jump = se.cut_discontinuity(xi)
        sheet1 = se.sigma_physical(mu - 1j * xi)
        sheet2 = sheet1 + jump
        w = mu - 1j * xi
        return np.exp(-u) * jump / ((w - omega0 - sheet2) * (w - omega0 - sheet1))

    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(integrand, 0.0, np.inf, complex_func=True,
                                  epsabs=1e-13, epsrel=1e-10, limit=400)
    if not np.isfinite(val):
        raise QuadratureFailure("cut integral did not converge")
    if abs(err) > 1e-6 * max(1e-30, abs(val)) + 1e-13:
        raise QuadratureFailure(f"cut integral error estimate {abs(err):.3e} too large")
    return np.exp(-1j * mu * t) / (2.0 * np.pi * t) * complex(val)


def tail_asymptote(beta_th: float, alpha: float, mu: float, omega0: float,
                   sigma_at_mu: complex, t: float) -> complex:
    """Leading long-time power law of the cut contribution.

    Closed form: beta * exp(-i*mu*t) * i^(alpha+3) * Gamma(alpha+1)
    / ((mu - omega0 - Sigma(mu))^2 * t^(alpha+1)), principal branch of
    the power of i.
    """
    t = float(t)
    if t <= 0:
        raise DomainError("tail asymptote requires t > 0")
    h_mu = mu - omega0 - sigma_at_mu
    if abs(h_mu) < 1e-12:
        raise SingularDenominator("threshold denominator mu - omega0 - Sigma(mu) vanishes")
    phase = np.exp(1j * (alpha + 3.0) * np.pi / 2.0)
    return (beta_th * np.exp(-1j * mu * t) * phase * special.gamma(alpha + 1.0)
            / (h_mu**2 * t ** (alpha + 1.0)))


def survival_pole_cut(se: SelfEnergy, omega0: float, times,
                      pole: PoleResult | None = None) -> SurvivalSeries:
    """Residue exponential plus the branch-cut correction, per time point.

    At t = 0 the cut term is fixed by completeness (A(0) = 1) instead of
    the divergent-looking integral representation.
    """
    times = _check_times(times)
    omega0 = float(omega0)
    if pole is None:
        pole = find_pole(se, omega0)
    pole_term = pole.residue * np.exp(-1j * pole.omega * times)
    cut_term = np.array([cut_integral(se, omega0, t) if t > 0 else 1.0 - pole.residue
                         for t in times], dtype=complex)
    return SurvivalSeries(
        times=times, amplitude=pole_term + cut_term, method="pole_cut",
        pole_term=pole_term, cut_term=cut_term,
        info={"pole": pole})
