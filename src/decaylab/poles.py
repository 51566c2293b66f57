"""Resonance poles of the dressed propagator on the second sheet.

The propagator pole solves omega - omega0 - Sigma(omega) = 0 with the
self-energy continued below the real axis.  A complex Newton iteration
started from the weak-coupling value converges in a handful of steps for
every model treated here; the Lorentzian case is also solved exactly by
the quadratic formula as an independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRoots, DomainError, NoConvergence
from .selfenergy import SelfEnergy

__all__ = ["PoleResult", "LorentzianPoles", "weisskopf_wigner_rate",
           "find_pole", "lorentzian_poles"]


@dataclass(frozen=True)
class PoleResult:
    """Converged resonance pole omega_prime - i*omega_dprime and its residue."""

    omega_prime: float
    omega_dprime: float
    residue: complex
    iterations: int
    converged: bool
    final_residual: float

    @property
    def omega(self) -> complex:
        return self.omega_prime - 1j * self.omega_dprime


@dataclass(frozen=True)
class LorentzianPoles:
    """Both propagator poles of the Lorentzian model, nearest to omega0 first."""

    omega_plus: complex
    omega_minus: complex
    residue_plus: complex
    residue_minus: complex


# Newton steps allowed from each start before it counts as stalled.
_MAX_ITERATIONS = 200


def weisskopf_wigner_rate(se: SelfEnergy, omega0: float) -> tuple[float, float]:
    """Weak-coupling decay rate gamma = 2*pi*D(omega0) and half-rate pi*D."""
    omega0 = float(omega0)
    lo, hi = se.model.support()
    if not lo < omega0 < hi:
        raise DomainError("omega0 must lie inside the spectral support")
    d0 = float(se.model.density(omega0))
    return 2.0 * np.pi * d0, np.pi * d0


def find_pole(se: SelfEnergy, omega0: float, guess: complex | None = None) -> PoleResult:
    """Newton iteration for the second-sheet zero of omega - omega0 - Sigma.

    Sigma on the second sheet and its derivative come from the model's
    exact Cauchy transform and its closed-form derivative, so the residue
    1 / (1 - Sigma'(pole)) is exact to rounding as well.
    """
    omega0 = float(omega0)
    lo, hi = se.model.support()
    if not lo < omega0 < hi:
        raise DomainError("find_pole handles the embedded case only; "
                          "use renormalize_below_threshold below the threshold")
    if guess is None:
        guess = omega0 - 1j * np.pi * float(se.model.density(omega0))
    guess = complex(guess)

    def h(z: complex) -> complex:
        return z - omega0 - complex(se.sigma_continued(z))

    def dh(z: complex) -> complex:
        return 1.0 - complex(se.sigma_continued_derivative(z))

    tol = 1e-10 * max(1.0, abs(omega0))
    # A guess on a symmetry line of h can trap Newton there (e.g. the
    # band-centered flat or Lorentzian density); deterministic sideways
    # kicks break the degeneracy if the plain start stalls.
    kick = 0.25 * max(abs(guess.imag), 0.05 * se.model.char_width(), 1e-3)
    last_error: Exception | None = None
    for shift in (0.0, kick, -kick, 3.0 * kick, -3.0 * kick):
        try:
            return _newton(h, dh, guess + shift, tol)
        except (NoConvergence, DomainError) as exc:
            # DomainError here means the iterate left the model's
            # continuation domain; treat it as a failed start
            last_error = exc
    if isinstance(last_error, NoConvergence):
        raise last_error
    raise NoConvergence(f"every Newton start failed; last error: {last_error}")


def _newton(h, dh, w: complex, tol: float) -> PoleResult:
    hw = h(w)
    for iteration in range(_MAX_ITERATIONS + 1):
        residual = abs(hw)
        deriv = dh(w)
        if deriv == 0:
            raise NoConvergence(f"vanishing derivative at iterate {w}")
        if residual < tol:
            damping = -w.imag
            if damping < 0:
                if damping > -10 * tol:
                    damping = 0.0
                else:
                    raise NoConvergence(f"iteration converged above the axis at {w}")
            return PoleResult(
                omega_prime=w.real,
                omega_dprime=damping,
                residue=1.0 / deriv,
                iterations=iteration,
                converged=True,
                final_residual=residual,
            )
        w = w - hw / deriv
        hw = h(w)
    raise NoConvergence(
        f"no pole after {_MAX_ITERATIONS} iterations; last iterate {w}, |h| = {abs(hw):.3e}")


def lorentzian_poles(amplitude_sq: float, center: float, width: float,
                     omega0: float) -> LorentzianPoles:
    """Exact poles of the Lorentzian-model propagator via the quadratic formula.

    The propagator denominator is (omega - center + i*width)(omega - omega0)
    - pi*amplitude_sq/width; the residues of its partial fractions sum to
    one identically.
    """
    if width <= 0:
        raise DomainError("width must be positive")
    pole_lower = center - 1j * width
    # monic quadratic omega^2 + B*omega + C
    b_coef = -(omega0 + pole_lower)
    c_coef = pole_lower * omega0 - np.pi * amplitude_sq / width
    disc = b_coef * b_coef - 4.0 * c_coef
    s = np.sqrt(complex(disc))
    if (b_coef.real * s.real + b_coef.imag * s.imag) < 0:
        s = -s
    q = -0.5 * (b_coef + s)
    if q == 0:
        r1, r2 = 0j, 0j
    else:
        r1 = q
        r2 = c_coef / q
    if abs(r1 - r2) < 1e-12:
        raise DegenerateRoots(f"double pole at {r1}")
    if abs(r1 - omega0) > abs(r2 - omega0):
        r1, r2 = r2, r1
    res1 = (r1 - pole_lower) / (r1 - r2)
    res2 = (r2 - pole_lower) / (r2 - r1)
    return LorentzianPoles(omega_plus=r1, omega_minus=r2,
                           residue_plus=res1, residue_minus=res2)
