"""Zeros of g(omega) = omega - omega0 - Sigma(omega): resonances and bound states.

Inside the support the zero is the second-sheet resonance, which complex
Newton from the weak-coupling value finds in a handful of steps; outside,
a real bound state, where g' >= 1 and g is convex below the support and
concave above, so real Newton from omega0 runs monotonically to it.  The
Lorentzian case is also solved exactly by the quadratic formula as an
independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateRoots, DomainError, NoConvergence

if TYPE_CHECKING:
    from .selfenergy import SelfEnergy

__all__ = ["PoleResult", "LorentzianPoles", "weisskopf_wigner_rate",
           "find_pole", "lorentzian_poles"]


@dataclass(frozen=True)
class PoleResult:
    """Converged zero omega_prime - i*omega_dprime of g and its residue (a bound state's Z)."""

    omega_prime: float
    omega_dprime: float
    residue: complex
    iterations: int
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


def find_pole(se: SelfEnergy, omega0: float) -> PoleResult:
    """Newton iteration for the zero of g = omega - omega0 - Sigma.

    Inside the support, the second-sheet resonance, from the weak-coupling
    value omega0 - i*pi*D(omega0) (a start whose zero lies off the support
    fails); outside, the real bound state on omega0's side.  Sigma and
    Sigma' come from the model's exact Cauchy transform and its closed-form
    derivative, so the residue 1 / (1 - Sigma') is exact to rounding as well.
    """
    omega0 = float(omega0)
    lo, hi = se.model.support()
    if not lo < omega0 < hi:
        return _bound_state(se.model, omega0)
    guess = omega0 - 1j * np.pi * float(se.model.density(omega0))
    tol = 1e-10 * max(1.0, abs(omega0))
    # A start on a symmetry line of g can trap Newton there (e.g. the
    # band-centered flat or Lorentzian density); deterministic sideways
    # kicks break the degeneracy if the plain start stalls.
    kick = 0.25 * max(abs(guess.imag), 0.05 * se.model.char_width(), 1e-3)
    failures = []
    for shift in (0.0, kick, -kick, 3.0 * kick, -3.0 * kick):
        try:
            pole = _newton(se.sigma_continued, se.sigma_continued_derivative, omega0,
                           guess + shift, tol)
        except (NoConvergence, DomainError) as exc:
            # DomainError here means the iterate left the model's
            # continuation domain; treat it as a failed start
            failures.append(str(exc))
            continue
        if lo < pole.omega_prime < hi:
            return pole
        # off the support a zero of the continued g may lie under its own cut
        failures.append(f"zero {pole.omega:.6g} lies outside the support ({lo:g}, {hi:g})")
    raise NoConvergence("every Newton start failed: " + "; ".join(dict.fromkeys(failures)))


def _bound_state(model, omega0: float) -> PoleResult:
    if not np.all(np.isfinite([model.cauchy(omega0), model.cauchy_derivative(omega0)])):
        raise DomainError("Sigma or Sigma' diverges at omega0, a band edge")
    # Real parts keep the iterate on the physical sheet, whatever the rounding
    # of Im Sigma.  g' >= 1 bounds the root's error by the residual, and g's
    # terms are of the size of omega0 or of the weight W: (E_b - omega0)^2 <= W.
    return _newton(lambda x: complex(model.cauchy(x)).real,
                   lambda x: complex(model.cauchy_derivative(x)).real,
                   omega0, omega0, 1e-13 * max(1.0, abs(omega0), model.total_weight()))


def _newton(sigma, dsigma, omega0: float, w: complex, tol: float) -> PoleResult:
    """Newton on g(w) = w - omega0 - sigma(w), with g' = 1 - dsigma(w)."""
    for iteration in range(_MAX_ITERATIONS + 1):
        hw = w - omega0 - complex(sigma(w))
        residual = abs(hw)
        deriv = 1.0 - complex(dsigma(w))
        if deriv == 0:
            raise NoConvergence(f"vanishing derivative at iterate {w}")
        if residual < tol:
            if w.imag >= 10 * tol:
                raise NoConvergence(f"iteration converged above the axis at {w}")
            return PoleResult(
                omega_prime=w.real,
                omega_dprime=max(0.0, -w.imag),
                residue=1.0 / deriv,
                iterations=iteration,
                final_residual=residual,
            )
        w = w - hw / deriv
    raise NoConvergence(
        f"no pole after {_MAX_ITERATIONS} iterations; |g| = {residual:.3e}, next iterate {w}")


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
