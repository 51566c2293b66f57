"""Self-energy of the discrete state.

The physical-sheet function is the Cauchy integral of the spectral
density over its support, which every model evaluates exactly and
vectorized as ``model.cauchy``.  Crossing the real axis from above
continues it onto the second sheet by subtracting 2*pi*i times the
analytically continued density.  ``sigma_quadrature`` evaluates the same
integral by adaptive quadrature; it is an independent reference for
tests, and no result is computed through it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import DomainError, QuadratureFailure
from .spectral import SpectralModel

__all__ = ["SelfEnergy", "Renormalization", "central_difference", "sigma_quadrature"]


@dataclass(frozen=True)
class Renormalization:
    """Dressed bound state parameters for a level below the threshold."""

    Z: float
    omega_tilde: float


def central_difference(f, w: complex, max_step: float = np.inf) -> complex:
    """Derivative of f at w by a central difference of relative step 1e-7.

    ``max_step`` caps the step, e.g. to keep both nodes clear of a
    singularity near w.  The quotient divides by the spacing of the nodes
    as rounded, which a step far below the spacing of floats near w needs.
    """
    step = min(1e-7 * max(1.0, abs(w)), max_step)
    right, left = w + step, w - step
    return (f(right) - f(left)) / (right - left)


def sigma_quadrature(model: SpectralModel, omega: complex) -> complex:
    """Adaptive quadrature of ``model.cauchy(omega)``, with its conventions.

    Takes either half-plane, and the boundary value from above on the axis.
    """
    omega = complex(omega)
    lo, hi = model.support()
    dens, x, width = model.density, omega.real, model.char_width()

    def quad(f, a, b, points=None):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            val, err = integrate.quad(f, a, b, epsabs=1e-10, epsrel=1e-9, limit=10_000,
                                      points=points, complex_func=True)
        if not np.isfinite(val) or abs(err) > max(1e-6, 1e-7 * max(1.0, abs(val))):
            raise QuadratureFailure(f"integral over ({a}, {b}) is {val} +- {abs(err):.3e}")
        return complex(val)

    if not lo < x < hi:
        inner = [p for p in model.breakpoints() if lo < p < hi]
        return quad(lambda e: dens(e) / (omega - e), lo, hi,
                    inner if inner and np.isfinite(lo) and np.isfinite(hi) else None)
    # On a window around x, narrower than the support, the pole's spike can
    # slip between quadrature nodes when it sits near or on the axis.  There
    # subtract the flat density D(x), whose integral is the exact band
    # logarithm, and integrate the bounded remainder.
    a, b = max(lo, x - width / 4), min(hi, x + width / 4)
    d0 = float(dens(x)) if abs(omega.imag) < 0.01 * width else 0.0
    if omega.imag == 0:  # the boundary value from above
        total = d0 * (np.log((x - a) / (b - x)) - 1j * np.pi)
    else:
        total = d0 * np.log((omega - a) / (omega - b))
    # Every finite edge splits the range, so that the pole and the
    # density's structure lie in finite pieces, not in an infinite tail.
    edges = sorted({lo, hi, a, b, x, *model.breakpoints()})
    for start, stop in zip(edges[:-1], edges[1:]):
        flat = d0 if a <= start and stop <= b else 0.0
        total += quad(lambda e: (dens(e) - flat) / (omega - e), start, stop)
    return total


class SelfEnergy:
    """Evaluator of the level shift-and-width function of a spectral model.

    Immutable after construction; all evaluations are pure.
    """

    def __init__(self, model: SpectralModel):
        self.model = model

    def sigma_physical(self, omega):
        """Cauchy integral of the density at Im omega != 0 (either sign)."""
        omega = np.asarray(omega, dtype=complex)
        if np.any(omega.imag == 0):
            raise DomainError("sigma_physical requires Im omega != 0; "
                              "use sigma_upper for boundary values")
        return self.model.cauchy(omega)

    # The same function under the names the benchmark's tracer wraps one by one.
    sigma_panel_rule = sigma_upper_grid = sigma_physical

    def sigma_upper(self, omega):
        """Self-energy on the physical sheet for Im omega >= 0.

        Real omega returns the boundary value from above, whose imaginary
        part is -pi * D(omega) inside the support.
        """
        omega = np.asarray(omega, dtype=complex)
        if np.any(omega.imag < 0):
            raise DomainError("sigma_upper requires Im omega >= 0")
        value = self.model.cauchy(omega)
        if not np.all(np.isfinite(value)):
            raise DomainError("boundary value diverges at a band edge")
        return value

    def sigma_continued(self, omega):
        """Second-sheet self-energy, continuous across the support interior.

        For Im omega >= 0 this coincides with the physical sheet; below the
        axis it subtracts 2*pi*i times the continued density.  Defined for
        every omega where the model's continuation exists, so root finders
        may cross the axis freely.
        """
        omega = np.asarray(omega, dtype=complex)
        below = omega.imag < 0
        value = np.array(self.model.cauchy(omega))
        if not np.all(np.isfinite(value[~below])):
            raise DomainError("boundary value diverges at a band edge")
        if below.any():
            value[below] -= 2j * np.pi * self.model.density_complex(omega[below])
        return value[()]

    def cut_discontinuity(self, xi):
        """Jump of the self-energy across the cut hung from the threshold.

        The cut runs from the lower support edge mu straight down, and the
        jump from its left side (physical sheet) to its right side (second
        sheet) is -2*pi*i times the continued density at mu - i*xi,
        elementwise in the depth xi >= 0.
        """
        xi = np.asarray(xi, dtype=float)
        if np.any(xi < 0):
            raise DomainError("xi must be nonnegative")
        mu, _ = self.model.support()
        if not np.isfinite(mu):
            raise DomainError("cut discontinuity requires a finite lower support bound")
        val = -2j * np.pi * self.model.density_complex(mu - 1j * np.maximum(xi, 5e-324))
        # a vanishing density at the threshold
        return np.where((xi == 0) & (np.abs(val) < 1e-150), 0j, val)[()]

    def renormalize_below_threshold(self, omega0: float) -> Renormalization:
        """Dressed weight and energy of a level lying below the threshold.

        The shift is Sigma(omega0); the curvature, the integral of
        D / (omega0 - eps)^2, is -Sigma'(omega0).
        """
        omega0 = float(omega0)
        lo, hi = self.model.support()
        if not np.isfinite(lo) or omega0 >= lo:
            raise DomainError("renormalization requires omega0 strictly below a finite threshold")

        def shift(w):
            return complex(self.model.cauchy(w)).real

        # The threshold is a log singularity for a flat band; with the step
        # capped at 1e-3 of the distance to it, the difference stays exact
        # to about 1e-7 however close omega0 lies.
        curvature = -central_difference(shift, omega0, max_step=1e-3 * (lo - omega0))
        z = 1.0 / (1.0 + curvature)
        return Renormalization(Z=z, omega_tilde=omega0 + z * shift(omega0))
