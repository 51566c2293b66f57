"""Self-energy of the discrete state.

The physical-sheet function is the Cauchy integral of the spectral
density over its support, which every model evaluates exactly and
vectorized as ``model.cauchy``.  Crossing the real axis from above
continues it onto the second sheet by subtracting 2*pi*i times the
analytically continued density.  Adaptive quadrature of the same
integrals is kept only as an independent reference
(``force_quadrature=True``); the quadrature settings steer nothing else.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import DomainError, QuadratureFailure
from .spectral import SpectralModel

__all__ = ["SelfEnergy", "Renormalization", "central_difference"]


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


class SelfEnergy:
    """Evaluator of the level shift-and-width function of a spectral model.

    Immutable after construction; all evaluations are pure.
    """

    def __init__(self, model: SpectralModel, quad_tol: float = 1e-10,
                 max_subdiv: int = 10_000, eta: float | None = None):
        self.model = model
        self.quad_tol = float(quad_tol)
        self.max_subdiv = int(max_subdiv)
        self.eta = float(eta) if eta is not None else 1e-9 * model.char_width()
        if self.quad_tol <= 0 or self.max_subdiv < 10 or self.eta <= 0:
            raise DomainError("invalid quadrature settings")

    # -- basic quadrature plumbing -------------------------------------

    def _quad(self, f, a, b, points=None):
        kwargs = dict(epsabs=self.quad_tol, epsrel=1e-9,
                      limit=self.max_subdiv, complex_func=True)
        if points is not None and np.isfinite(a) and np.isfinite(b):
            pts = [p for p in points if a < p < b]
            if pts:
                kwargs["points"] = pts
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            val, err = integrate.quad(f, a, b, **kwargs)
        if not np.isfinite(val):
            raise QuadratureFailure(f"integral over ({a}, {b}) is not finite")
        if abs(err) > max(1e4 * self.quad_tol, 1e-7 * max(1.0, abs(val))):
            raise QuadratureFailure(
                f"estimated quadrature error {abs(err):.3e} exceeds tolerance")
        return complex(val)

    def weight(self) -> float:
        """Total integrated density."""
        return self.model.total_weight()

    # -- physical sheet ------------------------------------------------

    def sigma_physical(self, omega: complex) -> complex:
        """Cauchy integral of the density at Im omega != 0 (either sign)."""
        omega = complex(omega)
        if omega.imag == 0:
            raise DomainError("sigma_physical requires Im omega != 0; "
                              "use sigma_upper for boundary values")
        return complex(self.model.cauchy(omega))

    def _sigma_quadrature(self, omega: complex) -> complex:
        """Adaptive quadrature of model.cauchy(omega), with its conventions."""
        lo, hi = self.model.support()
        dens = self.model.density
        points = self.model.breakpoints()
        x = omega.real
        if not lo < x < hi:
            return self._quad(lambda e: dens(e) / (omega - e), lo, hi, points=points)
        if omega.imag == 0:
            return self._principal_value(x) - 1j * np.pi * float(dens(x))
        # On a window around Re omega, narrower than the support, the pole's
        # spike can slip between quadrature nodes when it sits near the
        # axis.  There subtract the flat density D(Re omega), whose integral
        # is the exact band logarithm, and integrate the bounded remainder.
        width = self.model.char_width()
        a, b = max(lo, x - width / 4), min(hi, x + width / 4)
        d0 = float(dens(x)) if abs(omega.imag) < 0.01 * width else 0.0
        total = d0 * np.log((omega - a) / (omega - b))
        # Every finite edge splits the range, so that the pole and the
        # density's structure lie in finite pieces, not in an infinite tail.
        edges = sorted({lo, hi, a, b, x, *points})
        for start, stop in zip(edges[:-1], edges[1:]):
            flat = d0 if a <= start and stop <= b else 0.0
            total += self._quad(lambda e: (dens(e) - flat) / (omega - e), start, stop)
        return total

    def sigma_panel_rule(self, omega: complex) -> complex:
        """Same as sigma_physical.

        The fixed panel rule this name once selected is gone; the name
        stays because the benchmark's tracer (bench/spans.py) wraps it.
        """
        return self.sigma_physical(omega)

    def _principal_value(self, w: float) -> complex:
        """PV integral of D(e)/(w - e) with a symmetric window around w."""
        m = self.model
        lo, hi = m.support()
        delta = min(w - lo, hi - w, m.char_width())
        dens = m.density
        total = self._quad(lambda u: (dens(w - u) - dens(w + u)) / u, 0.0, delta)
        if lo < w - delta:
            total += self._quad(lambda e: dens(e) / (w - e), lo, w - delta,
                                points=m.breakpoints())
        if w + delta < hi:
            total += self._quad(lambda e: dens(e) / (w - e), w + delta, hi,
                                points=m.breakpoints())
        return total

    def sigma_upper(self, omega: complex, force_quadrature: bool = False) -> complex:
        """Self-energy on the physical sheet for Im omega >= 0.

        Real omega returns the boundary value from above, whose imaginary
        part is -pi * D(omega) inside the support.
        """
        omega = complex(omega)
        if omega.imag < 0:
            raise DomainError("sigma_upper requires Im omega >= 0")
        if force_quadrature:
            return self._sigma_quadrature(omega)
        value = complex(self.model.cauchy(omega))
        if not np.isfinite(value):
            raise DomainError("boundary value diverges at a band edge")
        return value

    # -- second sheet ----------------------------------------------------

    def sigma_continued(self, omega: complex, force_quadrature: bool = False) -> complex:
        """Second-sheet self-energy, continuous across the support interior.

        For Im omega >= 0 this coincides with the physical sheet; below the
        axis it subtracts 2*pi*i times the continued density.  Defined for
        every omega where the model's continuation exists, so root finders
        may cross the axis freely.
        """
        omega = complex(omega)
        if omega.imag >= 0:
            return self.sigma_upper(omega, force_quadrature=force_quadrature)
        base = self._sigma_quadrature(omega) if force_quadrature else self.sigma_physical(omega)
        return base - 2j * np.pi * self.model.density_complex(omega)

    def cut_discontinuity(self, xi: float, verify: bool = False) -> complex:
        """Jump of the self-energy across the cut hung from the threshold.

        Returns -2*pi*i times the continued density evaluated a distance
        xi up the imaginary direction from the lower support edge.  With
        ``verify=True`` the jump is instead measured directly as the
        difference of the two one-sided evaluations at depth xi below the
        threshold (offset by eta on either side of the vertical line).
        """
        xi = float(xi)
        if xi < 0:
            raise DomainError("xi must be nonnegative")
        mu, _ = self.model.support()
        if not np.isfinite(mu):
            raise DomainError("cut discontinuity requires a finite lower support bound")
        if verify:
            if xi <= 0:
                raise DomainError("two-sided verification requires xi > 0")
            w = mu - 1j * xi
            right = self.sigma_continued(w + self.eta)
            left = self.sigma_physical(w - self.eta)
            return right - left
        z = mu + 1j * max(xi, 5e-324)
        val = -2j * np.pi * self.model.density_complex(z)
        if xi == 0 and abs(val) < 1e-150:
            return 0j  # vanishing density at the threshold
        return val

    # -- bound state below threshold ------------------------------------

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

    # -- vectorized contour evaluation -----------------------------------

    def sigma_upper_grid(self, omegas: np.ndarray) -> np.ndarray:
        """Physical-sheet self-energy on an array of points off the real axis.

        Used by the Laplace-Fourier inversion, which needs the integrand
        on many contour nodes at once.
        """
        omegas = np.asarray(omegas, dtype=complex)
        if np.any(omegas.imag == 0):
            raise DomainError("contour nodes must lie off the real axis")
        return self.model.cauchy(omegas)
