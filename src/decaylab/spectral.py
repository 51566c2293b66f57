"""Spectral-density models D(eps).

Each model evaluates the nonnegative density on the real energy axis,
reports its support interval, (for the analytic variants) continues D
and its derivative into the complex energy plane, and owns the exact
Cauchy transform of D, which is the self-energy of a level coupled to
the continuum, together with the transform's exact derivative:

* Lorentzian: a single pole in the opposite half-plane;
* flat bands (AsymmetricBox, and Box as its symmetric case): a log;
* ThresholdPower: a Gauss hypergeometric function 2F1;
* Tabulated: a sum of per-knot (omega - x) log(omega - x) terms, exact
  for the piecewise-linear interpolant.

Models are immutable after construction and safe to share between
workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import special

from ._blocks import row_blocks
from .config import REQUIRED, did_you_mean, resolve_section
from .errors import BranchPointError, DomainError, UnsupportedContinuation

__all__ = [
    "SpectralModel",
    "Lorentzian",
    "Box",
    "AsymmetricBox",
    "ThresholdPower",
    "Tabulated",
    "MODEL_TYPES",
    "model_keys",
    "model_from_config",
]


def _as_float_array(eps):
    arr = np.asarray(eps, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("density requires finite real energies")
    return arr


def _log1p(u):
    """Real and imaginary parts of log(1 + u) for complex u, to full
    relative accuracy at small |u|.

    numpy's complex log1p forms 1 + u first and loses the digits of small u.
    """
    x, y = u.real, u.imag
    return 0.5 * np.log1p(x * (2.0 + x) + y * y), np.arctan2(y, 1.0 + x)


def _as_complex_array(omega):
    # Adding +0j turns a -0.0 imaginary part into +0.0, so that every real
    # omega is read as omega + i0 by the principal-branch logs.
    return np.asarray(omega, dtype=complex) + 0j


class SpectralModel:
    """Common interface of all spectral-density variants."""

    def density(self, eps):
        """D(eps) on the real axis; exactly zero outside the support."""
        raise NotImplementedError

    def density_complex(self, z):
        """Analytic continuation of D at complex z (principal branch), elementwise."""
        raise UnsupportedContinuation(
            f"{type(self).__name__} does not support complex continuation"
        )

    # the continuation's z-derivative, elementwise, refused alike where there is none
    density_complex_derivative = density_complex

    def cauchy(self, omega):
        """Cauchy transform: the integral of D(eps) / (omega - eps), elementwise.

        Off the real axis this is the physical-sheet value, in either
        half-plane.  On the real axis it is the boundary value from above,
        whose imaginary part is -pi * D(omega) inside the support; it is
        infinite at a band edge where D does not vanish, and zero for a zero D.
        """
        raise NotImplementedError

    def cauchy_derivative(self, omega):
        """Derivative of ``cauchy``, -integral of D / (omega - eps)^2, on its conventions."""
        raise NotImplementedError

    def support(self) -> tuple[float, float]:
        """Tight support interval, possibly unbounded."""
        raise NotImplementedError

    def total_weight(self) -> float:
        """Integral of D over its support."""
        raise NotImplementedError

    def char_width(self) -> float:
        """Characteristic energy width used for numerical scale choices: the support's."""
        lo, hi = self.support()
        return hi - lo

    def breakpoints(self) -> tuple[float, ...]:
        """Interior points where D is not smooth or peaks (quadrature hints)."""
        return ()


@dataclass(frozen=True)
class Lorentzian(SpectralModel):
    """D(eps) = A^2 / ((eps - center)^2 + width^2), supported on the whole line."""

    amplitude_sq: float
    center: float = 0.0
    width: float = 1.0

    def __post_init__(self):
        if self.width <= 0:
            raise DomainError("Lorentzian width must be positive")
        if self.amplitude_sq < 0:
            raise DomainError("amplitude_sq must be nonnegative")

    def density(self, eps):
        eps = _as_float_array(eps)
        out = self.amplitude_sq / ((eps - self.center) ** 2 + self.width**2)
        return out[()]

    def density_complex(self, z):
        z = np.asarray(z, dtype=complex)
        denom = (z - self.center) ** 2 + self.width**2
        if np.any(denom == 0):
            raise BranchPointError("Lorentzian continuation is singular at center ± i*width")
        return (self.amplitude_sq / denom)[()]

    def density_complex_derivative(self, z):
        shifted = np.asarray(z, dtype=complex) - self.center
        return (-2.0 * shifted * self.density_complex(z) / (shifted**2 + self.width**2))[()]

    def _pole_term(self, omega):
        # omega minus the pole of D in the half-plane opposite to omega
        w = _as_complex_array(omega)
        return w - self.center + 1j * np.where(w.imag < 0, -1.0, 1.0) * self.width

    def cauchy(self, omega):
        return ((np.pi * self.amplitude_sq / self.width) / self._pole_term(omega))[()]

    def cauchy_derivative(self, omega):
        return (-(np.pi * self.amplitude_sq / self.width) / self._pole_term(omega) ** 2)[()]

    def support(self):
        return (-np.inf, np.inf)

    def total_weight(self):
        return np.pi * self.amplitude_sq / self.width

    def char_width(self):
        return self.width

    def breakpoints(self):
        return (self.center,)


@dataclass(frozen=True)
class AsymmetricBox(SpectralModel):
    """Flat density A^2 on (lower, upper), zero outside."""

    amplitude_sq: float
    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower < self.upper:
            raise DomainError("AsymmetricBox requires lower < upper")
        if self.amplitude_sq < 0:
            raise DomainError("amplitude_sq must be nonnegative")

    def density(self, eps):
        eps = _as_float_array(eps)
        out = np.where((eps > self.lower) & (eps < self.upper), self.amplitude_sq, 0.0)
        return out[()]

    def density_complex(self, z):
        # The interior value continues as a constant through the strip
        # lower <= Re z <= upper (off the real axis); the real edge points
        # are the branch points of the induced self-energy.
        z = np.asarray(z, dtype=complex)
        if np.any((z.imag == 0) & ((z.real <= self.lower) | (z.real >= self.upper))):
            raise BranchPointError("continuation undefined at/beyond the real band edges")
        if np.any((z.real < self.lower) | (z.real > self.upper)):
            raise DomainError("continuation is defined on the strip lower <= Re z <= upper")
        return np.full(z.shape, self.amplitude_sq, dtype=complex)[()]

    def density_complex_derivative(self, z):
        # zero on the strip that density_complex checks
        return 0.0 * self.density_complex(z)

    def cauchy(self, omega):
        # Near the band, a difference of principal logs, not the log of their
        # ratio, gives Im = -pi * A^2 on the upper lip without a special case.
        # Far from it the two logs cancel, so there the same function is taken
        # as log1p(u), u = (upper - lower)/(omega - upper): off the real
        # segment both are analytic and vanish at infinity.  "Far" is
        # |u| < 1/2, which never reaches the segment, where |u| >= 1.
        w = _as_complex_array(omega)
        width = self.upper - self.lower
        far = np.abs(w - self.upper) > 2.0 * width
        out = np.empty(w.shape, dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            out.real[far], out.imag[far] = _log1p(width / (w[far] - self.upper))
            near = w[~far]
            out[~far] = np.log(near - self.lower) - np.log(near - self.upper)
            out *= self.amplitude_sq
        if self.amplitude_sq == 0:
            out.fill(0.0)      # no infinities on the edges of a zero-weight band
        return out[()]

    def cauchy_derivative(self, omega):
        w = _as_complex_array(omega)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (self.amplitude_sq * (self.lower - self.upper)
                   / ((w - self.lower) * (w - self.upper)))
        return np.where(self.amplitude_sq > 0, out, 0j)[()]

    def support(self):
        return (self.lower, self.upper)

    def total_weight(self):
        return (self.upper - self.lower) * self.amplitude_sq


@dataclass(frozen=True)
class Box(AsymmetricBox):
    """Flat density: A^2 for |eps| < half_width, zero outside."""

    lower: float = field(init=False, repr=False)
    upper: float = field(init=False, repr=False)
    half_width: float

    def __post_init__(self):
        if self.half_width <= 0:
            raise DomainError("Box half_width must be positive")
        object.__setattr__(self, "lower", -self.half_width)
        object.__setattr__(self, "upper", self.half_width)
        super().__post_init__()


@dataclass(frozen=True)
class ThresholdPower(SpectralModel):
    """D(eps) = beta * (eps - threshold)^exponent on [threshold, cutoff].

    The exponent must exceed -1 so the density is integrable at the
    threshold; the hard upper cutoff keeps the self-energy finite.
    """

    beta: float
    exponent: float
    threshold: float
    cutoff: float

    def __post_init__(self):
        if self.exponent <= -1:
            raise DomainError("exponent must be > -1 for an integrable threshold")
        if not self.cutoff > self.threshold:
            raise DomainError("cutoff must exceed threshold")
        if self.beta < 0:
            raise DomainError("beta must be nonnegative")

    def density(self, eps):
        eps = _as_float_array(eps)
        inside = (eps >= self.threshold) & (eps <= self.cutoff)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = self.beta * np.power(np.maximum(eps - self.threshold, 0.0), self.exponent)
        out = np.where(inside, vals, 0.0)
        return out[()]

    def density_complex(self, z):
        # Principal branch of (z - threshold)^exponent, cut along
        # (-inf, threshold) on the real axis.  The hard cutoff is not part
        # of the continued local form.  An integer exponent has no branch
        # point there: numpy's complex power gives 0**0 = 1 and 0**n = 0.
        w = np.asarray(z, dtype=complex) - self.threshold
        if np.any(w == 0) and not (self.exponent >= 0 and self.exponent == int(self.exponent)):
            raise BranchPointError("threshold is a branch point of the continuation")
        return (self.beta * w**self.exponent)[()]

    def density_complex_derivative(self, z):
        w = np.asarray(z, dtype=complex) - self.threshold
        if np.any(w == 0):
            raise BranchPointError("threshold is a branch point of the continuation")
        return (self.exponent * self.density_complex(z) / w)[()]

    def cauchy(self, omega):
        # beta * S^a / (a * w) * 2F1(1, a; a + 1; S / w) with w = omega - mu,
        # S = cutoff - mu and a = exponent + 1: the power series in S / w,
        # summed term by term, continued by 2F1 off its cut S / w in (1, inf).
        w = _as_complex_array(omega) - self.threshold
        span = self.cutoff - self.threshold
        a = self.exponent + 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self.beta * span**a / (a * w) * special.hyp2f1(1.0, a, a + 1.0, span / w)
            # On the cut (real omega inside the support) scipy returns the
            # value from below; both sides share the real part.
            inside = (w.imag == 0) & (w.real > 0) & (w.real < span)
            out = np.where(inside, out.real - 1j * np.pi * self.beta
                           * np.abs(w.real) ** self.exponent, out)
        at_threshold = (-self.beta * span**self.exponent / self.exponent
                        if self.exponent > 0 else -np.inf)
        return np.where(self.beta > 0, np.where(w == 0, at_threshold, out), 0j)[()]

    def cauchy_derivative(self, omega):
        # The series above through d/dz [z 2F1(1, a; a + 1; z)] = 2F1(2, a; a + 1; z):
        # -beta * S^a / (a * w^2) * 2F1(2, a; a + 1; S / w).  The relation
        # w Sigma' = alpha Sigma - beta S^a / (w - S) would cancel near the threshold.
        w = _as_complex_array(omega) - self.threshold
        span, a = self.cutoff - self.threshold, self.exponent + 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            out = -self.beta * span**a / (a * w * w) * special.hyp2f1(2.0, a, a + 1.0, span / w)
        # scipy's value on the cut is again the one from below
        out = np.where((w.imag == 0) & (w.real > 0) & (w.real < span), np.conj(out), out)
        # at the threshold, minus the integral of beta (eps - mu)^(alpha - 2)
        at_threshold = -self.beta * span ** (a - 2.0) / (a - 2.0) if a > 2.0 else -np.inf
        out = np.where(w == 0, at_threshold, np.where(w == span, np.inf, out))
        return np.where(self.beta > 0, out, 0j)[()]

    def support(self):
        return (self.threshold, self.cutoff)

    def total_weight(self):
        span = self.cutoff - self.threshold
        return self.beta * span ** (self.exponent + 1.0) / (self.exponent + 1.0)


class Tabulated(SpectralModel):
    """Sampled density with linear interpolation, zero outside the samples."""

    def __init__(self, eps, values):
        eps = np.asarray(eps, dtype=float)
        vals = np.asarray(values, dtype=float)
        if eps.ndim != 1 or eps.shape != vals.shape or eps.size < 2:
            raise DomainError("Tabulated model needs matching 1-d eps/values arrays (>= 2 samples)")
        if not (np.all(np.isfinite(eps)) and np.all(np.isfinite(vals))):
            raise DomainError("Tabulated energies and density values must be finite")
        if np.any(np.diff(eps) <= 0):
            raise DomainError("Tabulated energies must be strictly increasing")
        if np.any(vals < 0):
            raise DomainError("Tabulated density values must be nonnegative")
        self._eps = eps
        self._vals = vals
        # slope change at each knot, the density being zero-sloped outside
        self._kinks = np.diff(np.diff(vals) / np.diff(eps), prepend=0.0, append=0.0)

    @classmethod
    def from_csv(cls, path: str) -> "Tabulated":
        """Read an `epsilon,D` CSV whose first line is a header."""
        try:
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except (OSError, ValueError) as exc:
            raise DomainError(f"cannot read density table {path}: {exc}") from None
        if data.shape[1] < 2:
            raise DomainError(f"density table {path} needs epsilon and D columns")
        return cls(eps=data[:, 0], values=data[:, 1])

    def __repr__(self):
        return f"Tabulated(n={self._eps.size}, span=({self._eps[0]}, {self._eps[-1]}))"

    def density(self, eps):
        eps = _as_float_array(eps)
        out = np.interp(eps, self._eps, self._vals)
        # np.interp clamps to the end values; force exact zero outside support
        out = np.where((eps < self._eps[0]) | (eps > self._eps[-1]), 0.0, out)
        return out[()]

    def _knot_sum(self, omega, ends, knots):
        # ends(omega - x_0, omega - x_n) plus the row sums knots(omega - x)
        w = _as_complex_array(omega)
        x = self._eps
        flat = w.ravel()
        with np.errstate(divide="ignore", invalid="ignore"):
            out = ends(flat - x[0], flat - x[-1])
            for rows in row_blocks(flat.size, x.size):
                # u lives until the next block's is made: freeing it at once
                # measured about 20 % slower on a 200-knot table
                u = flat[rows, None] - x
                out[rows] += knots(u)
        return out.reshape(w.shape)[()]

    def cauchy(self, omega):
        # Two integrations by parts against g(eps) = (omega - eps) log(omega - eps),
        # whose second derivative is 1/(omega - eps), leave the end values
        # and the slope changes of the piecewise-linear D:
        #   y_0 (log(omega - x_0) + 1) - y_n (log(omega - x_n) + 1)
        #   + sum_k kink_k (omega - x_k) log(omega - x_k).
        y = self._vals
        return self._knot_sum(
            omega,
            lambda u0, un: special.xlogy(y[0], u0) - special.xlogy(y[-1], un) + (y[0] - y[-1]),
            lambda u: special.xlogy(u, u) @ self._kinks)

    def cauchy_derivative(self, omega):
        # The sum above term by term; the kinks sum to zero, which drops each
        # +1.  A zero end value or kink adds nothing, even at its own knot; at
        # an end where D does not vanish, its pole outweighs the log there.
        x, y, w = self._eps, self._vals, np.asarray(omega)
        out = self._knot_sum(
            omega, lambda u0, un: (np.where(y[0] > 0, y[0] / u0, 0)
                                   - np.where(y[-1] > 0, y[-1] / un, 0)),
            lambda u: special.xlogy(self._kinks, u).sum(axis=1))
        return np.where((w == x[0]) & (y[0] > 0) | (w == x[-1]) & (y[-1] > 0), np.inf, out)[()]

    def support(self):
        return (float(self._eps[0]), float(self._eps[-1]))

    def total_weight(self):
        return float(np.trapezoid(self._vals, self._eps))

    def breakpoints(self):
        return tuple(self._eps[1:-1])


# config `model.type` -> (constructor, {config key: (argument, type, default)})
MODEL_TYPES = {
    "lorentzian": (Lorentzian, {"A2": ("amplitude_sq", float, REQUIRED),
                                "a": ("center", float, 0.0),
                                "b": ("width", float, REQUIRED)}),
    "box": (Box, {"A2": ("amplitude_sq", float, REQUIRED),
                  "L": ("half_width", float, REQUIRED)}),
    "asymmetricbox": (AsymmetricBox, {"A2": ("amplitude_sq", float, REQUIRED),
                                      "L_minus": ("lower", float, REQUIRED),
                                      "L_plus": ("upper", float, REQUIRED)}),
    "thresholdpower": (ThresholdPower, {"beta_th": ("beta", float, REQUIRED),
                                        "alpha": ("exponent", float, REQUIRED),
                                        "mu": ("threshold", float, REQUIRED),
                                        "Lambda": ("cutoff", float, REQUIRED)}),
    "tabulated": (Tabulated.from_csv, {"table_path": ("path", str, REQUIRED)}),
}


def model_keys(block: dict) -> dict:
    """Schema of a config-file `model` block, {key: (type, default)}, by its type."""
    if "type" not in block:
        raise DomainError("model block is missing the 'type' key")
    kind = str(block["type"]).lower()
    if kind not in MODEL_TYPES:
        raise DomainError(did_you_mean("spectral model type", kind, MODEL_TYPES))
    return {"type": (str, REQUIRED),
            **{key: spec[1:] for key, spec in MODEL_TYPES[kind][1].items()}}


def model_from_config(block: dict) -> SpectralModel:
    """Build a model from a config-file `model` block."""
    values = resolve_section("model", block, model_keys(block))
    factory, keys = MODEL_TYPES[values["type"].lower()]
    return factory(**{arg: values[key] for key, (arg, _, _) in keys.items()})
