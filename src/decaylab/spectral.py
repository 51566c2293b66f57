"""Spectral-density models D(eps).

Each model evaluates the nonnegative density on the real energy axis,
reports its support interval, (for the analytic variants) continues D
and its derivative into the complex energy plane, and owns the exact
Cauchy transform of D, which is the self-energy of a level coupled to
the continuum, together with the transform's exact derivative and the
moments of D about a complex point, the coefficients of the transform's
large-|omega| expansion:

* Lorentzian: a single pole in the opposite half-plane;
* flat bands (AsymmetricBox, and Box as its symmetric case): a log;
* ThresholdPower: a Gauss hypergeometric function 2F1;
* Tabulated: a sum of per-knot (omega - x) log(omega - x) terms, exact
  for the piecewise-linear interpolant.

Far from a finite support both transforms come instead from one Laurent
series in the model's own moments, at a cost that does not depend on the
model.

Models are immutable after construction and safe to share between
workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import special

from ._blocks import row_blocks
from .config import REQUIRED, did_you_mean, resolve_section
from .errors import DomainError

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


# On a support [c - R, c + R], cauchy(omega) = sum_n mu_n R^n / (omega - c)^(n + 1)
# with mu_n the moments of D about c at scale R, |mu_n| <= W, the weight.  At
# |omega - c| >= 2R the terms from n = K on sum to at most (1/2)^K / (1 - 1/2)
# of W / |omega - c|, 2.8e-17 at K = 56, while |cauchy| >= (2/3) W / |omega - c|
# for a nonnegative D; the derivative's remainder, (K + 2) 2^(1 - K) of
# W / |omega - c|^2, is 1.6e-15.
_FAR_RADIUS = 2.0
_FAR_TERMS = 56


def _as_float_array(eps):
    arr = np.asarray(eps, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("density requires finite real energies")
    return arr


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
        raise DomainError(f"{type(self).__name__} does not support complex continuation")

    # the continuation's z-derivative, elementwise, refused alike where there is none
    density_complex_derivative = density_complex

    def cauchy(self, omega):
        """Cauchy transform: the integral of D(eps) / (omega - eps), elementwise.

        Off the real axis this is the physical-sheet value, in either
        half-plane.  On the real axis it is the boundary value from above,
        whose imaginary part is -pi * D(omega) inside the support; it is
        infinite at a band edge where D does not vanish, and zero for a zero D.
        """
        return self._transform(omega, self._cauchy_closed, 0)

    def cauchy_derivative(self, omega):
        """Derivative of ``cauchy``, -integral of D / (omega - eps)^2, on its conventions."""
        return self._transform(omega, self._cauchy_derivative_closed, 1)

    def _cauchy_closed(self, w):
        """``cauchy`` in closed form on a complex array: the model's exact maths."""
        raise NotImplementedError

    def _cauchy_derivative_closed(self, w):
        """``cauchy_derivative`` in closed form on a complex array."""
        raise NotImplementedError

    def _disc(self):
        """Centre c and half-width R of a finite support [c - R, c + R], else None."""
        lo, hi = self.support()
        if math.isfinite(lo) and math.isfinite(hi):
            return 0.5 * (lo + hi), 0.5 * hi - 0.5 * lo
        return None

    def _transform(self, omega, closed, order):
        # The Laurent series about the centre c of a finite support at
        # |omega - c| >= 2R, the closed form nearer and for an infinite support.
        w = _as_complex_array(omega)
        disc = self._disc()
        if disc is None:
            return closed(w)[()]
        centre, radius = disc
        far = np.abs(w - centre) >= _FAR_RADIUS * radius
        if not far.any():
            return closed(w)[()]
        if far.all():
            # [()] makes a lone point a numpy scalar, whose arithmetic costs
            # a tenth of a 0-d array's
            return self._laurent(radius / (w[()] - centre), radius, order)
        out = np.empty(w.shape, dtype=complex)
        out[far] = self._laurent(radius / (w[far] - centre), radius, order)
        out[~far] = closed(w[~far])
        return out[()]

    @cached_property
    def _laurent_coefficients(self):
        # scaled centre moments, and the derivative's -(n + 1) times them;
        # models are immutable, so they are made once, at the first far point
        centre, radius = self._disc()
        moments = self.moments(centre, _FAR_TERMS, scale=radius)
        return moments, -np.arange(1, _FAR_TERMS + 1) * moments

    def _laurent(self, u, radius, order):
        """sum_n a_n u^n (u / radius)^(order + 1) at u = radius / (omega - c), by Horner's rule.

        Takes an array, summed in place, or a scalar.
        """
        coefficients = self._laurent_coefficients[order]
        total = coefficients[-1] * u
        for a in coefficients[-2:0:-1]:
            total += a
            total *= u
        total += coefficients[0]
        for _ in range(order + 1):
            total *= u
        total /= radius ** (order + 1)
        return total

    def moments(self, z0: complex, k: int, scale: float = 1.0) -> np.ndarray:
        """mu_j = integral of ((eps - z0) / scale)^j D(eps) for j < k, a complex array.

        At scale 1 they are the coefficients of the large-|omega| expansion
        cauchy(omega) = sum_j mu_j / (omega - z0)^(j + 1) above the axis; a
        scale of the support's size keeps high orders finite.
        """
        raise NotImplementedError

    def support(self) -> tuple[float, float]:
        """Tight support interval, possibly unbounded."""
        raise NotImplementedError

    def total_weight(self) -> float:
        """Integral of D over its support: the zeroth moment."""
        return float(self.moments(0.0, 1)[0].real)

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
            raise DomainError("Lorentzian continuation is singular at center ± i*width")
        return (self.amplitude_sq / denom)[()]

    def density_complex_derivative(self, z):
        shifted = np.asarray(z, dtype=complex) - self.center
        return (-2.0 * shifted * self.density_complex(z) / (shifted**2 + self.width**2))[()]

    def _pole_term(self, w):
        # omega minus the pole of D in the half-plane opposite to omega
        return w - self.center + 1j * np.where(w.imag < 0, -1.0, 1.0) * self.width

    def _cauchy_closed(self, w):
        return (np.pi * self.amplitude_sq / self.width) / self._pole_term(w)

    def _cauchy_derivative_closed(self, w):
        return -(np.pi * self.amplitude_sq / self.width) / self._pole_term(w) ** 2

    def moments(self, z0, k, scale=1.0):
        # The real moments diverge; these expand the upper-half-plane
        # W / (omega - center + i width) about z0, a geometric series.
        pole = (complex(self.center, -self.width) - z0) / scale
        return (np.pi * self.amplitude_sq / self.width) * pole ** np.arange(k)

    def support(self):
        return (-np.inf, np.inf)

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
            raise DomainError("continuation undefined at/beyond the real band edges")
        if np.any((z.real < self.lower) | (z.real > self.upper)):
            raise DomainError("continuation is defined on the strip lower <= Re z <= upper")
        return np.full(z.shape, self.amplitude_sq, dtype=complex)[()]

    def density_complex_derivative(self, z):
        # zero on the strip that density_complex checks
        return 0.0 * self.density_complex(z)

    def _cauchy_closed(self, w):
        # A difference of principal logs, not the log of their ratio, gives
        # Im = -pi * A^2 on the upper lip without a special case.  Nearer the
        # band than the far series reaches, the two logs do not cancel.
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self.amplitude_sq * (np.log(w - self.lower) - np.log(w - self.upper))
        # no infinities on the edges of a zero-weight band
        return np.where(self.amplitude_sq > 0, out, 0j)

    def _cauchy_derivative_closed(self, w):
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (self.amplitude_sq * (self.lower - self.upper)
                   / ((w - self.lower) * (w - self.upper)))
        return np.where(self.amplitude_sq > 0, out, 0j)

    def moments(self, z0, k, scale=1.0):
        j, z0 = np.arange(1, k + 1), complex(z0)
        return (self.amplitude_sq * scale
                * (((self.upper - z0) / scale) ** j - ((self.lower - z0) / scale) ** j) / j)

    def support(self):
        return (self.lower, self.upper)


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
            raise DomainError("threshold is a branch point of the continuation")
        return (self.beta * w**self.exponent)[()]

    def density_complex_derivative(self, z):
        w = np.asarray(z, dtype=complex) - self.threshold
        if np.any(w == 0):
            raise DomainError("threshold is a branch point of the continuation")
        return (self.exponent * self.density_complex(z) / w)[()]

    def _cauchy_closed(self, omega):
        # beta * S^a / (a * w) * 2F1(1, a; a + 1; S / w) with w = omega - mu,
        # S = cutoff - mu and a = exponent + 1: the power series in S / w,
        # summed term by term, continued by 2F1 off its cut S / w in (1, inf).
        w = omega - self.threshold
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
        return np.where(self.beta > 0, np.where(w == 0, at_threshold, out), 0j)

    def _cauchy_derivative_closed(self, omega):
        # The series above through d/dz [z 2F1(1, a; a + 1; z)] = 2F1(2, a; a + 1; z):
        # -beta * S^a / (a * w^2) * 2F1(2, a; a + 1; S / w).  The relation
        # w Sigma' = alpha Sigma - beta S^a / (w - S) would cancel near the threshold.
        w = omega - self.threshold
        span, a = self.cutoff - self.threshold, self.exponent + 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            out = -self.beta * span**a / (a * w * w) * special.hyp2f1(2.0, a, a + 1.0, span / w)
        # scipy's value on the cut is again the one from below
        out = np.where((w.imag == 0) & (w.real > 0) & (w.real < span), np.conj(out), out)
        # at the threshold, minus the integral of beta (eps - mu)^(alpha - 2)
        at_threshold = -self.beta * span ** (a - 2.0) / (a - 2.0) if a > 2.0 else -np.inf
        out = np.where(w == 0, at_threshold, np.where(w == span, np.inf, out))
        return np.where(self.beta > 0, out, 0j)

    def moments(self, z0, k, scale=1.0):
        # J_j = integral over [0, S] of x^alpha (x - d)^j, x = eps - mu and
        # d = z0 - mu, by parts: (a + j) J_j = S^a (S - d)^j - j d J_(j-1).
        # Run forward at scale s, each step multiplies the error it inherits
        # by j d / ((a + j) s): below 1 in modulus about the centre at s = S / 2,
        # and elsewhere no faster than J_j / s^j grows, as the largest |x - d|
        # on [0, S], at least |d|.  No binomial sum cancels, no power of s
        # overflows, and S^a past the float range is inf, not OverflowError.
        span, a = self.cutoff - self.threshold, self.exponent + 1.0
        d = complex(z0) - self.threshold
        edges = self.beta * np.float64(span) ** a * ((span - d) / scale) ** np.arange(k)
        out = np.empty(k, dtype=complex)
        previous = 0j
        for j in range(k):
            previous = (edges[j] - j * (d / scale) * previous) / (a + j)
            out[j] = previous
        return out

    def support(self):
        return (self.threshold, self.cutoff)


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
        # the knots where D bends and its slope change there, D being zero-sloped
        # outside; a knot where D runs straight adds nothing to either sum
        kinks = np.diff(np.diff(vals) / np.diff(eps), prepend=0.0, append=0.0)
        self._knots, self._kinks = eps[kinks != 0], kinks[kinks != 0]

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

    def _knot_sum(self, w, ends, knots):
        # ends(omega - x_0, omega - x_n, s) plus the row sums knots(Re u, Im u,
        # Re log v, arg v) over the bent knots, u = omega - x and v = u s, in real
        # parts (10x faster than a complex log).  Each log u is taken as log v:
        # the dropped log(1/s) multiplies sums that vanish, the kinks' own and
        # y_0 - y_n + sum kink u.  s = 1/(omega - c) outside the disc
        # |omega - c| <= R, so that no knot term carries the log common to all and
        # they stop cancelling; there u and omega - c lie on one side of the
        # support, so arg v never wraps.  Inside, where omega = c can be, s = 1/R.
        centre, radius = self._disc()
        flat = w.ravel()
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.where(np.abs(flat - centre) > radius, 1.0 / (flat - centre), 1.0 / radius)
            out = ends(flat - self._eps[0], flat - self._eps[-1], s)
            for rows in row_blocks(flat.size, self._knots.size):
                ui, sr, si = flat.imag[rows, None], s.real[rows, None], s.imag[rows, None]
                ur = flat.real[rows, None] - self._knots
                # |v|^2 at least the smallest normal, so that u log v is 0 at u = 0
                log_v = 0.5 * np.log(np.maximum((ur * ur + ui * ui) * (sr * sr + si * si),
                                                np.finfo(float).tiny))
                arg_v = np.arctan2(ur * si + ui * sr, ur * sr - ui * si)
                out[rows] += knots(ur, ui[:, 0], log_v, arg_v)
        return out.reshape(w.shape)

    def _cauchy_closed(self, w):
        # Two integrations by parts against g(eps) = (omega - eps) log(omega - eps),
        # whose second derivative is 1/(omega - eps), leave the end values
        # and the slope changes of the piecewise-linear D:
        #   y_0 (log(omega - x_0) + 1) - y_n (log(omega - x_n) + 1)
        #   + sum_k kink_k (omega - x_k) log(omega - x_k),
        # the last as sum kink (Re u log|v| - Im u arg v) + i sum kink (Re u arg v
        # + Im u log|v|).
        y, kinks = self._vals, self._kinks
        return self._knot_sum(
            w,
            lambda u0, un, s: (special.xlogy(y[0], u0 * s) - special.xlogy(y[-1], un * s)
                               + (y[0] - y[-1])),
            lambda ur, ui, log_v, arg_v: ((ur * log_v) @ kinks - ui * (arg_v @ kinks)
                                          + 1j * ((ur * arg_v) @ kinks + ui * (log_v @ kinks))))

    def _cauchy_derivative_closed(self, w):
        # The sum above term by term; the kinks sum to zero, which drops each
        # +1.  A zero end value adds nothing, even at its own knot; at an end
        # where D does not vanish, its pole outweighs the log there, and at a
        # bent knot the log is infinite.
        x, y = self._eps, self._vals
        out = self._knot_sum(
            w, lambda u0, un, s: (np.where(y[0] > 0, y[0] / u0, 0)
                                  - np.where(y[-1] > 0, y[-1] / un, 0)),
            lambda ur, ui, log_v, arg_v: log_v @ self._kinks + 1j * (arg_v @ self._kinks))
        singular = ((w == x[0]) & (y[0] > 0) | (w == x[-1]) & (y[-1] > 0)
                    | np.isin(w, self._knots))
        return np.where(singular, np.inf, out)

    def moments(self, z0, k, scale=1.0):
        # On each segment D (eps - z0)^j is a polynomial of degree j + 1 <= k,
        # which Gauss-Legendre with (k + 2) // 2 nodes integrates exactly.
        nodes, weights = np.polynomial.legendre.leggauss((k + 2) // 2)
        half = 0.5 * np.diff(self._eps)[:, None]
        frac = 0.5 * (1.0 + nodes)
        eps = self._eps[:-1, None] + 2.0 * half * frac
        term = (half * weights * (self._vals[:-1, None] * (1.0 - frac)
                                  + self._vals[1:, None] * frac)).astype(complex).ravel()
        shifted = (eps.ravel() - z0) / scale
        out = np.empty(k, dtype=complex)
        for j in range(k):
            out[j] = term.sum()
            term *= shifted
        return out

    def support(self):
        return (float(self._eps[0]), float(self._eps[-1]))

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
