"""Survival amplitude of the discrete state by several independent routes.

* direct numerical inversion of the Laplace-Fourier transform along a
  horizontal contour above the real axis,
* the residue-plus-branch-cut decomposition built from ``find_pole``'s
  zero (a resonance, or a bound state) and the threshold cut integral,
* closed forms for the two exactly solvable models (Lorentzian density
  and the wide flat band).

The cut integral is one fixed exp-sinh rule (Takahasi & Mori 1974) in the
depth below the threshold, shared by all times; twice its step bounds the error.

The numeric inversion subtracts the free propagator pole analytically,
so the quadrature only sees a smooth difference that decays like the
inverse cube of frequency, and the subtracted part is restored exactly.
The difference is analytic above the contour, so the trapezoid rule on it
errs only by aliasing, at most 2q/(1 - q) with q = exp(-2 pi offset / h) for
t < 2 pi / h by Poisson summation (Dubner & Abate 1968; Trefethen & Weideman
2014); the default step makes that bound 1e-12.
It takes one pass over the N uniform contour nodes, in stretches of
131,072: each stretch's Sigma and integrand are formed and its time sums
added into A(t), so no array spans the whole contour.  On uniform times
those sums are a chirp-z transform: split into blocks of 4096 nodes, each
block is one Bluestein FFT convolution (Rabiner, Schafer & Rader 1969),
O((N + M) log) in place of the O(N M) direct sum, which stays for
non-uniform time grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sfft, special

from ._blocks import row_blocks
from .errors import (DomainError, QuadratureFailure, SingularDenominator,
                     TruncationError)
from .poles import find_pole, lorentzian_poles
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


# Aliasing bound of the default contour step h = 2 pi offset / ln(2 / eps).
_ALIAS_EPS = 1e-12
# Nodes per chirp-z block; FFT batches, direct-sum batches and the stretches
# of the inversion's one pass over its grid all follow the shared block budget.
_CZT_LEN = 4096
# Exp-sinh nodes exp(pi/2 sinh(k h)) for |k h| <= 4.5, h = 1/64: 2e-31 to 5e30.
# Column 0 weights the rule at step h, column 1 the rule at 2h (even k only).
_DE_KH = np.arange(-288, 289) / 64
_DE_NODES = np.exp(0.5 * np.pi * np.sinh(_DE_KH))
_DE_WEIGHTS = np.outer(np.pi / 128 * np.cosh(_DE_KH) * _DE_NODES, [1.0, 2.0])
_DE_WEIGHTS[1::2, 1] = 0.0
# Times count as uniform when max_k |t_k - (t0 + k dt)| * max_j |x_j|, the
# largest phase error of treating them as such, is at most this.
_UNIFORM_PHASE = 1e-10


def _chirp_z(f: np.ndarray, x0: float, h: float, times: np.ndarray,
             dt: float) -> np.ndarray:
    """Sum_j f_j exp(-i (x0 + j h) t_k) at t_k = times[0] + k dt, by blocked Bluestein.

    Node j = bL + n splits the phase into the block start's x_b t_k, taken
    directly, n h t0 and theta n k with theta = h dt.  Bluestein's
    n k = (n^2 + k^2 - (k - n)^2) / 2 makes each block's sum over n one
    FFT convolution, O((L + M) log) instead of O(L M).  The chirps are
    built from exact integer squares, never from a rounded power.
    """
    L, m = _CZT_LEN, times.size
    n, k = np.arange(L), np.arange(m)
    theta = h * dt
    nfft = sfft.next_fast_len(L + m - 1)
    pre = np.exp(-1j * h * times[0] * n) * _chirp(-0.5 * theta, n * n)
    lags = np.zeros(nfft, dtype=complex)      # exp(i theta j^2 / 2), j = -(L-1) .. m-1
    lags[:m] = _chirp(0.5 * theta, k * k)
    lags[nfft - L + 1:] = _chirp(0.5 * theta, n[:0:-1] * n[:0:-1])
    kernel = sfft.fft(lags)
    blocks = np.zeros((-(-f.size // L), L), dtype=complex)
    blocks.reshape(-1)[:f.size] = f
    x_b = x0 + h * np.arange(0, f.size, L)
    out = np.zeros(m, dtype=complex)
    for rows in row_blocks(x_b.size, nfft):   # blocks per FFT call, so memory stays O(nfft)
        conv = sfft.ifft(sfft.fft(blocks[rows] * pre, nfft) * kernel)[:, :m]
        out += (np.exp(-1j * np.outer(x_b[rows], times)) * conv).sum(axis=0)
    return out * _chirp(-0.5 * theta, k * k)


def _chirp(c: float, squares: np.ndarray) -> np.ndarray:
    """exp(i c s) for integer squares s, split so that c_hi * s is exact for s < 2**33."""
    mantissa, exponent = math.frexp(c)
    c_hi = math.ldexp(round(mantissa * 2**19), exponent - 19)
    return np.exp(1j * c_hi * squares) * np.exp(1j * (c - c_hi) * squares)


def survival_numeric(se: SelfEnergy, omega0: float, times,
                     omega_max: float | None = None,
                     n_points: int | None = None) -> SurvivalSeries:
    """Invert the transform of the dressed propagator along Im omega = offset.

    The trapezoid rule on the truncated contour, applied to the
    dressed-minus-free difference; the free pole contributes its exact
    exponential, which also guarantees A(0) -> 1 as the truncation grows.
    The height is 3/t_max (0.1 of the model's width at t_max = 0), reported
    as ``info["contour_offset"]``.
    ``info["alias_bound"]`` bounds the aliasing (inf if 2 pi / h <= t_max)
    and ``info["tail_estimate"]`` the truncated tail.  On uniform times (to
    a phase error of 1e-10) the sum over nodes is the blocked chirp-z
    transform, otherwise the direct sum; ``info["transform"]`` names the one
    taken ("chirp_z" or "direct").  The amplitude has the shape of ``times``.
    """
    times = _check_times(times)
    omega0 = float(omega0)
    t_max = float(times.max())

    # with h ~ offset the node count grows as exp(offset t_max / 2) / offset
    offset = 3.0 / t_max if t_max > 0 else 0.1 * se.model.char_width()

    weight = se.model.total_weight()
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
        if omega_max <= 0:
            raise DomainError("omega_max must be positive")
    margin = omega_max - reach
    if not np.isfinite(omega_max) or margin <= 0:
        raise TruncationError("omega_max must be finite and clear the spectral support")
    tail_estimate = growth * weight / (np.pi * margin * margin)  # inf, not OverflowError
    if not tail_estimate <= 1e-4:
        raise TruncationError(
            f"estimated truncated-tail contribution {tail_estimate:.3e} > 1e-4; "
            "increase omega_max")

    if n_points is None:
        # 1 + 2 omega_max / h nodes at the default step
        needed = 1.0 + omega_max * math.log(2.0 / _ALIAS_EPS) / (np.pi * offset)
        if not needed <= 4_000_001:
            raise TruncationError(
                f"the default contour needs {needed:.4g} nodes to bound the aliasing by "
                f"{_ALIAS_EPS:g} at t = {t_max:g}, above its cap of 4000001; "
                "pass n_points explicitly")
        n_points = math.ceil(needed)
    n_points = int(n_points)
    if n_points < 2:
        raise DomainError("n_points must be at least 2")

    h = 2.0 * omega_max / (n_points - 1)
    q = math.exp(-2.0 * np.pi * offset / h)
    alias_bound = 2.0 * q / (1.0 - q) if q < 1.0 and 2.0 * np.pi / h > t_max else math.inf
    t = times.ravel()
    m = t.size
    dt = (t[-1] - t[0]) / max(m - 1, 1)
    uniform = np.max(np.abs(t - (t[0] + dt * np.arange(m)))) * omega_max <= _UNIFORM_PHASE
    amp = np.zeros(m, dtype=complex)
    for stretch in row_blocks(n_points, 1):
        j = np.arange(stretch.start, stretch.stop)
        x = j * h - omega_max
        nodes = x + 1j * offset
        f = 1.0 / (nodes - omega0 - se.sigma_upper_grid(nodes)) - 1.0 / (nodes - omega0)
        f *= np.where((j == 0) | (j == n_points - 1), 0.5, 1.0)   # trapezoid end nodes
        if uniform:
            amp += _chirp_z(f, x[0], h, t, dt)
        else:
            for rows in row_blocks(j.size, m):
                amp += f[rows] @ np.exp(-1j * np.outer(x[rows], t))
    # the trapezoid's h and the inversion's i / (2 pi), then the free pole's exact term
    amp *= 1j * h / (2.0 * np.pi) * np.exp(offset * t)
    amp = (amp + np.exp(-1j * omega0 * t)).reshape(times.shape)

    return SurvivalSeries(
        times=times, amplitude=amp, method="numeric_inversion",
        info={"contour_offset": offset, "omega_max": omega_max,
              "n_points": n_points, "alias_bound": alias_bound, "tail_estimate": tail_estimate,
              "transform": "chirp_z" if uniform else "direct"})


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


def cut_integral(se: SelfEnergy, omega0: float, times):
    """Branch-cut contribution to A(t) from the cut hung below the threshold.

    exp(-i mu t) / (2 pi) times the integral over xi > 0 of exp(-xi t) J(xi)
    / ((w - omega0 - Sigma - J)(w - omega0 - Sigma)) at w = mu - i xi, with
    J the sheet jump and Sigma the physical sheet, at a positive time or an
    array of them (same shape out).
    """
    t = np.asarray(times, dtype=float)
    if not np.all((t > 0) & (t < np.inf)):
        raise DomainError("cut_integral requires finite t > 0")
    jump = se.cut_discontinuity(_DE_NODES)
    mu, _ = se.model.support()
    w = mu - 1j * _DE_NODES
    sheet1 = se.sigma_physical(w)
    f = _DE_WEIGHTS * (jump / ((w - omega0 - sheet1 - jump) * (w - omega0 - sheet1)))[:, None]
    fine, coarse = np.vstack([np.exp(-np.outer(t.ravel()[rows], _DE_NODES)) @ f
                              for rows in row_blocks(t.size, _DE_NODES.size)]).T
    err = np.abs(fine - coarse)
    if not np.all(err <= 1e-6 * np.abs(fine) + 1e-13):
        raise QuadratureFailure(f"cut integral error estimate {np.max(err):.3e} too large")
    return (np.exp(-1j * mu * t) / (2.0 * np.pi) * fine.reshape(t.shape))[()]


def tail_asymptote(beta_th: float, alpha: float, mu: float, omega0: float,
                   sigma_at_mu: complex, t):
    """Leading long-time power law of the cut contribution.

    Closed form: beta * exp(-i*mu*t) * (-i)^(alpha+1) * Gamma(alpha+1)
    / ((mu - omega0 - Sigma(mu))^2 * t^(alpha+1)), principal branch of
    the power of -i, at a time t > 0 or an array of them (same shape out).
    """
    t = np.asarray(t, dtype=float)
    if not np.all(t > 0):
        raise DomainError("tail asymptote requires t > 0")
    h_mu = mu - omega0 - sigma_at_mu
    if abs(h_mu) < 1e-12:
        raise SingularDenominator("threshold denominator mu - omega0 - Sigma(mu) vanishes")
    phase = np.exp(-1j * (alpha + 1.0) * np.pi / 2.0)
    return (beta_th * np.exp(-1j * mu * t) * phase * special.gamma(alpha + 1.0)
            / (h_mu**2 * t ** (alpha + 1.0)))[()]


def survival_pole_cut(se: SelfEnergy, omega0: float, times) -> SurvivalSeries:
    """Residue exponential plus the branch-cut correction.

    The pole is ``find_pole``'s zero, a resonance or the bound state of a
    level below the threshold.  The cut from a finite upper edge is left out;
    below the threshold its error is 2.8e-5 / t on ThresholdPower(0.01, 0.5,
    1, 50) at omega0 = 0, 1.2e-2 / t on Box(0.3, 2) at omega0 = -5 (t in [1, 100]).
    At t = 0 the cut term is fixed by completeness (A(0) = 1) instead of
    the divergent-looking integral representation.
    """
    times = _check_times(times)
    omega0 = float(omega0)
    pole = find_pole(se, omega0)
    pole_term = pole.residue * np.exp(-1j * pole.omega * times)
    cut_term = np.full(times.shape, 1.0 - pole.residue, dtype=complex)
    late = times > 0
    if late.any():
        cut_term[late] = cut_integral(se, omega0, times[late])
    return SurvivalSeries(
        times=times, amplitude=pole_term + cut_term, method="pole_cut",
        pole_term=pole_term, cut_term=cut_term,
        info={"pole": pole})
