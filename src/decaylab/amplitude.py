"""Survival amplitude of the discrete state by several independent routes.

* direct numerical inversion of the Laplace-Fourier transform along a
  horizontal contour above the real axis,
* the residue-plus-branch-cut decomposition built from the second-sheet
  pole and the threshold cut integral,
* closed forms for the two exactly solvable models (Lorentzian density
  and the wide flat band).

The cut integral is one fixed exp-sinh rule (Takahasi & Mori 1974) in the
depth below the threshold, shared by all times; twice its step bounds the error.

The numeric inversion subtracts the free propagator pole analytically,
so the quadrature only sees a smooth difference that decays like the
inverse cube of frequency, and the subtracted part is restored exactly.
Its sum over N uniform contour nodes at M times is a chirp-z transform
when the times are uniform too: split into blocks of 4096 nodes, each
block is one Bluestein FFT convolution (Rabiner, Schafer & Rader 1969),
O((N + M) log) in place of the O(N M) direct sum, which stays for
non-uniform time grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sfft, special

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


# Nodes per chirp-z block, and complex elements per batch of blocks (4 MB).
_CZT_BLOCK = 4096
_BATCH_ELEMENTS = 1 << 18
# Exp-sinh nodes exp(pi/2 sinh(k h)) for |k h| <= 4.5, h = 1/64: 2e-31 to 5e30.
# Column 0 weights the rule at step h, column 1 the rule at 2h (even k only).
_DE_KH = np.arange(-288, 289) / 64
_DE_NODES = np.exp(0.5 * np.pi * np.sinh(_DE_KH))
_DE_WEIGHTS = np.outer(np.pi / 128 * np.cosh(_DE_KH) * _DE_NODES, [1.0, 2.0])
_DE_WEIGHTS[1::2, 1] = 0.0
# Times count as uniform when max_k |t_k - (t0 + k dt)| * max_j |x_j|, the
# largest phase error of treating them as such, is at most this.
_UNIFORM_PHASE = 1e-10


def _time_transform(f: np.ndarray, omega_max: float,
                    times: np.ndarray) -> tuple[np.ndarray, str]:
    """Sum_j f_j exp(-i x_j t_k) on x = linspace(-omega_max, omega_max, f.size).

    Uniform times take the blocked chirp-z transform, any other grid the
    direct O(N M) sum.  Returns the sums and the name of the route taken.
    """
    m = times.size
    dt = (times[-1] - times[0]) / max(m - 1, 1)
    if np.max(np.abs(times - (times[0] + dt * np.arange(m)))) * omega_max > _UNIFORM_PHASE:
        x = np.linspace(-omega_max, omega_max, f.size)
        rows = max(1, _BATCH_ELEMENTS // m)
        return sum(f[s:s + rows] @ np.exp(-1j * np.outer(x[s:s + rows], times))
                   for s in range(0, f.size, rows)), "direct"
    # linspace's own step; x[1] - x[0] loses digits to cancellation (~1e-10 at 4e6 nodes)
    h = 2.0 * omega_max / (f.size - 1)
    return _chirp_z(f, -omega_max, h, times, dt), "chirp_z"


def _chirp_z(f: np.ndarray, x0: float, h: float, times: np.ndarray,
             dt: float) -> np.ndarray:
    """Sum_j f_j exp(-i (x0 + j h) t_k) at t_k = times[0] + k dt, by blocked Bluestein.

    Node j = bL + n splits the phase into the block start's x_b t_k, taken
    directly, n h t0 and theta n k with theta = h dt.  Bluestein's
    n k = (n^2 + k^2 - (k - n)^2) / 2 makes each block's sum over n one
    FFT convolution, O((L + M) log) instead of O(L M).  The chirps are
    built from exact integer squares, never from a rounded power.
    """
    L, m = _CZT_BLOCK, times.size
    n, k = np.arange(L), np.arange(m)
    theta = h * dt
    nfft = sfft.next_fast_len(L + m - 1)
    pre = np.exp(-1j * h * times[0] * n) * _chirp(-0.5 * theta, n * n)
    lags = np.zeros(nfft, dtype=complex)      # exp(i theta j^2 / 2), j = -(L-1) .. m-1
    lags[:m] = _chirp(0.5 * theta, k * k)
    lags[nfft - L + 1:] = _chirp(0.5 * theta, n[:0:-1] * n[:0:-1])
    kernel = sfft.fft(lags)
    rows = max(1, _BATCH_ELEMENTS // nfft)
    out = np.zeros(m, dtype=complex)
    for start in range(0, f.size, rows * L):
        seg = f[start:start + rows * L]
        blocks = np.zeros((-(-seg.size // L), L), dtype=complex)
        blocks.reshape(-1)[:seg.size] = seg
        conv = sfft.ifft(sfft.fft(blocks * pre, nfft) * kernel)[:, :m]
        x_b = x0 + h * np.arange(start, start + seg.size, L)
        out += (np.exp(-1j * np.outer(x_b, times)) * conv).sum(axis=0)
    return out * _chirp(-0.5 * theta, k * k)


def _chirp(c: float, squares: np.ndarray) -> np.ndarray:
    """exp(i c s) for integer squares s, split so that c_hi * s is exact for s < 2**33."""
    mantissa, exponent = math.frexp(c)
    c_hi = math.ldexp(round(mantissa * 2**19), exponent - 19)
    return np.exp(1j * c_hi * squares) * np.exp(1j * (c - c_hi) * squares)


def survival_numeric(se: SelfEnergy, omega0: float, times,
                     contour_offset: float | None = None,
                     omega_max: float | None = None,
                     n_points: int | None = None) -> SurvivalSeries:
    """Invert the transform of the dressed propagator along Im omega = offset.

    Composite Simpson quadrature on the truncated contour, applied to the
    dressed-minus-free difference; the free pole contributes its exact
    exponential, which also guarantees A(0) -> 1 as the truncation grows.
    On uniform times (to a phase error of 1e-10) the sum over nodes is the
    blocked chirp-z transform, otherwise the direct sum; ``info["transform"]``
    names the one taken ("chirp_z" or "direct") and ``info["tail_estimate"]``
    bounds the truncated tail.
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
    margin = omega_max - reach
    if not np.isfinite(omega_max) or margin <= 0:
        raise TruncationError("omega_max must be finite and clear the spectral support")
    tail_estimate = growth * weight / (np.pi * margin * margin)  # inf, not OverflowError
    if not tail_estimate <= 1e-4:
        raise TruncationError(
            f"estimated truncated-tail contribution {tail_estimate:.3e} > 1e-4; "
            "increase omega_max or lower the contour")

    if n_points is None:
        # nodes for a step h with h * t_max = 0.08; a coarser step aliases
        needed = 2.0 * omega_max * max(t_max, 1.0) / 0.08
        if not needed <= 4_000_001:
            raise TruncationError(
                f"the default contour needs {needed:.4g} nodes to resolve t = {t_max:g} "
                "with step 0.08 / t, above its cap of 4000001; pass n_points explicitly")
        n_points = max(int(np.ceil(needed)), 20_001)
    n_points = int(n_points)
    if n_points < 3:
        raise DomainError("n_points must be at least 3")
    if n_points % 2 == 0:
        n_points += 1

    h = 2.0 * omega_max / (n_points - 1)
    nodes = np.linspace(-omega_max, omega_max, n_points) + 1j * offset
    sigma = se.sigma_upper_grid(nodes)
    diff = 1.0 / (nodes - omega0 - sigma) - 1.0 / (nodes - omega0)
    w = np.full(n_points, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    f = (1j / (2.0 * np.pi)) * diff * (w * h / 3.0)

    amp, transform = _time_transform(f, omega_max, times)
    amp *= np.exp(offset * times)
    amp += np.exp(-1j * omega0 * times)

    return SurvivalSeries(
        times=times, amplitude=amp, method="numeric_inversion",
        info={"contour_offset": offset, "omega_max": omega_max,
              "n_points": n_points, "tail_estimate": tail_estimate,
              "transform": transform})


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
    rows = max(1, _BATCH_ELEMENTS // _DE_NODES.size)
    fine, coarse = np.vstack([np.exp(-np.outer(t.ravel()[i:i + rows], _DE_NODES)) @ f
                              for i in range(0, t.size, rows)]).T
    err = np.abs(fine - coarse)
    if not np.all(err <= 1e-6 * np.abs(fine) + 1e-13):
        raise QuadratureFailure(f"cut integral error estimate {np.max(err):.3e} too large")
    return (np.exp(-1j * mu * t) / (2.0 * np.pi) * fine.reshape(t.shape))[()]


def tail_asymptote(beta_th: float, alpha: float, mu: float, omega0: float,
                   sigma_at_mu: complex, t: float) -> complex:
    """Leading long-time power law of the cut contribution.

    Closed form: beta * exp(-i*mu*t) * (-i)^(alpha+1) * Gamma(alpha+1)
    / ((mu - omega0 - Sigma(mu))^2 * t^(alpha+1)), principal branch of
    the power of -i.
    """
    t = float(t)
    if t <= 0:
        raise DomainError("tail asymptote requires t > 0")
    h_mu = mu - omega0 - sigma_at_mu
    if abs(h_mu) < 1e-12:
        raise SingularDenominator("threshold denominator mu - omega0 - Sigma(mu) vanishes")
    phase = np.exp(-1j * (alpha + 1.0) * np.pi / 2.0)
    return (beta_th * np.exp(-1j * mu * t) * phase * special.gamma(alpha + 1.0)
            / (h_mu**2 * t ** (alpha + 1.0)))


def survival_pole_cut(se: SelfEnergy, omega0: float, times) -> SurvivalSeries:
    """Residue exponential plus the branch-cut correction.

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
