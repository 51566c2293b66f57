"""Survival amplitude of the discrete state by several independent routes.

* direct numerical inversion of the Laplace-Fourier transform along a
  horizontal contour above the real axis,
* the residue-plus-branch-cut decomposition built from ``find_pole``'s
  zero (a resonance, or a bound state) and the threshold cut integral,
* the two-pole closed form of the Lorentzian density.

``survival_box`` is the wide-band weak-coupling limit of the flat band, a
reference for checks and not a route.

The cut integral is one fixed exp-sinh rule (Takahasi & Mori 1974) in the
depth below the threshold, shared by all times; twice its step bounds the error.

The numeric inversion subtracts the free propagator pole and the first
six terms of the dressed propagator's large-frequency expansion in the
spectral moments, about a point below the axis, so the quadrature only
sees a smooth remainder that decays like the ninth inverse power of
frequency; the subtracted terms are restored by their exact transforms,
and the cutoff is sized from the first omitted term, whose truncated tail
oscillates at t > 0: one integration by parts bounds it by 2 (K+2) / (margin t)
times its size at t = 0.
The remainder is analytic above the contour, so the trapezoid rule on it
errs only by aliasing, at most 2q/(1 - q) with q = exp(-2 pi offset / h) for
t < 2 pi / h by Poisson summation (Dubner & Abate 1968; Trefethen & Weideman
2014); the default step makes that bound 1e-12.  The result is scaled by
exp(offset t), which amplifies the node sum's rounding; the height
offset = sigma / t_max, sigma = ln(1e-12 / (10 eps)) = 6.11, keeps
exp(sigma) eps a decade below that bound (Abate & Whitt 1992).
It takes one pass over the N uniform contour nodes, in stretches of
131,072: each stretch's Sigma and integrand are formed and its time sums
added into A(t), so no array spans the whole contour.  A stretch of n nodes
is tabled from the step it was built with, at the stride J = ceil(sqrt(n)),
and each block of times through ``_phases.PhaseGrid``: at M times it costs
n M multiply-adds in one complex matrix product, and about 4 sqrt(n M)
complex exponentials on uniform times or M (n/J + J) on any others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from ._blocks import row_blocks
from ._phases import PhaseGrid
from .errors import DomainError, NumericalError
from .poles import find_pole, lorentzian_poles
from .selfenergy import SelfEnergy
from .spectral import Lorentzian, SpectralModel

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
# The contour's height times t_max, sigma = ln(_ALIAS_EPS / (10 eps)) = 6.11:
# a rounding of eps in the node sum, amplified by exp(sigma) at t_max, stays a
# decade below the aliasing bound (Abate & Whitt 1992; Trefethen & Weideman 2014).
_HEIGHT = math.log(_ALIAS_EPS / (10.0 * np.finfo(float).eps))
# Terms K of the propagator's large-omega expansion that the inversion subtracts,
# and the truncated tail that the default omega_max allows past them.
_EXPANSION_TERMS = 6
_TAIL_TARGET = 1e-8
# Exp-sinh nodes exp(pi/2 sinh(k h)) for |k h| <= 4.5, h = 1/32: 2e-31 to 5e30.
# Column 0 weights the rule at step h, column 1 the rule at 2h (even k only).
# h = 1/32 is the coarsest step whose 2h estimate passes cut_integral's check:
# at h = 1/16 it fails on Box(0.05, 100) at omega0 = 0.
_DE_KH = np.arange(-144, 145) / 32
_DE_NODES = np.exp(0.5 * np.pi * np.sinh(_DE_KH))
_DE_WEIGHTS = np.outer(np.pi / 64 * np.cosh(_DE_KH) * _DE_NODES, [1.0, 2.0])
_DE_WEIGHTS[1::2, 1] = 0.0


def _phase_sum(f: np.ndarray, x: np.ndarray, step: float, times: np.ndarray) -> np.ndarray:
    """Sum_j f_j exp(-i x_j t_k) at every t_k, for n contour nodes x built as x_0 + j*step.

    At the stride J = ceil(sqrt(n)), node J*a + b is x[J*a] + b*step, so at each
    time the phases are the product of a coarse table exp(-i x[J*a] t), A entries,
    and a fine table exp(-i b step t), J entries: f summed over b against the fine
    table, one complex matrix product, and then over a against the coarse one.  The
    tables over a block of times come from that block's own PhaseGrid, so on
    uniform times they take about 2 sqrt(M) (A + J) exponentials for M times.
    """
    stride = math.ceil(math.sqrt(x.size))
    rates = -np.concatenate([x[::stride], step * np.arange(stride)])
    coarse = rates.size - stride
    f = np.pad(f, (0, coarse * stride - f.size)).reshape(coarse, stride).T
    out = np.empty(times.size, dtype=complex)
    for rows in row_blocks(times.size, rates.size):
        block = PhaseGrid(times[rows])
        tables = block.product(*block.tables(rates),
                               out=np.empty((block.x.size, rates.size), dtype=complex))
        out[rows] = np.einsum("ka,ka->k", tables[:, :coarse], tables[:, coarse:] @ f)
    return out


def _propagator_series(model, omega0: float, z0: complex, n: int):
    """c_0 .. c_{n-1} of G - 1/(omega - omega0) = sum_n c_n u^(n+1), u = 1/(omega - z0).

    With the moments mu_j about z0, G = u / P(u) for
    P(u) = 1 + (z0 - omega0) u - sum_j mu_j u^(j+2); the series 1/P = sum r_n u^n
    follows by recurrence, and c_n = r_n - (omega0 - z0)^n removes the free
    pole.  c_0 = c_1 = 0 and c_2 is the total weight.  Returns (c, mu).
    """
    mu = np.asarray(model.moments(z0, n - 2), dtype=complex)
    p = np.concatenate([[1.0, z0 - omega0], -mu])
    r = np.zeros(n, dtype=complex)
    r[0] = 1.0
    for m in range(1, n):
        r[m] = -(p[1:m + 1] @ r[m - 1::-1])
    return r - (omega0 - z0) ** np.arange(n), mu


def _singular_radius(model, omega0: float, z: complex, mu) -> float:
    """Radius of a disc about z that holds every singularity of G - 1/(omega - omega0).

    Sigma's moment series about z reaches to rho, the farthest finite support
    edge or, for the Lorentzian, whose moments are geometric, max (|mu_j| / mu_0)^(1/j).
    Past m = max(|z - omega0|, rho) a pole of G has
    |omega - omega0| = |Sigma| <= W / (|omega - z| - rho), so it lies within m + sqrt(W).
    """
    far = [abs(edge - z) for edge in model.support() if np.isfinite(edge)]
    if mu[0] != 0:
        far.extend(np.abs(mu[1:] / mu[0]) ** (1.0 / np.arange(1, mu.size)))
    return max(abs(z - omega0), *far) + math.sqrt(abs(mu[0]))


def survival_numeric(se: SelfEnergy, omega0: float, times,
                     omega_max: float | None = None,
                     n_points: int | None = None) -> SurvivalSeries:
    """Invert the transform of the dressed propagator along Im omega = offset.

    The trapezoid rule on the truncated contour, applied to the
    dressed-minus-free difference less the first K = 6 terms
    c_n / (omega - z0)^(n + 1) of its large-omega expansion about the damped
    point z0 = omega0 - i Gamma; the free pole and those terms contribute their
    exact transforms, exp(-i omega0 t) and c_n (-i t)^n / n! exp(-i z0 t).
    Gamma is the model's width, or the radius about omega0 that holds every
    singularity of the difference if that is larger, so that the restored
    terms, at most |c_n| / Gamma^n, stay near W / Gamma^2 and do not cancel.
    The height is sigma/t_max, sigma = ln(1e-12 / (10 eps)) = 6.11 (0.1 of
    Gamma at t_max = 0), reported as ``info["contour_offset"]``.  The default omega_max
    is the reach, the largest of |omega0| and the finite support edges, plus the larger
    of twice the expansion's radius and the smallest margin whose tail estimate is 1e-8.
    ``info["alias_bound"]`` bounds the aliasing (inf if 2 pi / h <= t_max),
    ``info["tail_estimate"]`` the truncated tail at every time, from the first
    omitted coefficient, and ``info["rounding_bound"]`` the node sum's
    rounding, eps h / (2 pi) sum_j |f_j| (1 + |x_j| t_max) over the weighted
    integrand f at the nodes' real parts x, amplified by exp(offset t_max);
    ``info["expansion_terms"]`` is K and ``info["expansion_point"]`` z0.
    The sum over each stretch's nodes is ``_phase_sum``, handed the nodes and
    the step h they were built with, so every stretch of n nodes is tabled at
    the stride J = ceil(sqrt(n)) by construction; ``info["phase_stride"]`` is
    the J of every full stretch.  The amplitude has the shape of ``times``.
    """
    times = _check_times(times)
    omega0 = float(omega0)
    t_max = float(times.max())
    model = se.model
    K = _EXPANSION_TERMS

    reach = max([abs(edge) for edge in model.support() if np.isfinite(edge)] + [abs(omega0)])
    with np.errstate(all="ignore"):
        damping = max(model.char_width(),
                      _singular_radius(model, omega0, omega0, model.moments(omega0, 2)))
        z0 = complex(omega0, -damping)
        c, mu = _propagator_series(model, omega0, z0, K + 3)
        radius = _singular_radius(model, omega0, z0, mu)
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(mu)) and np.isfinite(radius)):
        raise NumericalError("the large-omega expansion of the propagator is not finite; "
                             "the spectral support is too wide")

    # the tail law below sets margin^(K+2) ~ exp(offset t_max) and h ~ offset, so
    # the node count 2 omega_max / h grows as exp(sigma / (K+2)) / sigma at a fixed t_max
    offset = _HEIGHT / t_max if t_max > 0 else 0.1 * damping
    first_omitted = abs(c[K + 2]) / np.pi
    log_first = math.log(first_omitted) if first_omitted > 0 else -math.inf

    def log_tail(margin):
        """The log of the first omitted term's truncated tail, the largest over
        0 <= t <= t_max of exp(offset t) |c| / (pi margin^(K+2)) min(1/(K+2), 2/(margin t)).

        The second branch is one integration by parts of the oscillating
        tail; the maximum lies at t1 = min(2 (K+2) / margin, t_max) or at t_max.
        """
        t1 = min(2.0 * (K + 2) / margin, t_max)
        growth = max(offset * t1 - math.log(K + 2),
                     offset * t_max - math.log(max(K + 2, 0.5 * margin * t_max)))
        return log_first + growth - (K + 2) * math.log(margin)

    if omega_max is None:
        # tail falls as the margin grows: bisect for tail = _TAIL_TARGET between
        # the margin without the growth exp(offset t) and the one with all of it
        lo = (first_omitted / ((K + 2) * _TAIL_TARGET)) ** (1.0 / (K + 2))
        hi = lo * math.exp(offset * t_max / (K + 2))
        for _ in range(40 if lo > 0 else 0):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if log_tail(mid) > math.log(_TAIL_TARGET) else (lo, mid)
        omega_max = reach + max(2.0 * radius, hi)
    else:
        omega_max = float(omega_max)
        if omega_max <= 0:
            raise DomainError("omega_max must be positive")
    margin = omega_max - reach
    if not np.isfinite(omega_max) or margin <= 0:
        raise NumericalError("omega_max must be finite and clear the spectral support")
    if margin <= radius:
        raise NumericalError(
            f"omega_max {omega_max:.6g} lies within {radius:.6g} of the spectral reach "
            f"{reach:.6g}, inside the radius of the propagator's large-omega expansion")
    tail_estimate = math.exp(log_tail(margin))   # 0 once margin^(K+2) passes the floats
    if not tail_estimate <= 1e-4:
        raise NumericalError(
            f"estimated truncated-tail contribution {tail_estimate:.3e} > 1e-4; "
            "increase omega_max")

    if n_points is None:
        # 1 + 2 omega_max / h nodes at the default step
        needed = 1.0 + omega_max * math.log(2.0 / _ALIAS_EPS) / (np.pi * offset)
        if not needed <= 4_000_001:
            raise NumericalError(
                f"the default contour needs {needed:.4g} nodes to bound the aliasing by "
                f"{_ALIAS_EPS:g} at t = {t_max:g}, above its cap of 4000001; shorten the times "
                "or narrow the support, or pass n_points and accept the aliasing bound it gives")
        n_points = math.ceil(needed)
    n_points = int(n_points)
    if n_points < 2:
        raise DomainError("n_points must be at least 2")

    h = 2.0 * omega_max / (n_points - 1)
    q = math.exp(-2.0 * np.pi * offset / h)
    alias_bound = 2.0 * q / (1.0 - q) if q < 1.0 and 2.0 * np.pi / h > t_max else math.inf
    t = times.ravel()
    amp = np.zeros(t.size, dtype=complex)
    magnitude, stretches = 0.0, list(row_blocks(n_points, 1))
    for stretch in stretches:
        x = np.arange(stretch.start, stretch.stop) * h - omega_max
        nodes = x + 1j * offset
        u = 1.0 / (nodes - z0)
        expansion = c[K + 1]
        for cn in c[K:1:-1]:      # Horner: sum_{n=2}^{K+1} c_n u^(n-2)
            expansion = expansion * u + cn
        f = (1.0 / (nodes - omega0 - se.sigma_upper_grid(nodes)) - 1.0 / (nodes - omega0)
             - expansion * u**3)
        f[0] *= 0.5 if stretch.start == 0 else 1.0   # the trapezoid's end nodes
        f[-1] *= 0.5 if stretch.stop == n_points else 1.0
        # each phase x t rounds by about eps |x t|
        magnitude += np.sum(np.abs(f) * (1.0 + np.abs(x) * t_max))
        amp += _phase_sum(f, x, h, t)
    # the trapezoid's h and the inversion's i / (2 pi), then the free pole's
    # and the subtracted terms' exact transforms
    amp *= 1j * h / (2.0 * np.pi) * np.exp(offset * t)
    rounding_bound = math.exp(offset * t_max) * np.finfo(float).eps * h / (2.0 * np.pi) * magnitude
    restored = c[K + 1] / math.factorial(K + 1)
    for n in range(K, 1, -1):
        restored = restored * (-1j * t) + c[n] / math.factorial(n)
    amp += restored * (-1j * t) ** 2 * np.exp(-1j * z0 * t)
    amp = (amp + np.exp(-1j * omega0 * t)).reshape(times.shape)

    return SurvivalSeries(
        times=times, amplitude=amp, method="numeric_inversion",
        info={"contour_offset": offset, "omega_max": omega_max,
              "n_points": n_points, "alias_bound": alias_bound, "tail_estimate": tail_estimate,
              "rounding_bound": rounding_bound, "expansion_terms": K, "expansion_point": z0,
              "phase_stride": math.ceil(math.sqrt(stretches[0].stop))})


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
    """Wide-band weak-coupling limit of the flat band: exp(-i omega0 t - gamma t / 2)
    at the golden-rule gamma = 2*pi*A^2.

    Not a survival route: it states no error and leaves out the band's edge
    terms and its level shift, so it holds only for half_width >> |omega0|
    and half_width >> A^2: on Box(0.05, 100) at omega0 = 50 it is 0.128 off
    the inversion for t <= 40.  survival_numeric and survival_pole_cut give
    the flat band's amplitude.
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
        raise NumericalError(f"cut integral error estimate {np.max(err):.3e} too large")
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
        raise NumericalError("threshold denominator mu - omega0 - Sigma(mu) vanishes")
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
    the divergent-looking integral representation.  A support with no finite
    threshold, or a model without a complex continuation of D (Tabulated),
    is refused before the pole is solved for.
    """
    times = _check_times(times)
    omega0 = float(omega0)
    if not np.isfinite(se.model.support()[0]):
        raise DomainError("pole-cut survival needs a finite threshold (lower support edge); "
                          "take the closed form (survival_lorentzian, method 'closed') or "
                          "the inversion (survival_numeric, method 'numeric')")
    if type(se.model).density_complex is SpectralModel.density_complex:
        raise DomainError(
            f"pole-cut survival needs the complex continuation of D, which "
            f"{type(se.model).__name__} does not have; take the inversion (survival_numeric, "
            "--method numeric) or the oracle (survival_exact_discrete, --method oracle)")
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
