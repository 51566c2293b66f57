"""Coupled two-surface Schrodinger dynamics: harmonic well feeding a slope.

Scaled units: mass 1/2 (kinetic operator -d^2/dx^2, i.e. k^2 in momentum
space), oscillator frequency sqrt(2), and the slope surface offset by the
oscillator zero-point energy so the bound ground state sits exactly at
the continuum energy of the crossing point.  Time stepping is
second-order Strang splitting: the exact 2x2 potential unitary of a half
step is precomputed at every grid point, and both surfaces share one
batched FFT pair for the kinetic step.  A smooth cos^2 absorbing ramp at
the +x edge removes the outgoing packet; what it removes is booked as
absorbed, and what the unitary substeps lose apart as drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy import fft, special

from .errors import DomainError, NumericalError

__all__ = ["MASS", "OMEGA_OSC", "OFFSET", "TwoSurfaceConfig", "TwoSurfaceState",
           "GoldenRule", "TwoSurfaceRun", "init_state", "step",
           "survival_probability", "golden_rule_rate", "run", "packet_moments"]

MASS = 0.5
OMEGA_OSC = np.sqrt(2.0)
OFFSET = 1.0 / np.sqrt(2.0)  # slope surface offset: the oscillator zero point


@dataclass(frozen=True)
class TwoSurfaceConfig:
    """Simulation parameters; hashable so stepping operators can be cached."""

    coupling: float = 0.5
    beta_slope: float = 3.0
    x_min: float = -10.0
    x_max: float = 60.0
    n_x: int = 2048
    dt: float = 5e-4
    t_max: float = 40.0
    snapshot_stride: int = 2000
    absorber_width: float = 8.0
    absorber_strength: float = 0.02

    def __post_init__(self):
        bad = [f.name for f in fields(self) if not np.isfinite(getattr(self, f.name))]
        if bad:
            raise DomainError(f"{', '.join(bad)} must be finite")
        if self.beta_slope <= 0:
            raise DomainError("beta_slope must be positive")
        if self.n_x < 16 or (self.n_x & (self.n_x - 1)) != 0:
            raise DomainError("n_x must be a power of two (>= 16)")
        if self.dt <= 0 or self.t_max <= 0:
            raise DomainError("dt and t_max must be positive")
        if not self.x_min < self.x_max:
            raise DomainError("x_min must be below x_max")
        if not 0 < self.absorber_width < (self.x_max - self.x_min):
            raise DomainError("absorber width must fit inside the grid")
        if not 0 < self.absorber_strength < 1:
            raise DomainError("absorber strength must be in (0, 1)")
        if self.snapshot_stride < 1:
            raise DomainError("snapshot_stride must be at least 1")

    def grid(self) -> np.ndarray:
        return self.x_min + self.dx() * np.arange(self.n_x)

    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_x


@dataclass
class TwoSurfaceState:
    """Two complex wavefunctions on the shared grid, the rows of one (2, n_x)
    array psi, the bound surface's psi[0] and the slope surface's psi[1],
    plus probability booked as absorbed by the edge ramp and as drift of the
    unitary substeps."""

    x: np.ndarray
    psi: np.ndarray
    t: float
    absorbed: float
    dx: float
    drift: float = 0.0


class GoldenRule(NamedTuple):
    rate: float
    perturbative_ratio: float


class _Operators(NamedTuple):
    """A step's propagators, with the half-step potential unitary [[u11, u12], [u12, u22]]
    held as its diagonal rows diag = (u11, u22) and its off-diagonal u12."""
    kinetic_phase: np.ndarray
    diag: np.ndarray
    u12: np.ndarray
    edge: slice
    mask: np.ndarray
    loss: np.ndarray


@lru_cache(maxsize=8)
def _operators(config: TwoSurfaceConfig) -> _Operators:
    x = config.grid()
    dx = config.dx()
    k = 2.0 * np.pi * fft.fftfreq(config.n_x, d=dx)
    kinetic_phase = np.exp(-1j * k**2 * config.dt)

    pot1 = 0.5 * x**2
    pot2 = -config.beta_slope * x + OFFSET
    mean = 0.5 * (pot1 + pot2)
    delta = 0.5 * (pot1 - pot2)
    rabi = np.hypot(delta, config.coupling)
    tau = 0.5 * config.dt
    # exp(-i tau (mean + M)) = cosine + sine M with M = [[delta, V], [V, -delta]]
    mean_phase = np.exp(-1j * mean * tau)
    cosine = mean_phase * np.cos(rabi * tau)
    sine = -1j * mean_phase * tau * np.sinc(rabi * tau / np.pi)  # sin(r*tau)/r, safe at r = 0

    # the absorber acts on the grid's tail from ramp_start on, and only there
    ramp_start = config.x_max - config.absorber_width
    edge = slice(int(np.searchsorted(x, ramp_start)), None)
    ramp = np.sin(0.5 * np.pi * (x[edge] - ramp_start) / config.absorber_width)
    mask = 1.0 - config.absorber_strength * ramp**2
    diag = np.stack((cosine + sine * delta, cosine - sine * delta))
    return _Operators(kinetic_phase, diag, sine * config.coupling, edge, mask, 1.0 - mask**2)


def init_state(config: TwoSurfaceConfig) -> TwoSurfaceState:
    """Oscillator ground state on surface 1, empty surface 2."""
    x = config.grid()
    ground = (np.pi * np.sqrt(2.0)) ** -0.25 * np.exp(-x**2 / (2.0 * np.sqrt(2.0)))
    if max(abs(ground[0]), abs(ground[-1])) > 1e-12:
        raise DomainError("initial Gaussian does not vanish at the grid edges")
    psi = np.zeros((2, x.size), dtype=complex)
    psi[0] = ground
    return TwoSurfaceState(x=x, psi=psi, t=0.0, absorbed=0.0, dx=config.dx())


def _half_potential(psi: np.ndarray, ops: _Operators) -> np.ndarray:
    """(u11 p1 + u12 p2, u22 p2 + u12 p1) in three products: the rows swapped
    by psi[::-1] meet u12."""
    out = ops.diag * psi
    out += ops.u12 * psi[::-1]
    return out


def step(state: TwoSurfaceState, config: TwoSurfaceConfig) -> TwoSurfaceState:
    """One Strang step: half potential, full kinetic, half potential, absorber.

    Both surfaces go through each substep as the rows of one array.  The
    norm is measured before the step and after its unitary substeps; their
    difference is drift, and a step that drifts by more than 1e-4 raises
    NumericalError.  Only the loss across the absorber is booked as absorbed.
    """
    ops = _operators(config)
    psi = state.psi
    norm_before = np.vdot(psi, psi).real
    psi = fft.fft(_half_potential(psi, ops), axis=1)
    psi = _half_potential(fft.ifft(psi * ops.kinetic_phase, axis=1), ops)
    drift = float(np.vdot(psi, psi).real - norm_before) * state.dx
    on_ramp = psi[:, ops.edge]
    state.absorbed += float(np.vdot(on_ramp, on_ramp * ops.loss).real) * state.dx
    on_ramp *= ops.mask
    state.psi = psi
    state.drift += drift
    state.t += config.dt
    if abs(drift) > 1e-4:
        raise NumericalError(f"norm drift {drift:.3e} in one step at t = {state.t}")
    return state


def survival_probability(state: TwoSurfaceState) -> float:
    """Probability remaining on the bound surface."""
    return float(np.vdot(state.psi[0], state.psi[0]).real) * state.dx


def golden_rule_rate(coupling: float, beta_slope: float) -> GoldenRule:
    """Perturbative decay rate from the Airy-eigenfunction overlap.

    gamma = 2*pi*V^2 |<phi_eps0|ground>|^2 with phi the energy-normalized
    slope eigenfunction at the resonance energy (the oscillator zero
    point).  The perturbative_ratio (V^2/beta)/omega_osc should be small
    for the rate to be trustworthy.
    """
    if beta_slope <= 0:
        raise DomainError("beta_slope must be positive")
    # The overlap of beta^(-1/6) Ai(-beta^(1/3) x) with the ground state
    # N exp(-x^2 / (2 sqrt 2)) is, with y = -beta^(1/3) x, a Gaussian
    # average of Ai.  The heat kernel identity
    #   int Ai(y) exp(-y^2 / 4a) dy = sqrt(4 pi a) Ai(a^2) exp(2a^3 / 3)
    # gives it in closed form (Vallee & Soares, Airy Functions and
    # Applications to Physics, 2004).  The scaled airye absorbs the
    # exponential, which overflows past beta ~ 55.
    a = beta_slope ** (2.0 / 3.0) / np.sqrt(2.0)
    norm_g = (np.pi * np.sqrt(2.0)) ** -0.25
    overlap = float(beta_slope ** (-1.0 / 6.0) * norm_g * beta_slope ** (-1.0 / 3.0)
                    * np.sqrt(4.0 * np.pi * a) * special.airye(a * a)[0])
    rate = 2.0 * np.pi * coupling**2 * overlap**2
    ratio = (coupling**2 / beta_slope) / OMEGA_OSC
    return GoldenRule(rate=rate, perturbative_ratio=ratio)


def packet_moments(x: np.ndarray, abs2: np.ndarray, dx: float,
                   exclude_half_width: float = 0.0) -> tuple[float, float, float]:
    """(weight, centroid, variance) of a density, optionally masking |x| small."""
    sel = np.abs(x) >= exclude_half_width
    w = float(np.sum(abs2[sel]) * dx)
    if w <= 0:
        return 0.0, 0.0, 0.0
    mean = float(np.sum(x[sel] * abs2[sel]) * dx / w)
    var = float(np.sum((x[sel] - mean) ** 2 * abs2[sel]) * dx / w)
    return w, mean, var


@dataclass
class TwoSurfaceRun:
    """Everything a full simulation produces."""

    config: TwoSurfaceConfig
    times: np.ndarray
    p1: np.ndarray
    near_origin: np.ndarray        # probability in |x| < trap_radius, both surfaces
    absorbed: np.ndarray
    snapshot_times: np.ndarray
    snapshots_abs2: np.ndarray     # |psi[1]|^2, shape (n_snapshots, n_x)
    x: np.ndarray
    golden: GoldenRule
    fitted_rate: float
    fit_window: tuple[float, float]
    r_squared: float
    trapped_fraction: float
    trapped_spread: float
    norm_deviation_max: float
    info: dict = field(default_factory=dict)


TRAP_RADIUS = 4.0


def _window_steps(dt: float, n_steps: int, t_lo: float, t_hi: float) -> np.ndarray:
    """The steps i = 0..n_steps whose times dt*i lie in [t_lo, t_hi].

    dt*i is nondecreasing in i and lands within a rounding of t at i = t/dt,
    so only the candidates from one below floor(t_lo/dt) to one above
    ceil(t_hi/dt) can pass; each quotient is clipped to [-1, n_steps + 1]
    first, so that it cannot overflow.
    """
    first = max(math.floor(min(max(t_lo / dt, -1.0), n_steps + 1.0)) - 1, 0)
    last = min(math.ceil(min(max(t_hi / dt, -1.0), n_steps + 1.0)) + 1, n_steps)
    i = np.arange(first, last + 1)
    t = dt * i
    return i[(t >= t_lo) & (t <= t_hi)]


def _fit_window(config: TwoSurfaceConfig, rate: float,
                n_steps: int) -> tuple[float, float, np.ndarray]:
    """The exponential fit window [0.5/rate, min(2.5/rate, t_max)] and its
    steps, refused before the first step when it holds fewer than 10."""
    if rate == 0.0:
        raise DomainError("zero coupling: P1 does not decay, so the fit window is empty")
    t_lo = 0.5 / rate
    t_hi = min(2.5 / rate, config.t_max)
    steps = _window_steps(config.dt, n_steps, t_lo, t_hi)
    if steps.size < 10:
        raise DomainError(f"the exponential fit window [{t_lo:.6g}, {2.5 / rate:.6g}] holds "
                          f"{steps.size} step times up to t_max = {config.t_max!r} at "
                          f"dt = {config.dt!r}, fewer than 10")
    return t_lo, t_hi, steps


def run(config: TwoSurfaceConfig) -> TwoSurfaceRun:
    """Propagate to t_max; fit the exponential range of P1 against the
    golden-rule reference; report the late-time trapped remnant."""
    state = init_state(config)
    x = state.x
    dx = state.dx
    trap = slice(np.searchsorted(x, -TRAP_RADIUS, side="right"),  # |x| < TRAP_RADIUS
                 np.searchsorted(x, TRAP_RADIUS))
    n_steps = int(round(config.t_max / config.dt))
    golden = golden_rule_rate(config.coupling, config.beta_slope)
    t_lo, t_hi, steps = _fit_window(config, golden.rate, n_steps)

    # the step times dt*i that _window_steps selects, not the running sum state.t
    times = config.dt * np.arange(n_steps + 1)
    p1 = np.empty(n_steps + 1)
    near = np.empty(n_steps + 1)
    absorbed = np.empty(n_steps + 1)
    snaps_t, snaps = [], []
    norm_dev: float = 0.0
    for i in range(n_steps + 1):
        if i > 0:
            step(state, config)
        norm_dev = max(norm_dev, abs(state.drift))
        p1[i] = survival_probability(state)
        near[i] = np.vdot(state.psi[:, trap], state.psi[:, trap]).real * dx
        absorbed[i] = state.absorbed
        if i % config.snapshot_stride == 0 or i == n_steps:
            snaps_t.append(times[i])
            snaps.append(np.abs(state.psi[1]) ** 2)

    window = steps[p1[steps] > 0]
    if window.size < 10:
        raise NumericalError("P1 is positive at fewer than 10 times of the exponential fit window")
    slope, intercept = np.polyfit(times[window], np.log(p1[window]), 1)
    log_fit = slope * times[window] + intercept
    ss_res = float(np.sum((np.log(p1[window]) - log_fit) ** 2))
    ss_tot = float(np.sum((np.log(p1[window]) - np.mean(np.log(p1[window]))) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0

    last_quarter = times >= 0.75 * config.t_max
    trapped_fraction = float(np.mean(near[last_quarter]))
    trapped_spread = float(np.max(near[last_quarter]) - np.min(near[last_quarter]))

    return TwoSurfaceRun(
        config=config, times=times, p1=p1, near_origin=near, absorbed=absorbed,
        snapshot_times=np.array(snaps_t), snapshots_abs2=np.array(snaps), x=x,
        golden=golden, fitted_rate=float(-slope), fit_window=(t_lo, t_hi),
        r_squared=r_squared, trapped_fraction=trapped_fraction,
        trapped_spread=trapped_spread, norm_deviation_max=norm_dev,
        info={"trap_radius": TRAP_RADIUS, "n_steps": n_steps})
