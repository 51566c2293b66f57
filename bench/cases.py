"""Seeded cases of the four benchmark workloads.

A case is one call chain into the library plus the check of its result
against an independent route of the library.  Parameters are drawn from
the workload seed when the cases are made; the library objects are built
inside ``Case.run``, so every execution starts from fresh models and
self-energies.  Grid sizes never depend on the seed, so the work of a
case does not either.

Every check uses the tolerance of the acceptance suite for the same
comparison, or the 1e-4 bound that ROADMAP item 1 sets for numeric
inversion against pole-cut.  Three contour cases miss that bound at the
commit that introduced the benchmark.  Each has a ceiling at its measured
deviation plus a margin: a deviation between bound and ceiling is a known
miss of ROADMAP item 1, counted and reported like every other failure,
while one above the ceiling, or not finite, is an unexpected failure.
"""

from __future__ import annotations

import contextlib
import functools
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import decaylab as dl
import decaylab.cli  # noqa: F401  (makes dl.cli available)
from decaylab.twosurface import TwoSurfaceConfig

# Tolerances, named after the comparison they come from.
RMS_CLOSED_FORM = 1e-6      # criterion 3
DECAY_CONSTANT = 0.05       # criterion 2
TAIL_SLOPE = 0.1            # criterion 5: slope within -(alpha+1) +- 0.1
TAIL_RATIO = 0.10           # criterion 5
FLOOR_MARGIN = 0.05         # criterion 6
UNITARITY = 0.01            # criterion 7, also for the oracle's occupations
R_SQUARED = 0.99            # criterion 8 (a)
RATE_RATIO = 0.25           # criterion 8 (b)
NORM_DEVIATION = 1e-6       # criterion 8 (e)
PARTITION = 1e-10           # criterion 1
INVERSION_VS_POLE_CUT = 1e-4  # ROADMAP item 1
A_AT_ZERO = 1e-12           # A(0) = 1 by completeness, up to rounding

# Ceilings of the known misses of the item-1 bound, measured when the
# benchmark was added: 0.685 for the item-1 case; over the corners of the
# seeded parameter ranges, at most 2.45e-3 for AsymmetricBox and 2.95e-3
# for Tabulated.
CEILING_ITEM_1 = 0.70
CEILING_ASYMMETRIC = 3e-3
CEILING_TABULATED = 3.5e-3


class CheckFailed(Exception):
    """A result missed the tolerance of its check."""


class KnownMiss(CheckFailed):
    """A result missed its bound but stayed within the case's known ceiling."""


@dataclass(frozen=True)
class Case:
    """One call chain and its check; ``run`` returns a one-line detail."""

    name: str
    run: Callable[[], str]


def _cli(argv: list[str]) -> None:
    """Run the command line in-process, keeping its progress lines off stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = dl.cli.main(argv)
    check(code == 0, f"decaylab {argv[0]} exited with {code}")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_bound(deviation: float, bound: float, ceiling: float, what: str) -> None:
    """Check ``deviation <= bound``; a miss up to ``ceiling`` is a known miss."""
    check(deviation <= max(bound, ceiling),
          f"{what} {deviation:.3e} > {bound}, above the known ceiling {ceiling}")
    if deviation > bound:
        raise KnownMiss(f"{what} {deviation:.3e} > {bound} (ROADMAP item 1)")


def _case(name: str, fn, **params) -> Case:
    return Case(name=name, run=functools.partial(fn, **params))


def _rms(diff) -> float:
    return float(np.sqrt(np.mean(np.abs(diff) ** 2)))


def _decay_constant_error(times, probability, gamma: float) -> float:
    slope, _ = np.polyfit(times, np.log(probability), 1)
    return abs(-slope / gamma - 1.0)


def _oracle_unitarity(series, occupations) -> float:
    total = series.probability() + np.sum(np.abs(occupations) ** 2, axis=0)
    drift = float(np.max(np.abs(total - 1.0)))
    check(drift < UNITARITY, f"|A|^2 + bin occupations off 1 by {drift:.2e}")
    return drift


def _same_bytes(first: Path, second: Path) -> list[str]:
    names = sorted(p.name for p in first.iterdir())
    check(names == sorted(p.name for p in second.iterdir()),
          "rerun wrote a different set of files")
    for name in names:
        check((first / name).read_bytes() == (second / name).read_bytes(),
              f"{name} differs between reruns (criterion 9)")
    return names


def _cli_twice(workdir: Path, args: list[str], config_text: str) -> tuple[Path, list[str]]:
    """Run one subcommand twice into fresh dirs; return the first and the files."""
    workdir.mkdir(parents=True, exist_ok=True)
    cfg = workdir / "case.cfg"
    cfg.write_text(config_text)
    outs = [workdir / "out1", workdir / "out2"]
    for out in outs:
        _cli(args + ["-c", str(cfg), "--out", str(out)])
    return outs[0], _same_bytes(*outs)


# ---------------------------------------------------------------- contour ----

def _lorentzian_inversion(a2, center, width, omega0, t_max, nt):
    model = dl.Lorentzian(amplitude_sq=a2, center=center, width=width)
    times = np.linspace(0.0, t_max, nt)
    numeric = dl.survival_numeric(dl.SelfEnergy(model), omega0, times)
    closed = dl.survival_lorentzian(model, omega0, times)
    rms = _rms(numeric.amplitude - closed.amplitude)
    check(rms <= RMS_CLOSED_FORM, f"RMS {rms:.3e} vs closed form > {RMS_CLOSED_FORM}")
    return f"RMS {rms:.2e}"


def _box_inversion(a2, half_width, omega0, nt):
    gamma = 2.0 * np.pi * a2
    times = np.linspace(0.2 / gamma, 2.0 / gamma, nt)
    box = dl.Box(amplitude_sq=a2, half_width=half_width)
    numeric = dl.survival_numeric(dl.SelfEnergy(box), omega0, times)
    err = _decay_constant_error(times, numeric.probability(), gamma)
    check(err < DECAY_CONSTANT, f"decay constant off by {err:.2%}")
    return f"decay constant off by {err:.2%}"


def _inversion_vs_pole_cut(model, omega0, t_max, nt, ceiling):
    se = dl.SelfEnergy(model)
    times = np.linspace(0.0, t_max, nt)
    numeric = dl.survival_numeric(se, omega0, times)
    pole_cut = dl.survival_pole_cut(se, omega0, times)
    dev = float(np.max(np.abs(numeric.amplitude - pole_cut.amplitude)))
    check_bound(dev, INVERSION_VS_POLE_CUT, ceiling, "max |A_numeric - A_pole_cut| =")
    return f"max deviation {dev:.2e}"


def _asymmetric_inversion(a2, lower, upper, omega0, t_max, nt):
    return _inversion_vs_pole_cut(dl.AsymmetricBox(a2, lower, upper), omega0, t_max, nt,
                                  CEILING_ASYMMETRIC)


def _threshold_inversion(beta, alpha, cutoff, omega0, t_max, nt):
    return _inversion_vs_pole_cut(dl.ThresholdPower(beta, alpha, 0.0, cutoff),
                                  omega0, t_max, nt, CEILING_ITEM_1)


def _tabulated_inversion(beta, samples, omega0, t_max, nt):
    analytic = dl.ThresholdPower(beta=beta, exponent=0.5, threshold=0.0, cutoff=20.0)
    eps = np.linspace(0.0, 20.0, samples)
    table = dl.Tabulated(eps, analytic.density(eps))
    times = np.linspace(0.0, t_max, nt)
    numeric = dl.survival_numeric(dl.SelfEnergy(table), omega0, times)
    reference = dl.survival_pole_cut(dl.SelfEnergy(analytic), omega0, times)
    dev = float(np.max(np.abs(numeric.amplitude - reference.amplitude)))
    check_bound(dev, INVERSION_VS_POLE_CUT, CEILING_TABULATED,
                "tabulated vs analytic: max deviation")
    return f"max deviation {dev:.2e}"


def _cli_survival(workdir, a2, width, tmax, nt):
    text = (f"model.type = lorentzian\nmodel.A2 = {a2!r}\nmodel.a = 0.0\n"
            f"model.b = {width!r}\nsystem.omega0 = 0.0\nsurvival.method = numeric\n"
            f"survival.tmax = {tmax!r}\nsurvival.nt = {nt}\n")
    out, files = _cli_twice(workdir, ["survival"], text)
    data = np.genfromtxt(out / "survival.csv", delimiter=",", names=True)
    closed = dl.survival_lorentzian(dl.Lorentzian(a2, 0.0, width), 0.0, data["t"])
    rms = _rms(data["re_A"] + 1j * data["im_A"] - closed.amplitude)
    check(rms <= RMS_CLOSED_FORM, f"CLI survival RMS {rms:.3e} > {RMS_CLOSED_FORM}")
    return f"{len(files)} files byte-identical, RMS {rms:.2e}"


def contour(rng, workdir: Path, tiny: bool) -> list[Case]:
    u = rng.uniform
    long_t = 5.0 if tiny else 100.0
    return [
        # ROADMAP item 1's case, at its parameters and bound.
        _case("threshold_item1", _threshold_inversion, beta=0.01,
              alpha=0.5, cutoff=20.0, omega0=5.0, t_max=long_t,
              nt=11 if tiny else 101),
        _case("lorentzian", _lorentzian_inversion, a2=u(0.08, 0.12),
              center=u(-0.2, 0.2), width=u(0.9, 1.1), omega0=u(-0.2, 0.2),
              t_max=2.0 if tiny else 20.0, nt=11 if tiny else 601),
        _case("box", _box_inversion, a2=u(0.045, 0.055), half_width=100.0,
              omega0=u(-0.5, 0.5), nt=10 if tiny else 60),
        _case("asymmetric_box", _asymmetric_inversion, a2=u(0.04, 0.06),
              lower=u(-4.0, -2.0), upper=u(8.0, 12.0), omega0=u(0.5, 1.5),
              t_max=2.0 if tiny else 20.0, nt=11 if tiny else 41),
        _case("tabulated", _tabulated_inversion, beta=u(0.008, 0.012),
              samples=200, omega0=u(4.5, 5.5), t_max=2.0 if tiny else 10.0,
              nt=11 if tiny else 41),
        _case("cli_survival", _cli_survival, workdir=workdir / "cli_survival",
              a2=u(0.08, 0.12), width=u(0.9, 1.1), tmax=5.0, nt=41),
    ]


# ---------------------------------------------------------------- polecut ----

def _threshold_tail(beta, alpha, omega0, n_late):
    model = dl.ThresholdPower(beta=beta, exponent=alpha, threshold=0.0, cutoff=20.0)
    se = dl.SelfEnergy(model)
    gamma, _ = dl.weisskopf_wigner_rate(se, omega0)
    late = np.geomspace(10.0 / gamma, 100.0 / gamma, n_late)
    series = dl.survival_pole_cut(se, omega0, np.concatenate([[0.0], late]))
    a0 = abs(series.amplitude[0] - 1.0)
    check(a0 <= A_AT_ZERO, f"|A(0) - 1| = {a0:.2e}")
    mags = np.abs(series.cut_term[1:])
    slope, _ = np.polyfit(np.log(late), np.log(mags), 1)
    check(abs(slope + alpha + 1.0) < TAIL_SLOPE,
          f"tail slope {slope:.3f}, expected {-(alpha + 1.0):.2f}")
    asym = dl.tail_asymptote(beta, alpha, 0.0, omega0, se.sigma_upper(0.0), late[-1])
    ratio = mags[-1] / abs(asym)
    check(abs(ratio - 1.0) < TAIL_RATIO, f"asymptote ratio {ratio:.4f}")
    return f"slope {slope:.3f}, ratio {ratio:.4f}"


def _band_pole_cut(model, omega0, a2, n_times):
    gamma = 2.0 * np.pi * a2
    times = np.geomspace(0.2 / gamma, 2.0 / gamma, n_times)
    series = dl.survival_pole_cut(dl.SelfEnergy(model), omega0,
                                  np.concatenate([[0.0], times]))
    a0 = abs(series.amplitude[0] - 1.0)
    check(a0 <= A_AT_ZERO, f"|A(0) - 1| = {a0:.2e}")
    err = _decay_constant_error(times, series.probability()[1:], gamma)
    check(err < DECAY_CONSTANT, f"decay constant off by {err:.2%}")
    return f"decay constant off by {err:.2%}"


def _box_pole_cut(a2, half_width, omega0, n_times):
    return _band_pole_cut(dl.Box(a2, half_width), omega0, a2, n_times)


def _asymmetric_pole_cut(a2, lower, upper, omega0, n_times):
    return _band_pole_cut(dl.AsymmetricBox(a2, lower, upper), omega0, a2, n_times)


def _below_threshold(beta, alpha, omega0, n_bins, t_max, nt):
    model = dl.ThresholdPower(beta=beta, exponent=alpha, threshold=1.0, cutoff=50.0)
    renorm = dl.SelfEnergy(model).renormalize_below_threshold(omega0)
    discrete = dl.build_discrete(model, omega0, n_bins)
    check(t_max < 0.5 * discrete.recurrence_time(), "times reach the recurrence time")
    series, _ = dl.survival_exact_discrete(discrete, np.linspace(0.0, t_max, nt))
    lowest = float(np.min(series.probability()))
    floor = renorm.Z ** 2 - FLOOR_MARGIN
    check(lowest >= floor, f"min |A|^2 = {lowest:.4f} < Z^2 - 0.05 = {floor:.4f}")
    return f"min |A|^2 {lowest:.4f} >= {floor:.4f}"


def polecut(rng, workdir: Path, tiny: bool) -> list[Case]:
    u = rng.uniform
    cases = []
    for alpha in (0.25, 0.5, 1.0, 1.5):
        for _ in range(1 if tiny else 4):
            cases.append(_case(f"threshold_tail_a{alpha}", _threshold_tail,
                               beta=u(0.006, 0.015), alpha=alpha, omega0=u(2.0, 8.0),
                               n_late=4))
    for _ in range(1 if tiny else 6):
        a2, half = u(0.03, 0.07), u(60.0, 140.0)
        cases.append(_case("box_pole_cut", _box_pole_cut, a2=a2, half_width=half,
                           omega0=u(-2.0, 2.0), n_times=12))
        cases.append(_case("asymmetric_pole_cut", _asymmetric_pole_cut, a2=a2,
                           lower=-half, upper=u(1.1, 1.5) * half,
                           omega0=u(-2.0, 2.0), n_times=12))
    for _ in range(1 if tiny else 12):
        cases.append(_case("below_threshold", _below_threshold, beta=u(0.005, 0.015),
                           alpha=float(rng.choice([0.5, 1.0])), omega0=u(-0.5, 0.5),
                           n_bins=100 if tiny else 500, t_max=5.0 if tiny else 30.0,
                           nt=50 if tiny else 200))
    return cases


# ----------------------------------------------------------------- oracle ----

def _partition(seed, n, n_omega):
    rng = np.random.default_rng(seed)
    energies = np.sort(rng.uniform(-3.0, 3.0, n))
    couplings = 0.3 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    model = dl.DiscreteModel(omega0=float(rng.normal()), energies=energies,
                             couplings=couplings, widths=np.full(n, 6.0 / n))
    worst = 0.0
    for _ in range(n_omega):
        omega = complex(rng.normal(scale=2.0),
                        rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 2.0))
        direct = dl.resolvent_direct(model, omega)
        part = dl.resolvent_partitioned(model, omega)
        worst = max(worst, abs(direct[0, 0] - part.g_p),
                    float(np.max(np.abs(direct[1:, 0] - part.g_qp))),
                    float(np.max(np.abs(direct[1:, 1:] - part.g_q))))
    check(worst < PARTITION, f"max block deviation {worst:.3e}")
    return f"max block deviation {worst:.2e}"


def _oracle_box(a2, omega0, n_bins, nt):
    gamma = 2.0 * np.pi * a2
    discrete = dl.build_discrete(dl.Box(amplitude_sq=a2, half_width=100.0), omega0, n_bins)
    times = np.linspace(0.2 / gamma, 2.0 / gamma, nt)
    check(times[-1] < 0.5 * discrete.recurrence_time(), "times reach the recurrence time")
    series, occupations = dl.survival_exact_discrete(discrete, times, with_occupations=True)
    _oracle_unitarity(series, occupations)
    err = _decay_constant_error(times, series.probability(), gamma)
    check(err < DECAY_CONSTANT, f"decay constant off by {err:.2%}")
    return f"decay constant off by {err:.2%}"


def _oracle_lorentzian(a2, width, n_bins, t_max, nt):
    model = dl.Lorentzian(amplitude_sq=a2, center=0.0, width=width)
    discrete = dl.build_discrete(model, 0.0, n_bins, window=(-50.0, 50.0))
    check(t_max < 0.5 * discrete.recurrence_time(), "times reach the recurrence time")
    times = np.linspace(0.0, t_max, nt)
    series, occupations = dl.survival_exact_discrete(discrete, times, with_occupations=True)
    _oracle_unitarity(series, occupations)
    rms = _rms(series.amplitude - dl.survival_lorentzian(model, 0.0, times).amplitude)
    check(rms <= RMS_CLOSED_FORM, f"RMS {rms:.3e} vs closed form > {RMS_CLOSED_FORM}")
    return f"RMS {rms:.2e}"


def oracle(rng, workdir: Path, tiny: bool) -> list[Case]:
    u = rng.uniform
    cases = [_case("partition", _partition, seed=int(rng.integers(2**31)),
                   n=int(rng.integers(100, 201)), n_omega=3 if tiny else 10)
             for _ in range(1 if tiny else 4)]
    for n_bins in ((500,) if tiny else (800, 1500, 3000)):
        cases.append(_case(f"box_n{n_bins}", _oracle_box, a2=u(0.045, 0.055),
                           omega0=u(-1.0, 1.0), n_bins=n_bins, nt=60))
    for n_bins in ((150,) if tiny else (1000, 1500)):
        cases.append(_case(f"below_threshold_n{n_bins}", _below_threshold,
                           beta=u(0.008, 0.012), alpha=0.5, omega0=u(-0.5, 0.5),
                           n_bins=n_bins, t_max=5.0 if tiny else 60.0, nt=400))
    n_lor = 400 if tiny else 2000
    cases.append(_case(f"lorentzian_n{n_lor}", _oracle_lorentzian, a2=u(0.08, 0.12),
                       width=u(0.9, 1.1), n_bins=n_lor, t_max=2.0 if tiny else 20.0,
                       nt=101))
    return cases


# ------------------------------------------------------------- wavepacket ----

def _two_surface(absorber_strength, t_max, n_x, dt):
    result = dl.run(TwoSurfaceConfig(t_max=t_max, n_x=n_x, dt=dt,
                                     absorber_strength=absorber_strength))
    check(result.r_squared > R_SQUARED, f"R^2 {result.r_squared:.5f}")
    ratio = result.fitted_rate / result.golden.rate
    check(abs(ratio - 1.0) < RATE_RATIO, f"rate ratio {ratio:.3f}")
    check(result.norm_deviation_max < NORM_DEVIATION,
          f"norm deviation {result.norm_deviation_max:.2e}")
    return f"rate ratio {ratio:.3f}, R^2 {result.r_squared:.5f}"


def _packet(a2, omega0, n_eps, n_x, basis):
    gamma = 2.0 * np.pi * a2
    eps = dl.default_energy_grid(omega0, gamma, n=n_eps, span=200.0)
    x = np.linspace(-50.0, 250.0, n_x)
    packet = dl.evolve_packet(lambda e: np.full_like(e, np.sqrt(a2)), omega0, gamma,
                              eps, [0.0, 0.5 / gamma, 1.0 / gamma], x=x, basis=basis,
                              beta_slope=3.0 if basis == "linear_slope_airy" else None)
    check(np.all(packet.coeffs[0] == 0.0), "packet not identically zero at t = 0")
    check(np.all(np.isfinite(packet.psi)), "synthesized packet is not finite")
    survival = dl.survival_box(a2, 100.0, omega0, [1.0 / gamma]).probability()[0]
    total = survival + dl.packet_norm_sq(eps, packet.coeffs[-1])
    check(abs(total - 1.0) < UNITARITY, f"|A|^2 + packet norm = {total:.5f}")
    return f"|A|^2 + packet norm = {total:.5f}"


def _cli_packet(workdir, a2, n_eps, n_x):
    gamma = 2.0 * np.pi * a2
    text = (f"model.type = box\nmodel.A2 = {a2!r}\nmodel.L = 100.0\nsystem.omega0 = 10.0\n"
            f"packet.span = 200.0\npacket.n_eps = {n_eps}\npacket.tmax = {1.0 / gamma!r}\n"
            f"packet.nt = 3\npacket.basis = plane_wave\npacket.x_min = -50.0\n"
            f"packet.x_max = 250.0\npacket.n_x = {n_x}\n")
    workdir.mkdir(parents=True, exist_ok=True)
    cfg = workdir / "case.cfg"
    cfg.write_text(text)
    out = workdir / "out"
    _cli(["packet", "-c", str(cfg), "--out", str(out)])
    data = np.genfromtxt(out / "packet_coeff.csv", delimiter=",", names=True)
    last = data["t"] == data["t"].max()
    survival = dl.survival_box(a2, 100.0, 10.0, [1.0 / gamma]).probability()[0]
    total = survival + dl.packet_norm_sq(data["epsilon"][last], np.sqrt(data["abs2_c"][last]))
    check(abs(total - 1.0) < UNITARITY, f"CLI packet: |A|^2 + packet norm = {total:.5f}")
    return f"|A|^2 + packet norm = {total:.5f}"


def _cli_two_surface(workdir, absorber_strength, t_max, n_x):
    text = (f"twosurface.t_max = {t_max!r}\ntwosurface.dt = 0.001\n"
            f"twosurface.n_x = {n_x}\ntwosurface.absorber_strength = {absorber_strength!r}\n")
    out, files = _cli_twice(workdir, ["twosurface"], text)
    summary = np.genfromtxt(out / "summary.csv", delimiter=",", names=True)
    check(np.isfinite(summary["fitted_rate"]) and summary["fitted_rate"] > 0,
          "CLI two-surface fitted rate is not a positive number")
    return f"{len(files)} files byte-identical"


def wavepacket(rng, workdir: Path, tiny: bool) -> list[Case]:
    u = rng.uniform
    return [
        # t_max just holds the fit window, which ends at 2.5/gamma_GR = 10.6.
        _case("two_surface", _two_surface, absorber_strength=u(0.015, 0.025),
              t_max=11.0, n_x=512 if tiny else 2048, dt=2e-3 if tiny else 5e-4),
        _case("packet_plane_wave", _packet, a2=u(0.004, 0.006), omega0=10.0,
              n_eps=401 if tiny else 4001, n_x=64 if tiny else 1024, basis="plane_wave"),
        _case("packet_airy", _packet, a2=u(0.004, 0.006), omega0=10.0,
              n_eps=401 if tiny else 4001, n_x=16 if tiny else 128,
              basis="linear_slope_airy"),
        _case("cli_packet", _cli_packet, workdir=workdir / "cli_packet",
              a2=u(0.004, 0.006), n_eps=401 if tiny else 4001, n_x=64 if tiny else 1024),
        _case("cli_two_surface", _cli_two_surface, workdir=workdir / "cli_two_surface",
              absorber_strength=u(0.015, 0.025), t_max=3.0, n_x=256 if tiny else 1024),
    ]


# ----------------------------------------------------------------- warm-up ----

def warmup(workload: str, workdir: Path) -> list[Case]:
    """Small untimed cases that load the code paths the workload uses."""
    if workload == "contour":
        return [_case("warmup", _lorentzian_inversion, a2=0.1, center=0.0, width=1.0,
                      omega0=0.0, t_max=1.0, nt=5)]
    if workload == "polecut":
        return [_case("warmup", _box_pole_cut, a2=0.05, half_width=100.0, omega0=0.0,
                      n_times=4),
                _case("warmup", _below_threshold, beta=0.01, alpha=0.5, omega0=0.0,
                      n_bins=100, t_max=5.0, nt=10)]
    if workload == "oracle":
        return [_case("warmup", _oracle_box, a2=0.05, omega0=0.0, n_bins=200, nt=10)]
    return [_case("warmup", _packet, a2=0.005, omega0=10.0, n_eps=201, n_x=16,
                  basis="linear_slope_airy")]


MAKERS = {"contour": contour, "polecut": polecut, "oracle": oracle,
          "wavepacket": wavepacket}


def make_cases(workload: str, seed: int, workdir: Path, tiny: bool = False) -> list[Case]:
    """The cases of one round, drawn from ``seed``."""
    return MAKERS[workload](np.random.default_rng(seed), Path(workdir), tiny)
