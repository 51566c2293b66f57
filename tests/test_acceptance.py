"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines and timings.
"""

import time

import numpy as np
import pytest

import decaylab as dl
from decaylab.cli import main as cli_main
from decaylab.twosurface import (OFFSET, TwoSurfaceConfig, packet_moments,
                                  run as run_twosurface)
from conftest import linear_fit_r2


def report(number, elapsed, limit, detail):
    assert elapsed < limit, f"criterion {number} exceeded its {limit}s budget"
    print(f"\nACCEPTANCE {number}: PASS ({elapsed:.1f}s / limit {limit:.0f}s) {detail}")


def test_criterion_1_partition_algebra_exactness():
    # 20 random discretized models (N <= 200, complex couplings), 20 random
    # complex frequencies each; partitioned blocks vs direct matrix solve.
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(20, 201))
        energies = np.sort(rng.uniform(-3.0, 3.0, n))
        couplings = 0.3 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        model = dl.DiscreteModel(omega0=float(rng.normal()), energies=energies,
                                 couplings=couplings, widths=np.full(n, 6.0 / n))
        for _ in range(20):
            omega = complex(rng.normal(scale=2.0),
                            rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 2.0))
            direct = dl.resolvent_direct(model, omega)
            part = dl.resolvent_partitioned(model, omega)
            worst = max(worst,
                        abs(direct[0, 0] - part.g_p),
                        float(np.max(np.abs(direct[1:, 0] - part.g_qp))),
                        float(np.max(np.abs(direct[1:, 1:] - part.g_q))))
    assert worst < 1e-10
    report(1, time.monotonic() - start, 10.0, f"max block deviation {worst:.3e}")


def test_criterion_2_box_decay_constant():
    # discrete-oracle and numeric-inversion survival both fit gamma = 2 pi A^2
    # within 5% on t in [0.2/gamma, 2/gamma]
    start = time.monotonic()
    a2, half_width = 0.05, 100.0
    gamma = 2.0 * np.pi * a2
    box = dl.Box(amplitude_sq=a2, half_width=half_width)
    times = np.linspace(0.2 / gamma, 2.0 / gamma, 60)

    oracle_model = dl.build_discrete(box, 0.0, 2000)
    assert times[-1] < 0.5 * oracle_model.recurrence_time()
    oracle, _ = dl.survival_exact_discrete(oracle_model, times)
    slope_oracle, _, _ = linear_fit_r2(times, np.log(oracle.probability()))

    numeric = dl.survival_numeric(dl.SelfEnergy(box), 0.0, times)
    slope_numeric, _, _ = linear_fit_r2(times, np.log(numeric.probability()))

    err_oracle = abs(-slope_oracle / gamma - 1.0)
    err_numeric = abs(-slope_numeric / gamma - 1.0)
    assert err_oracle < 0.05
    assert err_numeric < 0.05
    report(2, time.monotonic() - start, 60.0,
           f"gamma=0.3142: oracle off by {err_oracle:.2%}, numeric by {err_numeric:.2%}")


def test_criterion_3_lorentzian_closed_form():
    start = time.monotonic()
    model = dl.Lorentzian(amplitude_sq=0.1, center=0.0, width=1.0)
    poles = dl.lorentzian_poles(0.1, 0.0, 1.0, 0.0)
    assert abs(poles.residue_plus + poles.residue_minus - 1.0) < 1e-12
    times = np.linspace(0.0, 20.0, 201)
    closed = dl.survival_lorentzian(model, 0.0, times)
    numeric = dl.survival_numeric(dl.SelfEnergy(model), 0.0, times)
    rms = float(np.sqrt(np.mean(np.abs(closed.amplitude - numeric.amplitude) ** 2)))
    assert rms <= 1e-6
    report(3, time.monotonic() - start, 10.0,
           f"RMS {rms:.2e}, residue sum off by "
           f"{abs(poles.residue_plus + poles.residue_minus - 1.0):.1e}")


def test_criterion_4_pole_bracket():
    # both roots of 50 random parameter sets damped with 0 < -Im < width
    start = time.monotonic()
    rng = np.random.default_rng(7)
    for _ in range(50):
        a2 = float(rng.uniform(1e-3, 1.0))
        center = float(rng.uniform(-2.0, 2.0))
        width = float(rng.uniform(0.1, 3.0))
        omega0 = float(rng.uniform(-2.0, 2.0))
        lp = dl.lorentzian_poles(a2, center, width, omega0)
        for root in (lp.omega_plus, lp.omega_minus):
            assert 0.0 < -root.imag < width
    report(4, time.monotonic() - start, 5.0, "50 parameter sets inside (0, b)")


def test_criterion_5_long_time_tail():
    start = time.monotonic()
    beta, alpha, mu, lam = 0.01, 0.5, 0.0, 20.0
    omega0 = 5.0
    se = dl.SelfEnergy(dl.ThresholdPower(beta=beta, exponent=alpha,
                                         threshold=mu, cutoff=lam))
    gamma, _ = dl.weisskopf_wigner_rate(se, omega0)
    times = np.geomspace(10.0 / gamma, 100.0 / gamma, 14)
    mags = np.array([abs(dl.cut_integral(se, omega0, t)) for t in times])
    slope, _, _ = linear_fit_r2(np.log(times), np.log(mags))
    assert -1.6 < slope < -1.4
    sigma_mu = se.sigma_upper(mu)
    asym = dl.tail_asymptote(beta, alpha, mu, omega0, sigma_mu, times[-1])
    ratio = mags[-1] / abs(asym)
    assert abs(ratio - 1.0) < 0.10
    report(5, time.monotonic() - start, 60.0,
           f"slope {slope:.3f}, asymptote ratio {ratio:.4f} at t={times[-1]:.0f}")


def test_criterion_6_below_threshold_non_decay():
    start = time.monotonic()
    model = dl.ThresholdPower(beta=0.01, exponent=0.5, threshold=1.0, cutoff=50.0)
    renorm = dl.SelfEnergy(model).renormalize_below_threshold(0.0)
    discrete = dl.build_discrete(model, 0.0, 1500)
    times = np.linspace(0.0, 60.0, 600)
    assert times[-1] < 0.5 * discrete.recurrence_time()
    series, _ = dl.survival_exact_discrete(discrete, times)
    floor = renorm.Z**2 - 0.05
    lowest = float(np.min(series.probability()))
    assert lowest >= floor
    # the bound state's weight, Z^2, is the late-time mean of |A|^2
    late = float(np.mean(series.probability()[times >= 20.0]))
    assert abs(late - renorm.Z**2) <= 1e-4
    report(6, time.monotonic() - start, 30.0,
           f"min |A|^2 = {lowest:.4f} >= Z^2 - 0.05 = {floor:.4f}; "
           f"late mean |A|^2 - Z^2 = {late - renorm.Z**2:.1e}")


def test_criterion_7_continuum_packet_unitarity():
    start = time.monotonic()
    a2 = 0.05
    gamma = 2.0 * np.pi * a2
    eps = dl.default_energy_grid(0.0, gamma, n=20001, span=200.0)
    coupling = lambda e: np.full_like(e, np.sqrt(a2))
    at_zero = dl.packet_coefficients(coupling, 0.0, gamma, eps, 0.0)
    assert np.all(at_zero == 0.0)
    t = 1.0 / gamma
    coeffs = dl.packet_coefficients(coupling, 0.0, gamma, eps, t)
    survival = dl.survival_box(a2, 100.0, 0.0, [t]).probability()[0]
    total = survival + dl.packet_norm_sq(eps, coeffs)
    assert abs(total - 1.0) < 0.01
    report(7, time.monotonic() - start, 10.0,
           f"|A|^2 + packet norm = {total:.5f}; packet identically 0 at t=0")


def test_criterion_8_two_surface_simulation():
    # property-based reproduction of the coupled-surface decay: exponential
    # survival against the Airy golden-rule oracle, outgoing spreading
    # packet, a stable trapped remnant, and audited probability bookkeeping
    start = time.monotonic()
    config = TwoSurfaceConfig(snapshot_stride=500)  # V=0.5, beta=3.0, t_max=40
    result = run_twosurface(config)

    # (a) semilog linearity on the fit window
    assert result.r_squared > 0.99
    # (b) fitted rate against the golden-rule overlap oracle
    rate_ratio = result.fitted_rate / result.golden.rate
    assert abs(rate_ratio - 1.0) < 0.25
    # (c) centroid moves outward monotonically and the packet spreads,
    #     between emergence and the arrival of the front at the absorber
    beta, eps0 = config.beta_slope, OFFSET
    x_absorber = config.x_max - config.absorber_width
    t_front = (np.sqrt(eps0 + beta * x_absorber) - np.sqrt(eps0)) / beta
    t_lo = 0.5 / result.golden.rate
    dx = result.x[1] - result.x[0]
    centroids, variances = [], []
    for i, t in enumerate(result.snapshot_times):
        if t_lo <= t <= t_front:
            _, mean, var = packet_moments(result.x, result.snapshots_abs2[i], dx,
                                          exclude_half_width=2.0)
            centroids.append(mean)
            variances.append(var)
    assert len(centroids) >= 3
    assert np.all(np.diff(centroids) > 0)
    assert np.all(np.diff(variances) > 0)
    # (d) trapped remnant: positive, and draining much more slowly than the
    #     exponential stage over the last quarter of the run
    assert result.trapped_fraction > 0.0
    last_quarter = result.times >= 0.75 * config.t_max
    near = result.near_origin[last_quarter]
    leak_rate = float(np.log(near[0] / near[-1]) / (0.25 * config.t_max))
    assert 0.0 <= leak_rate < 0.25 * result.fitted_rate
    assert result.trapped_spread < 0.5 * result.trapped_fraction
    # (e) probability bookkeeping
    assert result.norm_deviation_max < 1e-6

    report(8, time.monotonic() - start, 600.0,
           f"rate ratio {rate_ratio:.3f}, R^2 {result.r_squared:.5f}, trapped "
           f"{result.trapped_fraction:.4f} leaking at {leak_rate:.3f} "
           f"(< {0.25 * result.fitted_rate:.3f})")


def test_criterion_9_determinism(tmp_path):
    start = time.monotonic()
    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        "model.type = lorentzian\nmodel.A2 = 0.1\nmodel.a = 0.0\nmodel.b = 1.0\n"
        "system.omega0 = 0.0\nsurvival.method = numeric\n"
        "survival.tmax = 5.0\nsurvival.nt = 41\n")
    pairs = []
    for sub, args in (("survival", ["survival", "-c", str(cfg)]),
                      ("verify-partition", ["verify-partition"])):
        out1, out2 = tmp_path / f"{sub}-1", tmp_path / f"{sub}-2"
        assert cli_main(args + ["--out", str(out1)]) == 0
        assert cli_main(args + ["--out", str(out2)]) == 0
        for name in sorted(p.name for p in out1.iterdir()):
            b1 = (out1 / name).read_bytes()
            b2 = (out2 / name).read_bytes()
            assert b1 == b2, f"{sub}/{name} differs between reruns"
            pairs.append(f"{sub}/{name}")
    report(9, time.monotonic() - start, 60.0,
           f"byte-identical reruns: {', '.join(pairs)}")
