import math
import tracemalloc

import numpy as np
import pytest

import decaylab as dl
from decaylab import twosurface
from decaylab.errors import DomainError, NumericalError
from decaylab.twosurface import (OMEGA_OSC, TwoSurfaceConfig, golden_rule_rate,
                                 init_state, packet_moments, run, step,
                                 survival_probability)


def front_arrival_time(x_target, beta, eps0=1.0 / np.sqrt(2.0)):
    """Classical arrival time of the packet front at x_target on the slope."""
    return (np.sqrt(eps0 + beta * x_target) - np.sqrt(eps0)) / beta


@pytest.fixture(scope="module")
def coupled_run():
    config = TwoSurfaceConfig(t_max=15.0, snapshot_stride=500)
    return run(config)


class TestInitialState:
    def test_normalized(self):
        state = init_state(TwoSurfaceConfig())
        norm = np.vdot(state.psi, state.psi).real * state.dx
        assert norm == pytest.approx(1.0, abs=1e-10)
        assert survival_probability(state) == pytest.approx(1.0, abs=1e-10)

    def test_second_surface_empty(self):
        state = init_state(TwoSurfaceConfig())
        assert np.all(state.psi[1] == 0.0)

    def test_gaussian_moments(self):
        state = init_state(TwoSurfaceConfig())
        dens = np.abs(state.psi[0]) ** 2
        mean = np.sum(state.x * dens) * state.dx
        second = np.sum(state.x**2 * dens) * state.dx
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert second == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-10)

    def test_narrow_grid_rejected(self):
        with pytest.raises(DomainError, match="initial Gaussian does not vanish at the grid edges"):
            init_state(TwoSurfaceConfig(x_min=-2.0, x_max=6.0, n_x=64,
                                        absorber_width=1.0))


class TestStep:
    def test_uncoupled_ground_state_is_stationary(self):
        config = TwoSurfaceConfig(coupling=0.0, t_max=5.0)
        state = init_state(config)
        reference = state.psi[0].copy()
        for _ in range(10_000):
            step(state, config)
        overlap = abs(np.sum(np.conj(state.psi[0]) * reference) * state.dx)
        assert abs(overlap - 1.0) < 1e-6
        assert survival_probability(state) == pytest.approx(1.0, abs=1e-9)

    def test_ehrenfest_on_the_slope(self):
        config = TwoSurfaceConfig(coupling=0.0, x_min=-30.0, x_max=90.0,
                                  n_x=4096, dt=5e-4, t_max=1.0)
        state = init_state(config)
        # move the Gaussian onto the slope surface
        state.psi = state.psi[::-1].copy()
        k = 2.0 * np.pi * np.fft.fftfreq(config.n_x, d=state.dx)

        def mean_momentum(psi):
            ft = np.fft.fft(psi)
            return float(np.sum(k * np.abs(ft) ** 2) / np.sum(np.abs(ft) ** 2))

        start = mean_momentum(state.psi[1])
        n_steps = 2000
        for _ in range(n_steps):
            step(state, config)
        gained = mean_momentum(state.psi[1]) - start
        assert gained == pytest.approx(config.beta_slope * n_steps * config.dt,
                                       rel=0.01)

    def test_second_order_convergence_in_dt(self):
        base = dict(x_min=-10.0, x_max=30.0, n_x=1024, t_max=0.4)
        t_final = 0.4

        def evolve(dt):
            config = TwoSurfaceConfig(dt=dt, **base)
            state = init_state(config)
            for _ in range(int(round(t_final / dt))):
                step(state, config)
            return state.psi.ravel()

        reference = evolve(5e-4)
        errors = [np.linalg.norm(evolve(dt) - reference) for dt in (8e-3, 4e-3)]
        ratio = errors[0] / errors[1]
        assert 3.0 < ratio < 5.5

    def test_absorber_bookkeeping(self, coupled_run):
        assert coupled_run.norm_deviation_max < 1e-6
        assert coupled_run.absorbed[-1] > 0.5

    @staticmethod
    def assert_drift_raises(monkeypatch, lossy):
        config = TwoSurfaceConfig(n_x=256, t_max=1.0)
        operators = lossy(twosurface._operators(config))
        monkeypatch.setattr(twosurface, "_operators", lambda c: operators)
        state = init_state(config)
        with pytest.raises(NumericalError, match="drift"):
            for _ in range(10):
                step(state, config)

    def test_lossy_propagator_fails_the_audit(self, monkeypatch):
        # a kinetic phase of modulus 0.999 loses 0.2 % of the norm per step,
        # which must show as drift, not pass as absorbed probability
        self.assert_drift_raises(monkeypatch, lambda ops: ops._replace(
            kinetic_phase=0.999 * ops.kinetic_phase))

    def test_lossy_potential_unitary_fails_the_audit(self, monkeypatch):
        # so must a half-step potential unitary whose diagonal is scaled by 0.999
        self.assert_drift_raises(monkeypatch, lambda ops: ops._replace(diag=0.999 * ops.diag))


def reference_step(state, config):
    """The Strang step written out plainly: the 2x2 exponential from its
    scalar formula in each half step, and one numpy FFT pair per surface."""
    x, dx = state.x, state.dx
    k = 2.0 * np.pi * np.fft.fftfreq(config.n_x, d=dx)
    kinetic_phase = np.exp(-1j * k**2 * config.dt)
    pot1 = 0.5 * x**2
    pot2 = -config.beta_slope * x + twosurface.OFFSET
    mean, delta = 0.5 * (pot1 + pot2), 0.5 * (pot1 - pot2)
    tau = 0.5 * config.dt
    rabi = np.hypot(delta, config.coupling)
    mean_phase = np.exp(-1j * mean * tau)
    cos_r = np.cos(rabi * tau)
    sinc_r = tau * np.sinc(rabi * tau / np.pi)
    v = config.coupling

    def half_potential(p1, p2):
        return (mean_phase * (cos_r * p1 - 1j * sinc_r * (delta * p1 + v * p2)),
                mean_phase * (cos_r * p2 - 1j * sinc_r * (v * p1 - delta * p2)))

    def norm(p1, p2):
        return (np.sum(np.abs(p1) ** 2) + np.sum(np.abs(p2) ** 2)) * dx

    ramp_start = config.x_max - config.absorber_width
    on_ramp = x >= ramp_start
    ramp = np.sin(0.5 * np.pi * (x[on_ramp] - ramp_start) / config.absorber_width)
    mask = 1.0 - config.absorber_strength * ramp**2

    before = norm(*state.psi)
    p1, p2 = half_potential(*state.psi)
    p1 = np.fft.ifft(kinetic_phase * np.fft.fft(p1))
    p2 = np.fft.ifft(kinetic_phase * np.fft.fft(p2))
    p1, p2 = half_potential(p1, p2)
    state.drift += norm(p1, p2) - before
    state.absorbed += np.sum((np.abs(p1[on_ramp]) ** 2 + np.abs(p2[on_ramp]) ** 2)
                             * (1.0 - mask**2)) * dx
    p1[on_ramp] *= mask
    p2[on_ramp] *= mask
    state.psi = np.array([p1, p2])
    state.t += config.dt


class TestFusedStep:
    def test_half_potential_is_the_2x2_product(self):
        config = TwoSurfaceConfig(n_x=2048)
        ops = twosurface._operators(config)
        u11, u22 = ops.diag
        rng = np.random.default_rng(3)
        psi = rng.normal(size=(2, config.n_x)) + 1j * rng.normal(size=(2, config.n_x))
        p1, p2 = psi
        np.testing.assert_array_equal(twosurface._half_potential(psi, ops),
                                      [u11 * p1 + ops.u12 * p2, ops.u12 * p1 + u22 * p2])

    def test_matches_reference_step(self):
        # coupling on, and a packet on the slope that runs into the absorber
        config = TwoSurfaceConfig(x_min=-10.0, x_max=30.0, n_x=256, dt=1e-3)
        fused, plain = init_state(config), init_state(config)
        for state in (fused, plain):
            state.psi[1] = (np.exp(-(state.x - 20.0) ** 2 + 4j * state.x)
                          / (np.pi / 2.0) ** 0.25 / 2.0)
        for _ in range(500):
            step(fused, config)
            reference_step(plain, config)
        assert plain.absorbed > 1e-3
        assert np.max(np.abs(fused.psi[0] - plain.psi[0])) < 1e-12
        assert np.max(np.abs(fused.psi[1] - plain.psi[1])) < 1e-12
        assert abs(fused.absorbed - plain.absorbed) < 1e-12
        assert abs(fused.drift - plain.drift) < 1e-12

    def test_run_records_match_a_plain_step_loop(self):
        config = TwoSurfaceConfig(n_x=256, dt=0.005, t_max=3.0, snapshot_stride=100)
        result = run(config)
        state = init_state(config)
        near_sel = np.abs(state.x) < twosurface.TRAP_RADIUS
        p1, near = [], []
        for i in range(result.times.size):
            if i:
                step(state, config)
            p1.append(np.sum(np.abs(state.psi[0]) ** 2) * state.dx)
            near.append((np.sum(np.abs(state.psi[0, near_sel]) ** 2)
                         + np.sum(np.abs(state.psi[1, near_sel]) ** 2)) * state.dx)
        np.testing.assert_allclose(result.p1, p1, rtol=1e-13, atol=1e-16)
        np.testing.assert_allclose(result.near_origin, near, rtol=1e-13, atol=1e-16)


class TestGoldenRule:
    def test_no_coupling_no_decay(self):
        assert golden_rule_rate(0.0, 3.0).rate == 0.0

    def test_quadratic_coupling_scaling(self):
        one = golden_rule_rate(0.5, 3.0).rate
        two = golden_rule_rate(1.0, 3.0).rate
        assert two / one == pytest.approx(4.0, rel=1e-12)

    def test_reference_parameters_are_perturbative(self):
        gr = golden_rule_rate(0.5, 3.0)
        assert gr.perturbative_ratio == pytest.approx((0.25 / 3.0) / OMEGA_OSC)
        assert gr.perturbative_ratio < 0.1
        assert 0.05 < gr.rate < 1.0

    @pytest.mark.parametrize("beta", [1.0, 3.0, 6.0, 100.0])
    def test_grid_oracle_agrees_with_adaptive_overlap(self, beta):
        # same overlap by dense trapezoid quadrature
        x = np.linspace(-20.0, 20.0, 200_001)
        # the slope surface sits OFFSET = 1/sqrt(2) up, so the level's energy
        # 1/sqrt(2) is 0 above it
        phi = dl.airy_slope_eigenfunction(np.array([1.0 / np.sqrt(2.0) - 1.0 / np.sqrt(2.0)]),
                                          x, beta)[:, 0]
        ground = (np.pi * np.sqrt(2.0)) ** -0.25 * np.exp(-x**2 / (2 * np.sqrt(2.0)))
        overlap = np.trapezoid(phi * ground, x)
        expected = 2.0 * np.pi * 0.25 * overlap**2
        assert golden_rule_rate(0.5, beta).rate == pytest.approx(expected, rel=1e-6)


class TestRun:
    def test_exponential_range(self, coupled_run):
        assert coupled_run.r_squared > 0.99

    def test_rate_agrees_with_golden_rule(self, coupled_run):
        assert coupled_run.fitted_rate == pytest.approx(coupled_run.golden.rate,
                                                        rel=0.25)

    def test_survival_decays(self, coupled_run):
        p = coupled_run.p1
        assert p[0] == pytest.approx(1.0, abs=1e-10)
        assert p[-1] < 0.1

    def test_trapped_remnant_positive(self, coupled_run):
        assert coupled_run.trapped_fraction > 0.0

    def test_packet_travels_and_spreads(self, coupled_run):
        cfg = coupled_run.config
        t_lo = 0.5 / coupled_run.golden.rate
        t_hi = front_arrival_time(cfg.x_max - cfg.absorber_width, cfg.beta_slope)
        sel = [(i, t) for i, t in enumerate(coupled_run.snapshot_times)
               if t_lo <= t <= t_hi]
        assert len(sel) >= 3
        centroids, variances = [], []
        for i, _ in sel:
            _, mean, var = packet_moments(coupled_run.x, coupled_run.snapshots_abs2[i],
                                          coupled_run.x[1] - coupled_run.x[0],
                                          exclude_half_width=2.0)
            centroids.append(mean)
            variances.append(var)
        assert np.all(np.diff(centroids) > 0)
        assert np.all(np.diff(variances) > 0)

    def test_packet_moments_of_no_weight_are_zero(self):
        x = np.linspace(-4.0, 4.0, 9)
        assert packet_moments(x, np.zeros_like(x), 1.0) == (0.0, 0.0, 0.0)
        # a mask over the whole grid leaves no weight either
        assert packet_moments(x, np.ones_like(x), 1.0, exclude_half_width=5.0) == (0.0, 0.0, 0.0)

    @staticmethod
    def assert_rejected_before_the_first_step(monkeypatch, **fields):
        # the config and the fit window [0.5/gamma, min(2.5/gamma, t_max)] are
        # known before propagating: a run that cannot succeed takes no step
        calls = []
        monkeypatch.setattr(twosurface, "step", lambda *args: calls.append(args))
        with pytest.raises(DomainError) as raised:
            run(TwoSurfaceConfig(**fields))
        assert calls == []
        return str(raised.value)

    def test_too_short_run_rejected(self, monkeypatch):
        # a run ending before the window, and steps too coarse for it: the
        # refusal counts the window's steps without building the step grid
        # (at t_max = 1e6 and dt = 1 that took a 15.4 MB peak)
        for fields, name in (({"t_max": 1.0}, "t_max"), ({"t_max": 1e6, "dt": 1.0}, "dt")):
            tracemalloc.start()
            try:
                message = self.assert_rejected_before_the_first_step(monkeypatch, **fields)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert "fit window" in message and f"{name} = " in message
            assert peak < 1e6

    def test_times_are_the_counted_step_times(self):
        # 3,000 steps of 1e-3 summed one by one end at 2.9999999999997806; the
        # fit window counts the step times dt*i, so the run records those
        config = TwoSurfaceConfig(t_max=3.0, dt=1e-3, n_x=256, snapshot_stride=1000)
        result = run(config)
        assert result.times[-1] == 3.0
        np.testing.assert_array_equal(result.times, [1e-3 * i for i in range(3001)])
        np.testing.assert_array_equal(result.snapshot_times, [0.0, 1.0, 2.0, 3.0])

    def test_emptied_bound_surface_fails_after_the_run(self, monkeypatch):
        # the config passes the fit-window check, so a P1 with no positive
        # value to fit is the propagation's failure, not bad input
        calls = []

        def emptying_step(state, config):
            calls.append(state.t)
            state.psi[0] = 0.0
            state.t += config.dt
            return state

        monkeypatch.setattr(twosurface, "step", emptying_step)
        with pytest.raises(NumericalError, match="P1 is positive at fewer than 10 times"):
            run(TwoSurfaceConfig(t_max=3.0, dt=1e-3, n_x=256, snapshot_stride=1000))
        assert len(calls) == 3000

    @pytest.mark.parametrize("end", ["lo", "hi"])
    def test_window_steps_are_the_step_times_in_the_window(self, end):
        # t/dt can round up past a step time: at dt = 1e-3 and
        # t = 1.0010000000000001, ceil(t/dt) = 1002 though dt*1001 == t, so
        # the quotient can be a step off and the predicate decides about it
        assert math.ceil(1.0010000000000001 / 1e-3) == 1002 and 1e-3 * 1001 == 1.0010000000000001
        cases = [(1e-3, 3000, 1.0010000000000001), (1e-3, 3000, -1.0), (1e-3, 3000, 0.0),
                 (1e-3, 3000, 5.0), (1e-3, 3000, 3.0)]
        rng = np.random.default_rng(3)
        for dt in (1e-3, 0.1, 7e-4, 1.0 / 3.0):
            for k in rng.integers(0, 1001, 20):
                for t in (dt * k, k / (1.0 / dt), math.nextafter(dt * k, -math.inf),
                          math.nextafter(dt * k, math.inf)):
                    cases.append((dt, 1000, t))
        for dt, n, t in cases:
            times = dt * np.arange(n + 1)
            # the other end lies below 0 or past t_max = dt*n, or at t itself
            for other in (-1.0, t, dt * n * 2.0):
                t_lo, t_hi = (t, other) if end == "lo" else (other, t)
                np.testing.assert_array_equal(twosurface._window_steps(dt, n, t_lo, t_hi),
                                              np.flatnonzero((times >= t_lo) & (times <= t_hi)),
                                              err_msg=str((dt, n, t_lo, t_hi)))

    @pytest.mark.parametrize("fields", [{"coupling": 0.0}, {"beta_slope": -1.0},
                                        {"dt": np.nan}, {"coupling": np.nan}], ids=str)
    def test_bad_run_rejected_before_the_first_step(self, monkeypatch, fields):
        self.assert_rejected_before_the_first_step(monkeypatch, **fields)

    def test_observables_converged_in_grid_spacing(self):
        # doubling the spatial resolution moves P1 by less than 1%
        finals = []
        for n_x in (1024, 2048):
            config = TwoSurfaceConfig(n_x=n_x, dt=1e-3, t_max=3.0,
                                      snapshot_stride=10_000)
            state = init_state(config)
            for _ in range(3000):
                step(state, config)
            finals.append(survival_probability(state))
        assert abs(finals[0] / finals[1] - 1.0) < 0.01

    def test_observables_converged_in_time_step(self, coupled_run):
        # halving dt moves P1 by less than 1% (coarse vs fixture baseline)
        config = TwoSurfaceConfig(dt=1e-3, t_max=3.0, snapshot_stride=10_000)
        state = init_state(config)
        for _ in range(3000):
            step(state, config)
        coarse = survival_probability(state)
        baseline = float(np.interp(3.0, coupled_run.times, coupled_run.p1))
        assert abs(coarse / baseline - 1.0) < 0.01


class TestConfigValidation:
    def test_power_of_two_grid(self):
        with pytest.raises(DomainError):
            TwoSurfaceConfig(n_x=1000)

    def test_positive_dt(self):
        with pytest.raises(DomainError):
            TwoSurfaceConfig(dt=0.0)

    @pytest.mark.parametrize("field", ["coupling", "beta_slope", "x_min", "x_max", "dt",
                                       "t_max", "absorber_width", "absorber_strength"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(DomainError, match="finite"):
            TwoSurfaceConfig(**{field: value})

    @pytest.mark.parametrize("beta", [0.0, -1.0])
    def test_positive_slope(self, beta):
        with pytest.raises(DomainError, match="beta_slope"):
            TwoSurfaceConfig(beta_slope=beta)
        with pytest.raises(DomainError, match="beta_slope must be positive"):
            golden_rule_rate(0.5, beta)

    @pytest.mark.parametrize("x_max", [-80.0, -100.0])
    def test_ordered_grid(self, x_max):
        with pytest.raises(DomainError, match="x_min must be below x_max"):
            TwoSurfaceConfig(x_min=-80.0, x_max=x_max)

    def test_absorber_fits(self):
        with pytest.raises(DomainError):
            TwoSurfaceConfig(absorber_width=1000.0)

    @pytest.mark.parametrize("strength", [0.0, 1.0, -0.1, 1.5])
    def test_absorber_strength_in_unit_interval(self, strength):
        with pytest.raises(DomainError, match=r"absorber strength must be in \(0, 1\)"):
            TwoSurfaceConfig(absorber_strength=strength)

    @pytest.mark.parametrize("stride", [0, -5])
    def test_positive_snapshot_stride(self, stride):
        with pytest.raises(DomainError):
            TwoSurfaceConfig(snapshot_stride=stride)
