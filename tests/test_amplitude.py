import numpy as np
import pytest

import decaylab as dl
from decaylab.errors import DomainError, SingularDenominator, TruncationError

GAMMA_BOX = 2.0 * np.pi * 0.05


class TestNumericInversion:
    def test_initial_value(self, lorentzian_se):
        series = dl.survival_numeric(lorentzian_se, 0.0, [0.0])
        assert abs(series.amplitude[0] - 1.0) < 1e-3

    def test_free_level_pure_phase(self):
        se = dl.SelfEnergy(dl.Box(amplitude_sq=0.0, half_width=10.0))
        times = np.linspace(0.0, 12.0, 25)
        series = dl.survival_numeric(se, 0.7, times)
        np.testing.assert_allclose(series.amplitude, np.exp(-1j * 0.7 * times),
                                   atol=1e-12)
        assert np.max(np.abs(np.abs(series.amplitude) - 1.0)) < 1e-12

    def test_lorentzian_matches_closed_form(self, lorentzian_se):
        times = np.linspace(0.0, 20.0, 201)
        numeric = dl.survival_numeric(lorentzian_se, 0.0, times)
        closed = dl.survival_lorentzian(lorentzian_se.model, 0.0, times)
        rms = np.sqrt(np.mean(np.abs(numeric.amplitude - closed.amplitude) ** 2))
        assert rms < 1e-6

    def test_box_matches_exponential(self, box_se):
        times = np.linspace(0.0, 3.0 / GAMMA_BOX, 40)
        numeric = dl.survival_numeric(box_se, 0.0, times)
        closed = dl.survival_box(0.05, 100.0, 0.0, times)
        ratio = numeric.probability() / closed.probability()
        assert np.max(np.abs(ratio - 1.0)) < 0.02

    def test_truncation_guard(self, lorentzian_se):
        with pytest.raises(TruncationError):
            dl.survival_numeric(lorentzian_se, 0.0, [0.0, 1.0], omega_max=5.0)

    def test_validation(self, lorentzian_se):
        with pytest.raises(DomainError):
            dl.survival_numeric(lorentzian_se, 0.0, [-1.0])
        with pytest.raises(DomainError):
            dl.survival_numeric(lorentzian_se, 0.0, [1.0], contour_offset=-0.1)

    def test_unit_bound(self, lorentzian_se):
        times = np.linspace(0.0, 10.0, 60)
        series = dl.survival_numeric(lorentzian_se, 0.0, times)
        assert np.max(np.abs(series.amplitude)) <= 1.0 + 1e-3


class TestLorentzianClosedForm:
    def test_initial_value_is_residue_sum(self, lorentzian_se):
        series = dl.survival_lorentzian(lorentzian_se.model, 0.0, [0.0])
        assert abs(series.amplitude[0] - 1.0) < 1e-12

    def test_decoupled(self):
        model = dl.Lorentzian(amplitude_sq=0.0, center=0.0, width=1.0)
        times = np.linspace(0.0, 5.0, 11)
        series = dl.survival_lorentzian(model, 0.4, times)
        np.testing.assert_allclose(series.amplitude, np.exp(-1j * 0.4 * times),
                                   atol=1e-14)

    def test_decays_to_zero(self, lorentzian_se):
        lp = dl.lorentzian_poles(0.1, 0.0, 1.0, 0.0)
        damping = min(-lp.omega_plus.imag, -lp.omega_minus.imag)
        t_late = 50.0 / damping
        series = dl.survival_lorentzian(lorentzian_se.model, 0.0, [t_late])
        assert abs(series.amplitude[0]) < 1e-10

    def test_unit_bound(self, lorentzian_se):
        times = np.linspace(0.0, 30.0, 400)
        series = dl.survival_lorentzian(lorentzian_se.model, 0.0, times)
        assert np.max(np.abs(series.amplitude)) <= 1.0 + 1e-3


class TestBoxClosedForm:
    def test_rate_value(self):
        series = dl.survival_box(0.05, 100.0, 0.0, [0.0, 1.0])
        assert series.info["gamma"] == pytest.approx(2.0 * np.pi * 0.05)

    def test_one_lifetime(self):
        series = dl.survival_box(0.05, 100.0, 0.0, [1.0 / GAMMA_BOX])
        assert series.probability()[0] == pytest.approx(np.exp(-1.0), rel=1e-12)


class TestCutIntegral:
    def test_vanishing_threshold_weight(self):
        se = dl.SelfEnergy(dl.ThresholdPower(beta=0.0, exponent=0.5,
                                             threshold=0.0, cutoff=20.0))
        assert dl.cut_integral(se, 5.0, 10.0) == 0.0

    def test_power_law_slope(self, threshold_se):
        gamma, _ = dl.weisskopf_wigner_rate(threshold_se, 5.0)
        times = np.geomspace(10.0 / gamma, 100.0 / gamma, 12)
        mags = np.array([abs(dl.cut_integral(threshold_se, 5.0, t)) for t in times])
        slope = np.polyfit(np.log(times), np.log(mags), 1)[0]
        assert -1.6 < slope < -1.4   # alpha + 1 = 1.5

    def test_matches_asymptote_at_late_time(self, threshold_se):
        sigma_mu = threshold_se.sigma_upper(0.0)
        t = 200.0
        full = dl.cut_integral(threshold_se, 5.0, t)
        asym = dl.tail_asymptote(0.01, 0.5, 0.0, 5.0, sigma_mu, t)
        assert abs(full) == pytest.approx(abs(asym), rel=0.10)

    def test_requires_positive_time(self, threshold_se):
        with pytest.raises(DomainError):
            dl.cut_integral(threshold_se, 5.0, 0.0)

    def test_requires_finite_threshold(self, lorentzian_se):
        with pytest.raises(DomainError):
            dl.cut_integral(lorentzian_se, 0.0, 1.0)


class TestTailAsymptote:
    def test_zero_weight(self):
        assert dl.tail_asymptote(0.0, 0.5, 0.0, 5.0, 0.0, 10.0) == 0.0

    def test_inverse_time_scaling(self):
        one = abs(dl.tail_asymptote(1.0, 0.0, 0.0, 5.0, 0.1 + 0.2j, 50.0))
        two = abs(dl.tail_asymptote(1.0, 0.0, 0.0, 5.0, 0.1 + 0.2j, 100.0))
        assert one / two == pytest.approx(2.0, rel=1e-12)

    def test_three_halves_scaling(self):
        t100 = abs(dl.tail_asymptote(1.0, 0.5, 0.0, 5.0, 0.0, 100.0))
        t400 = abs(dl.tail_asymptote(1.0, 0.5, 0.0, 5.0, 0.0, 400.0))
        assert t100 / t400 == pytest.approx(8.0, rel=1e-12)

    def test_singular_denominator(self):
        with pytest.raises(SingularDenominator):
            dl.tail_asymptote(1.0, 0.5, 0.0, 0.0, 0.0, 10.0)


class TestPoleCut:
    def test_box_cut_is_negligible(self, box_se):
        times = np.linspace(0.5 / GAMMA_BOX, 3.0 / GAMMA_BOX, 7)
        series = dl.survival_pole_cut(box_se, 0.0, times)
        assert np.all(np.abs(series.cut_term) < 1e-3 * np.abs(series.pole_term))

    def test_completeness_at_zero(self, threshold_se):
        series = dl.survival_pole_cut(threshold_se, 5.0, [0.0])
        assert abs(series.amplitude[0] - 1.0) < 1e-12

    def test_matches_numeric_inversion(self, threshold_se):
        gamma, _ = dl.weisskopf_wigner_rate(threshold_se, 5.0)
        times = np.linspace(0.5 / gamma, 5.0 / gamma, 25)
        decomposed = dl.survival_pole_cut(threshold_se, 5.0, times)
        numeric = dl.survival_numeric(threshold_se, 5.0, times, n_points=300_001)
        rel = np.abs(decomposed.amplitude - numeric.amplitude) / np.abs(numeric.amplitude)
        assert np.max(rel) < 0.01
        assert np.max(np.abs(decomposed.amplitude)) <= 1.0 + 1e-3

    def test_cut_dominates_at_late_times(self, threshold_se):
        gamma, _ = dl.weisskopf_wigner_rate(threshold_se, 5.0)
        series = dl.survival_pole_cut(threshold_se, 5.0, [50.0 / gamma])
        assert abs(series.amplitude[0]) == pytest.approx(abs(series.cut_term[0]), rel=0.05)

    def test_matches_numeric_inversion_at_long_times(self, threshold_se):
        # a level well inside the band, followed for 100 time units: the
        # contour inversion must hold the 1e-4 agreement deep into the tail
        times = np.linspace(10.0, 100.0, 10)
        numeric = dl.survival_numeric(threshold_se, 5.0, times)
        decomposed = dl.survival_pole_cut(threshold_se, 5.0, times)
        assert np.max(np.abs(numeric.amplitude - decomposed.amplitude)) <= 1e-4

    def test_decomposition_stored(self, threshold_se):
        series = dl.survival_pole_cut(threshold_se, 5.0, [1.0, 2.0])
        assert series.pole_term is not None and series.cut_term is not None
        np.testing.assert_allclose(series.amplitude,
                                   series.pole_term + series.cut_term)
        assert series.info["pole"].converged


class TestCrossModelRoutes:
    def test_tabulated_inversion_against_matrix_oracle(self):
        # two fully independent routes: contour quadrature of the dressed
        # propagator vs eigendecomposition of the binned Hamiltonian
        eps = np.linspace(-4.0, 4.0, 81)
        dens = 0.08 * np.maximum(0.0, 1.0 - np.abs(eps) / 4.0)
        tab = dl.Tabulated(eps=eps, values=dens)
        times = np.linspace(0.0, 8.0, 33)
        numeric = dl.survival_numeric(dl.SelfEnergy(tab), 0.0, times,
                                      n_points=60_001)
        oracle, _ = dl.survival_exact_discrete(dl.build_discrete(tab, 0.0, 1500),
                                               times)
        assert np.max(np.abs(numeric.amplitude - oracle.amplitude)) < 1e-4

    def test_asymmetric_band_pole_cut_vs_numeric(self):
        se = dl.SelfEnergy(dl.AsymmetricBox(amplitude_sq=0.04, lower=-3.0, upper=9.0))
        pole = dl.find_pole(se, 2.0)
        assert pole.omega_dprime == pytest.approx(np.pi * 0.04, rel=0.05)
        times = np.linspace(0.5, 10.0, 20)
        decomposed = dl.survival_pole_cut(se, 2.0, times)
        numeric = dl.survival_numeric(se, 2.0, times)
        rel = np.abs(decomposed.amplitude - numeric.amplitude) / np.abs(numeric.amplitude)
        assert np.max(rel) < 0.01
