import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import decaylab as dl
from decaylab.errors import DegenerateRoots, DomainError, NoConvergence


def quadratic_oracle(a2, center, width, omega0):
    """Roots of (w - center + i*width)(w - omega0) - pi*a2/width via cmath."""
    b = -(omega0 + center - 1j * width)
    c = (center - 1j * width) * omega0 - np.pi * a2 / width
    disc = cmath.sqrt(b * b - 4 * c)
    r1 = (-b + disc) / 2
    r2 = (-b - disc) / 2
    return r1, r2


class TestWeisskopfWigner:
    def test_box_rate(self, box_se):
        gamma, half = dl.weisskopf_wigner_rate(box_se, 0.0)
        assert gamma == pytest.approx(2.0 * np.pi * 0.05)
        assert half == pytest.approx(np.pi * 0.05)

    def test_zero_density_inside_support(self):
        # tabulated model with a dead zone in the middle of its support
        m = dl.Tabulated(eps=[0.0, 1.0, 1.1, 2.9, 3.0, 4.0],
                         values=[0.5, 0.5, 0.0, 0.0, 0.5, 0.5])
        gamma, _ = dl.weisskopf_wigner_rate(dl.SelfEnergy(m), 2.0)
        assert gamma == 0.0

    def test_lorentzian_peak(self):
        se = dl.SelfEnergy(dl.Lorentzian(amplitude_sq=0.01, center=0.0, width=1.0))
        gamma, _ = dl.weisskopf_wigner_rate(se, 0.0)
        assert gamma == pytest.approx(0.02 * np.pi)

    def test_outside_support_rejected(self, box_se):
        with pytest.raises(DomainError):
            dl.weisskopf_wigner_rate(box_se, 101.0)


class TestFindPole:
    def test_free_level(self):
        se = dl.SelfEnergy(dl.Box(amplitude_sq=0.0, half_width=10.0))
        pr = dl.find_pole(se, 0.3)
        assert pr.omega_prime == 0.3
        assert pr.omega_dprime == 0.0
        assert pr.residue == pytest.approx(1.0)

    def test_wide_box_weak_coupling_values(self):
        se = dl.SelfEnergy(dl.Box(amplitude_sq=0.05, half_width=1e4))
        pr = dl.find_pole(se, 0.0)
        assert abs(pr.omega_prime) < 1e-4          # shift vanishes at band center
        assert pr.omega_dprime == pytest.approx(np.pi * 0.05, abs=1e-4)

    @pytest.mark.parametrize("params", [
        (0.1, 0.0, 1.0, 0.0),
        (0.05, 0.4, 0.7, -0.2),
        (0.3, -1.0, 2.0, 1.5),
    ])
    def test_matches_quadratic_roots(self, params):
        a2, center, width, omega0 = params
        se = dl.SelfEnergy(dl.Lorentzian(amplitude_sq=a2, center=center, width=width))
        pr = dl.find_pole(se, omega0)
        lp = dl.lorentzian_poles(a2, center, width, omega0)
        dist = min(abs(pr.omega - lp.omega_plus), abs(pr.omega - lp.omega_minus))
        assert dist < 1e-10
        near_plus = abs(pr.omega - lp.omega_plus) < abs(pr.omega - lp.omega_minus)
        residue = lp.residue_plus if near_plus else lp.residue_minus
        assert abs(pr.residue - residue) < 5e-11

    def test_threshold_model_converges(self, threshold_se):
        pr = dl.find_pole(threshold_se, 5.0)
        assert pr.final_residual < 1e-10 * 5.0
        assert 0 < pr.omega_dprime < 0.1

    def test_weak_coupling_limit(self):
        # omega''/(pi D(omega0)) -> 1 as the coupling goes to zero
        ratios = []
        for a2 in (1e-2, 1e-3, 1e-4):
            se = dl.SelfEnergy(dl.Lorentzian(amplitude_sq=a2, center=0.0, width=1.0))
            pr = dl.find_pole(se, 0.0)
            ratios.append(pr.omega_dprime / (np.pi * a2))
        assert abs(ratios[-1] - 1.0) < 0.01
        assert abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)

    @pytest.mark.parametrize("omega0", [-1.0, 0.0, 25.0])
    def test_bound_state_below_and_above_the_support(self, omega0):
        # outside the support the zero of g is real: Sigma and Sigma' there
        # are plain integrals, taken here by adaptive quadrature
        beta, alpha, mu, lam = 0.01, 1.5, 0.0, 20.0
        se = dl.SelfEnergy(dl.ThresholdPower(beta, alpha, mu, lam))
        pr = dl.find_pole(se, omega0)
        energy = pr.omega_prime
        assert pr.omega_dprime == 0.0 and pr.residue.imag == 0.0
        assert energy < min(omega0, mu) or energy > max(omega0, lam)
        dens = lambda e: beta * (e - mu) ** alpha
        sigma, _ = integrate.quad(lambda e: dens(e) / (energy - e), mu, lam, epsrel=1e-13)
        curv, _ = integrate.quad(lambda e: dens(e) / (energy - e) ** 2, mu, lam, epsrel=1e-13)
        assert energy - omega0 - sigma == pytest.approx(0.0, abs=1e-10)
        assert pr.residue.real == pytest.approx(1.0 / (1.0 + curv), rel=1e-10)

    @pytest.mark.parametrize("beta", [1e4, 1e8])
    def test_bound_state_at_strong_coupling(self, beta):
        # far below the band Sigma -> W / E, so E_b -> -sqrt(W) and Z -> 1/2;
        # g's rounding there grows with W, and the stopping rule must follow it
        model = dl.ThresholdPower(beta, 0.5, 1.0, 50.0)
        pr = dl.find_pole(dl.SelfEnergy(model), 0.0)
        assert pr.omega_prime == pytest.approx(-np.sqrt(model.total_weight()), rel=0.02)
        assert 0.5 < pr.residue.real < 0.51

    def test_bound_state_stays_on_the_physical_sheet(self):
        # 2F1 gives this level's Sigma a rounding-size imaginary part
        se = dl.SelfEnergy(dl.ThresholdPower(0.015, 1.0, 1.0, 50.0))
        pr = dl.find_pole(se, 0.5)
        assert pr.omega_dprime == 0.0
        assert pr.omega_prime < 0.5 and 0.0 < pr.residue.real < 1.0

    def test_outside_the_support_rejections(self, threshold_se):
        # on an edge where Sigma' (alpha <= 1) or Sigma (a flat band) diverges
        with pytest.raises(DomainError, match="diverges"):
            dl.find_pole(threshold_se, 0.0)
        with pytest.raises(DomainError, match="diverges"):
            dl.find_pole(dl.SelfEnergy(dl.Box(amplitude_sq=0.3, half_width=2.0)), -2.0)

    def test_zero_off_the_support_is_no_resonance(self):
        # this embedded level also has a bound state (g(mu) > 0); one Newton
        # start lands on the continued g's real zero near -31.83, under the
        # continued density's own cut, where pole-cut missed the inversion by 2.6
        se = dl.SelfEnergy(dl.ThresholdPower(1.0, 0.5, 0.0, 20.0))
        with pytest.raises(NoConvergence, match=r"zero -31\.8\d*-[^ ]*j lies outside the support"):
            dl.find_pole(se, 5.0)
        with pytest.raises(NoConvergence):
            dl.survival_pole_cut(se, 5.0, [0.5, 5.0])


class TestLorentzianPoles:
    def test_residues_sum_to_one_exactly(self):
        lp = dl.lorentzian_poles(0.1, 0.0, 1.0, 0.0)
        assert abs(lp.residue_plus + lp.residue_minus - 1.0) < 1e-14

    def test_decoupled_limit(self):
        lp = dl.lorentzian_poles(0.0, 0.5, 2.0, -0.3)
        assert lp.omega_plus == pytest.approx(-0.3)
        assert lp.residue_plus == pytest.approx(1.0)
        assert lp.omega_minus == pytest.approx(0.5 - 2.0j)
        assert abs(lp.residue_minus) < 1e-14

    def test_against_cmath_oracle(self):
        lp = dl.lorentzian_poles(0.1, 0.0, 1.0, 0.0)
        r1, r2 = quadratic_oracle(0.1, 0.0, 1.0, 0.0)
        found = sorted((lp.omega_plus, lp.omega_minus), key=lambda z: z.real)
        expected = sorted((r1, r2), key=lambda z: z.real)
        for f, e in zip(found, expected):
            assert abs(f - e) < 1e-13
        for root in found:
            assert -1.0 < root.imag < 0.0

    def test_ordering_by_distance_to_level(self):
        lp = dl.lorentzian_poles(0.01, 3.0, 1.0, -2.0)
        assert abs(lp.omega_plus - (-2.0)) <= abs(lp.omega_minus - (-2.0))

    @given(a2=st.floats(1e-4, 2.0), center=st.floats(-3, 3),
           width=st.floats(0.05, 4.0), omega0=st.floats(-3, 3))
    @settings(max_examples=150, deadline=None)
    def test_bracket_property(self, a2, center, width, omega0):
        # both roots damped, with damping strictly inside (0, width)
        lp = dl.lorentzian_poles(a2, center, width, omega0)
        for root in (lp.omega_plus, lp.omega_minus):
            assert 0.0 < -root.imag < width
        assert abs(lp.residue_plus + lp.residue_minus - 1.0) < 1e-12

    def test_degenerate_roots_reported(self):
        # discriminant vanishes for omega0 = center = 0, A^2 = width^3/(4 pi)
        with pytest.raises(DegenerateRoots):
            dl.lorentzian_poles(1.0 / (4.0 * np.pi), 0.0, 1.0, 0.0)

    def test_width_validation(self):
        with pytest.raises(DomainError):
            dl.lorentzian_poles(0.1, 0.0, -1.0, 0.0)
