import numpy as np
import pytest
from scipy.integrate import quad

import decaylab as dl
from decaylab.errors import DomainError


class TestUpperSheet:
    def test_lorentzian_closed_form(self, lorentzian_se):
        # pi*A^2/b * 1/(omega - a + i b) anywhere in the upper half-plane
        for omega in (1j, 2.0 + 0.5j, -3.0 + 4.0j):
            expected = np.pi * 0.1 / (omega + 1j)
            assert lorentzian_se.sigma_upper(omega) == pytest.approx(expected)

    def test_lorentzian_quadrature_agrees(self, lorentzian_se):
        closed = lorentzian_se.sigma_upper(0.7 + 0.9j)
        numeric = lorentzian_se.sigma_upper(0.7 + 0.9j, force_quadrature=True)
        assert abs(closed - numeric) < 1e-9

    def test_zero_density_gives_zero(self):
        se = dl.SelfEnergy(dl.Box(amplitude_sq=0.0, half_width=10.0))
        assert se.sigma_upper(1j) == 0.0
        se2 = dl.SelfEnergy(dl.ThresholdPower(beta=0.0, exponent=0.5,
                                              threshold=0.0, cutoff=5.0))
        assert abs(se2.sigma_upper(2.0 + 1j)) < 1e-12

    def test_box_quadrature_vs_closed_form(self, box_se):
        closed = box_se.sigma_upper(1j)
        numeric = box_se.sigma_upper(1j, force_quadrature=True)
        assert abs(closed - numeric) < 1e-8

    def test_asymmetric_band_closed_form(self):
        se = dl.SelfEnergy(dl.AsymmetricBox(amplitude_sq=0.04, lower=-3.0, upper=9.0))
        for omega in (1j, 2.0 + 0.5j):
            assert abs(se.sigma_upper(omega)
                       - se.sigma_upper(omega, force_quadrature=True)) < 1e-8
        assert se.sigma_upper(2.0).imag == pytest.approx(-np.pi * 0.04)

    def test_imaginary_part_on_axis_is_minus_pi_density(self, box_se, threshold_se):
        for se, w in ((box_se, 37.0), (box_se, -80.0), (threshold_se, 5.0)):
            val = se.sigma_upper(w, force_quadrature=True)
            assert val.imag == pytest.approx(-np.pi * float(se.model.density(w)), abs=1e-9)

    def test_boundary_is_upper_limit(self, threshold_se):
        # the exact-real evaluation equals the small positive offset limit
        w = 5.0
        lim = threshold_se.sigma_upper(w + 1e-7j)
        val = threshold_se.sigma_upper(w)
        assert abs(lim - val) < 1e-5

    def test_lower_half_plane_rejected(self, box_se):
        with pytest.raises(DomainError):
            box_se.sigma_upper(1.0 - 1j)

    def test_sign_at_random_points_inside_support(self, threshold_se):
        rng = np.random.default_rng(42)
        for w in rng.uniform(0.5, 19.5, 10):
            val = threshold_se.sigma_upper(float(w), force_quadrature=True)
            assert val.imag < 0
            assert val.imag == pytest.approx(-np.pi * float(threshold_se.model.density(w)),
                                             rel=1e-6)


class TestSecondSheet:
    def test_box_wide_band_limit(self):
        # the continued self-energy tends to -i pi A^2 as the band widens
        a2 = 0.05
        omega = 1.0 - 0.5j
        previous = None
        for half_width in (1e3, 1e4, 1e5):
            se = dl.SelfEnergy(dl.Box(amplitude_sq=a2, half_width=half_width))
            val = se.sigma_continued(omega)
            dev = abs(val - (-1j * np.pi * a2))
            if previous is not None:
                assert dev < 0.2 * previous
            previous = dev
        assert dev < 1e-4

    def test_lorentzian_same_closed_form_below_axis(self, lorentzian_se):
        omega = 0.3 - 0.7j
        expected = np.pi * 0.1 / (omega + 1j)
        assert lorentzian_se.sigma_continued(omega) == pytest.approx(expected)
        numeric = lorentzian_se.sigma_continued(omega, force_quadrature=True)
        assert abs(numeric - expected) < 1e-8

    @pytest.mark.parametrize("se_name,w", [("box_se", 1.0), ("threshold_se", 5.0)])
    def test_cross_axis_continuity(self, se_name, w, request):
        se = request.getfixturevalue(se_name)
        below = se.sigma_continued(w - 1e-6j)
        above = se.sigma_upper(w + 1e-6j)
        assert abs(below - above) < 1e-4

    def test_equals_upper_sheet_above_axis(self, threshold_se):
        omega = 4.0 + 0.3j
        assert threshold_se.sigma_continued(omega) == pytest.approx(
            threshold_se.sigma_upper(omega))


class TestCutDiscontinuity:
    def test_threshold_closed_form(self, threshold_se):
        xi = 0.7
        expected = -2j * np.pi * 0.01 * (1j * xi) ** 0.5
        assert threshold_se.cut_discontinuity(xi) == pytest.approx(expected)

    def test_linear_exponent_hand_value(self):
        # alpha = beta = 1, mu = 0, xi = 1: -2*pi*i*(i) = 2*pi
        se = dl.SelfEnergy(dl.ThresholdPower(beta=1.0, exponent=1.0,
                                             threshold=0.0, cutoff=10.0))
        assert se.cut_discontinuity(1.0) == pytest.approx(2.0 * np.pi)

    def test_zero_at_threshold_for_positive_exponent(self, threshold_se):
        assert threshold_se.cut_discontinuity(0.0) == 0.0

    def test_two_sided_magnitude_agreement(self, threshold_se):
        # the measured sheet jump has the closed form's magnitude
        # (2*pi*beta*xi^alpha); the phase convention is fixed by the
        # closed form used throughout the cut quadrature
        for xi in (0.05, 0.5, 2.0):
            closed = threshold_se.cut_discontinuity(xi)
            measured = threshold_se.cut_discontinuity(xi, verify=True)
            assert abs(measured) == pytest.approx(abs(closed), rel=2e-3)

    def test_box_jump_is_constant(self, box_se):
        val = box_se.cut_discontinuity(0.5)
        assert val == pytest.approx(-2j * np.pi * 0.05)
        measured = box_se.cut_discontinuity(0.5, verify=True)
        assert abs(measured) == pytest.approx(abs(val), rel=1e-6)

    def test_requires_finite_threshold(self, lorentzian_se):
        with pytest.raises(DomainError):
            lorentzian_se.cut_discontinuity(1.0)


class TestRenormalization:
    def test_no_coupling(self):
        se = dl.SelfEnergy(dl.Box(amplitude_sq=0.0, half_width=2.0))
        rn = se.renormalize_below_threshold(-5.0)
        assert rn.Z == pytest.approx(1.0)
        assert rn.omega_tilde == pytest.approx(-5.0)

    def test_threshold_model_against_fine_grid_oracle(self):
        beta, alpha, mu, lam = 0.01, 0.5, 1.0, 50.0
        omega0 = 0.0
        se = dl.SelfEnergy(dl.ThresholdPower(beta=beta, exponent=alpha,
                                             threshold=mu, cutoff=lam))
        rn = se.renormalize_below_threshold(omega0)
        # independent fine-grid Simpson oracle
        eps = np.linspace(mu, lam, 2_000_001)
        dens = beta * (eps - mu) ** alpha
        from scipy.integrate import simpson
        shift = simpson(dens / (omega0 - eps), x=eps)
        curv = simpson(dens / (omega0 - eps) ** 2, x=eps)
        z_oracle = 1.0 / (1.0 + curv)
        assert rn.Z == pytest.approx(z_oracle, rel=1e-6)
        assert rn.omega_tilde == pytest.approx(omega0 + z_oracle * shift, rel=1e-6)
        assert 0.0 < rn.Z < 1.0
        assert rn.omega_tilde < omega0

    def test_box_against_log_antiderivative(self):
        # both integrals have elementary closed forms for a flat band
        a2, half_width, omega0 = 0.3, 2.0, -5.0
        se = dl.SelfEnergy(dl.Box(amplitude_sq=a2, half_width=half_width))
        rn = se.renormalize_below_threshold(omega0)
        shift = a2 * np.log((omega0 + half_width) / (omega0 - half_width))
        curv = a2 * (1.0 / (omega0 - half_width) - 1.0 / (omega0 + half_width))
        z = 1.0 / (1.0 + curv)
        assert rn.Z == pytest.approx(z, abs=1e-8)
        assert rn.omega_tilde == pytest.approx(omega0 + z * shift, abs=1e-8)
        assert rn.omega_tilde < omega0

    @pytest.mark.parametrize("gap", [1e-9, 1e-6, 1e-3])
    def test_box_just_below_its_edge(self, gap):
        # the log singularity at the edge may lie closer than the default
        # difference step; the curvature must still be the elementary one
        a2, half_width = 0.3, 2.0
        omega0 = -half_width - gap
        se = dl.SelfEnergy(dl.Box(amplitude_sq=a2, half_width=half_width))
        rn = se.renormalize_below_threshold(omega0)
        shift = a2 * np.log((omega0 + half_width) / (omega0 - half_width))
        curv = a2 * (1.0 / (omega0 - half_width) - 1.0 / (omega0 + half_width))
        z = 1.0 / (1.0 + curv)
        assert rn.Z == pytest.approx(z, rel=1e-6, abs=0)
        assert rn.omega_tilde - omega0 == pytest.approx(z * shift, rel=1e-6)

    def test_embedded_level_rejected(self, box_se, lorentzian_se):
        with pytest.raises(DomainError):
            box_se.renormalize_below_threshold(0.0)
        with pytest.raises(DomainError):
            lorentzian_se.renormalize_below_threshold(-100.0)


class TestGlobalProperties:
    def test_schwarz_reflection(self, threshold_se, box_se):
        for se in (threshold_se, box_se):
            for omega in (2.0 + 1.5j, -1.0 + 0.25j, 10.0 + 3j):
                up = se.sigma_physical(omega)
                down = se.sigma_physical(np.conj(omega))
                assert down == pytest.approx(np.conj(up), rel=1e-9)

    @pytest.mark.parametrize("model", [
        dl.Lorentzian(amplitude_sq=0.1, center=0.0, width=1.0),
        dl.Box(amplitude_sq=0.05, half_width=100.0),
        dl.ThresholdPower(beta=0.01, exponent=0.5, threshold=0.0, cutoff=20.0),
    ], ids=lambda m: type(m).__name__)
    def test_decay_at_infinity(self, model):
        se = dl.SelfEnergy(model)
        omega = 1j * 1e3 * model.char_width()
        assert abs(omega * se.sigma_upper(omega)) == pytest.approx(se.weight(), rel=0.01)

    def test_panel_rule_matches_adaptive(self, threshold_se):
        # the adaptive reference takes Im omega >= 0; reflect the points below
        for omega in (0.0 - 0.01j, 5.0 - 0.1j, 10.0 + 2j):
            fast = threshold_se.sigma_panel_rule(omega)
            slow = threshold_se.sigma_upper(omega.conjugate() if omega.imag < 0 else omega,
                                            force_quadrature=True)
            if omega.imag < 0:
                slow = slow.conjugate()
            assert abs(fast - slow) < 1e-4

    def test_eta_default_positive(self, threshold_se):
        assert threshold_se.eta > 0


TABLE_EPS = np.linspace(0.0, 20.0, 200)
SQRT_THRESHOLD = dl.ThresholdPower(beta=0.01, exponent=0.5, threshold=0.0, cutoff=20.0)
CAUCHY_MODELS = [
    dl.Lorentzian(amplitude_sq=0.1, center=0.3, width=1.0),
    dl.Box(amplitude_sq=0.05, half_width=100.0),
    dl.AsymmetricBox(amplitude_sq=0.04, lower=-3.0, upper=9.0),
    *[dl.ThresholdPower(beta=0.01, exponent=alpha, threshold=0.0, cutoff=20.0)
      for alpha in (0.25, 0.5, 1.0, 1.5)],
    dl.Tabulated(TABLE_EPS, SQRT_THRESHOLD.density(TABLE_EPS)),
]


def _model_id(model):
    if isinstance(model, dl.ThresholdPower):
        return f"ThresholdPower-{model.exponent}"
    return type(model).__name__


class TestCauchyTransform:
    """model.cauchy, the one production path, against independent references."""

    OFF_AXIS = (0.3 + 1e-3j, 5.0 + 1e-3j, 19.5 + 0.1j, -7.0 + 2.0j, 150.0 + 1e-3j,
                1e4 + 0.1j, 1e4j)
    # inside and outside every support above, away from its edges
    ON_AXIS = (-7.0, 0.3, 5.0, 8.5, 25.0, 150.0)

    @staticmethod
    def _close(value, reference):
        # the adaptive reference is good to about quad's epsabs of 1e-10
        return abs(value - reference) < 1e-9 + 1e-7 * abs(reference)

    @pytest.mark.parametrize("model", CAUCHY_MODELS, ids=_model_id)
    def test_matches_adaptive_quadrature(self, model):
        se = dl.SelfEnergy(model)
        for omega in self.OFF_AXIS:
            reference = se.sigma_upper(omega, force_quadrature=True)
            assert self._close(model.cauchy(omega), reference), omega
            # Schwarz reflection: the lower half-plane holds the conjugates
            assert self._close(model.cauchy(omega.conjugate()), reference.conjugate()), omega
        for w in self.ON_AXIS:
            reference = se.sigma_upper(w, force_quadrature=True)
            assert self._close(model.cauchy(w), reference), w
            assert model.cauchy(w).imag == pytest.approx(-np.pi * float(model.density(w)),
                                                         abs=1e-15)

    @pytest.mark.parametrize("model", CAUCHY_MODELS, ids=_model_id)
    def test_vectorized_matches_scalar(self, model):
        omegas = np.array([*self.OFF_AXIS, *np.conj(self.OFF_AXIS), *self.ON_AXIS])
        grid = model.cauchy(omegas.reshape(4, -1))
        assert grid.shape == (4, omegas.size // 4)
        scalars = np.array([complex(model.cauchy(w)) for w in omegas])
        # The tabulated sum cancels terms of size |omega| log|omega| down to
        # a value of size 1/|omega|, so at |omega| = 1e4 the summation order
        # shows at 1e-12 absolute.
        np.testing.assert_allclose(grid.ravel(), scalars, rtol=1e-13, atol=1e-11)

    @pytest.mark.parametrize("x", [0.5, 5.0, 19.5, -3.0, 30.0])
    def test_threshold_near_axis_against_elementary_form(self, x):
        # For alpha = 1 the transform is elementary; at Im omega = 1e-4 this
        # is the check, since the adaptive reference itself errs there.
        beta, cutoff = 0.01, 20.0
        model = dl.ThresholdPower(beta=beta, exponent=1.0, threshold=0.0, cutoff=cutoff)
        for omega in (x + 1e-4j, x - 1e-4j, x + 1e-9j):
            exact = beta * (omega * np.log(omega / (omega - cutoff)) - cutoff)
            assert abs(model.cauchy(omega) - exact) <= 1e-13 * abs(exact), omega
        # boundary value from above, with log|x / (x - cutoff)| - i*pi inside
        inside = 1.0 if 0.0 < x < cutoff else 0.0
        exact = beta * (x * (np.log(abs(x / (x - cutoff))) - 1j * np.pi * inside) - cutoff)
        assert abs(model.cauchy(x) - exact) <= 1e-13 * abs(exact)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.5])
    def test_threshold_value_at_threshold(self, alpha):
        beta, mu, cutoff = 0.01, 1.0, 21.0
        se = dl.SelfEnergy(dl.ThresholdPower(beta=beta, exponent=alpha, threshold=mu,
                                             cutoff=cutoff))
        expected = -beta * (cutoff - mu) ** alpha / alpha
        assert se.sigma_upper(mu) == pytest.approx(expected, rel=1e-14)
        assert se.sigma_upper(mu, force_quadrature=True) == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("model,edge", [
        (CAUCHY_MODELS[1], 100.0), (CAUCHY_MODELS[2], -3.0), (CAUCHY_MODELS[4], 20.0),
        (CAUCHY_MODELS[7], 20.0)], ids=lambda v: _model_id(v) if not isinstance(v, float) else "")
    def test_divergent_band_edge_rejected(self, model, edge):
        with pytest.raises(DomainError):
            dl.SelfEnergy(model).sigma_upper(edge)

    def test_reference_quadrature_on_a_long_table(self):
        # every interior knot is a quadrature breakpoint, however many there are
        table = CAUCHY_MODELS[-1]
        assert table.breakpoints() == tuple(TABLE_EPS[1:-1])
        se = dl.SelfEnergy(table)
        omega = 3.0 + 0.05j
        assert abs(se.sigma_upper(omega, force_quadrature=True) - se.sigma_upper(omega)) < 1e-12
