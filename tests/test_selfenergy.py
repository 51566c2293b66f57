import ast
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import decaylab as dl
from decaylab.errors import DomainError

from conftest import circle_derivative, sigma_quadrature


class TestUpperSheet:
    def test_lorentzian_closed_form(self, lorentzian_se):
        # pi*A^2/b * 1/(omega - a + i b) anywhere in the upper half-plane
        for omega in (1j, 2.0 + 0.5j, -3.0 + 4.0j):
            expected = np.pi * 0.1 / (omega + 1j)
            assert lorentzian_se.sigma_upper(omega) == pytest.approx(expected)

    def test_lorentzian_quadrature_agrees(self, lorentzian_se):
        closed = lorentzian_se.sigma_upper(0.7 + 0.9j)
        numeric = sigma_quadrature(lorentzian_se.model, 0.7 + 0.9j)
        assert abs(closed - numeric) < 1e-9

    def test_zero_density_gives_zero(self):
        se = dl.SelfEnergy(dl.Box(amplitude_sq=0.0, half_width=10.0))
        assert se.sigma_upper(1j) == 0.0
        se2 = dl.SelfEnergy(dl.ThresholdPower(beta=0.0, exponent=0.5,
                                              threshold=0.0, cutoff=5.0))
        assert abs(se2.sigma_upper(2.0 + 1j)) < 1e-12

    def test_box_quadrature_vs_closed_form(self, box_se):
        closed = box_se.sigma_upper(1j)
        numeric = sigma_quadrature(box_se.model, 1j)
        assert abs(closed - numeric) < 1e-8

    def test_asymmetric_band_closed_form(self):
        se = dl.SelfEnergy(dl.AsymmetricBox(amplitude_sq=0.04, lower=-3.0, upper=9.0))
        for omega in (1j, 2.0 + 0.5j):
            assert abs(se.sigma_upper(omega) - sigma_quadrature(se.model, omega)) < 1e-8
        assert se.sigma_upper(2.0).imag == pytest.approx(-np.pi * 0.04)

    def test_imaginary_part_on_axis_is_minus_pi_density(self, box_se, threshold_se):
        for se, w in ((box_se, 37.0), (box_se, -80.0), (threshold_se, 5.0)):
            val = sigma_quadrature(se.model, w)
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
            val = sigma_quadrature(threshold_se.model, float(w))
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
        model = lorentzian_se.model
        numeric = sigma_quadrature(model, omega) - 2j * np.pi * model.density_complex(omega)
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


def two_sided_jump(se, xi):
    """Sheet jump measured a distance eta either side of the vertical line
    at depth xi below the threshold."""
    eta = 1e-9 * se.model.char_width()
    w = se.model.support()[0] - 1j * xi
    return se.sigma_continued(w + eta) - se.sigma_physical(w - eta)


class TestCutDiscontinuity:
    def test_threshold_closed_form(self, threshold_se):
        xi = 0.7
        expected = -2j * np.pi * 0.01 * (-1j * xi) ** 0.5
        assert threshold_se.cut_discontinuity(xi) == pytest.approx(expected)

    def test_linear_exponent_hand_value(self):
        # alpha = beta = 1, mu = 0, xi = 1: -2*pi*i*(-i) = -2*pi
        se = dl.SelfEnergy(dl.ThresholdPower(beta=1.0, exponent=1.0,
                                             threshold=0.0, cutoff=10.0))
        assert se.cut_discontinuity(1.0) == pytest.approx(-2.0 * np.pi)

    def test_zero_at_threshold_for_positive_exponent(self, threshold_se):
        assert threshold_se.cut_discontinuity(0.0) == 0.0

    def test_two_sided_magnitude_agreement(self, threshold_se):
        # the measured sheet jump is the closed form, phase included: the
        # cut hangs at mu - i*xi, so the density continues to (-i*xi)^alpha
        for xi in (0.05, 0.5, 2.0):
            closed = threshold_se.cut_discontinuity(xi)
            measured = two_sided_jump(threshold_se, xi)
            assert measured == pytest.approx(closed, rel=2e-3)

    def test_box_jump_is_constant(self, box_se):
        val = box_se.cut_discontinuity(0.5)
        assert val == pytest.approx(-2j * np.pi * 0.05)
        measured = two_sided_jump(box_se, 0.5)
        assert measured == pytest.approx(val, rel=1e-6)

    def test_requires_finite_threshold(self, lorentzian_se):
        with pytest.raises(DomainError):
            lorentzian_se.cut_discontinuity(1.0)

    def test_array_matches_scalars(self, threshold_se):
        xi = np.array([[0.0, 0.05], [0.5, 2.0]])
        jumps = threshold_se.cut_discontinuity(xi)
        assert jumps.shape == xi.shape
        np.testing.assert_allclose(
            jumps.ravel(), [threshold_se.cut_discontinuity(x) for x in xi.ravel()], rtol=1e-15)
        with pytest.raises(DomainError):
            threshold_se.cut_discontinuity(np.array([0.5, -1e-3]))


class TestArrayEvaluators:
    POINTS = np.array([0.3 + 1e-3j, 5.0 - 0.2j, 19.5 + 0.1j, -7.0 - 2.0j, 8.5, 25.0])

    @pytest.mark.parametrize("name", ["sigma_upper", "sigma_continued", "sigma_physical"])
    def test_array_matches_scalars(self, threshold_se, name):
        method = getattr(threshold_se, name)
        points = self.POINTS
        if name == "sigma_upper":
            points = points[points.imag >= 0]
        elif name == "sigma_physical":
            points = points[points.imag != 0]
        values = method(points.reshape(1, -1))
        assert values.shape == (1, points.size)
        scalars = [method(w) for w in points]
        assert all(np.ndim(v) == 0 for v in scalars)
        np.testing.assert_allclose(values.ravel(), scalars, rtol=1e-15)

    def test_any_element_raises(self, threshold_se, box_se):
        with pytest.raises(DomainError):
            threshold_se.sigma_physical(np.array([1.0 + 1j, 2.0]))
        with pytest.raises(DomainError):
            threshold_se.sigma_upper(np.array([1.0 + 1j, 2.0 - 1e-9j]))
        with pytest.raises(DomainError):   # a divergent band edge
            box_se.sigma_upper(np.array([1.0 + 1j, 100.0]))
        with pytest.raises(DomainError):
            box_se.sigma_continued(np.array([1.0 - 1j, 100.0]))


class TestRenormalization:
    def test_no_coupling(self):
        se = dl.SelfEnergy(dl.Box(amplitude_sq=0.0, half_width=2.0))
        rn = se.renormalize_below_threshold(-5.0)
        assert rn.Z == pytest.approx(1.0)
        assert rn.omega_tilde == pytest.approx(-5.0)

    def test_threshold_model_against_fine_grid_oracle(self):
        # the bound state is the zero of omega - omega0 - Sigma, and Z its weight
        beta, alpha, mu, lam = 0.01, 0.5, 1.0, 50.0
        omega0 = 0.0
        se = dl.SelfEnergy(dl.ThresholdPower(beta=beta, exponent=alpha,
                                             threshold=mu, cutoff=lam))
        rn = se.renormalize_below_threshold(omega0)
        # independent fine-grid Simpson oracle of Sigma and Sigma' at the root
        eps = np.linspace(mu, lam, 2_000_001)
        dens = beta * (eps - mu) ** alpha
        from scipy.integrate import simpson
        shift = simpson(dens / (rn.omega_tilde - eps), x=eps)
        curv = simpson(dens / (rn.omega_tilde - eps) ** 2, x=eps)
        assert rn.omega_tilde - omega0 - shift == pytest.approx(0.0, abs=1e-9)
        assert rn.Z == pytest.approx(1.0 / (1.0 + curv), rel=1e-8)
        assert 0.0 < rn.Z < 1.0
        assert rn.omega_tilde < omega0

    @staticmethod
    def box_residual_and_weight(a2, half_width, omega0, energy):
        """g(E) and 1/(1 - Sigma'(E)) of a flat band from the elementary log."""
        shift = a2 * np.log((energy + half_width) / (energy - half_width))
        curv = a2 * (1.0 / (energy - half_width) - 1.0 / (energy + half_width))
        return energy - omega0 - shift, 1.0 / (1.0 + curv)

    def test_box_against_log_antiderivative(self):
        a2, half_width, omega0 = 0.3, 2.0, -5.0
        se = dl.SelfEnergy(dl.Box(amplitude_sq=a2, half_width=half_width))
        rn = se.renormalize_below_threshold(omega0)
        g, z = self.box_residual_and_weight(a2, half_width, omega0, rn.omega_tilde)
        assert abs(g) <= 1e-12
        assert rn.Z == pytest.approx(z, rel=1e-12)
        assert rn.omega_tilde < omega0

    @pytest.mark.parametrize("gap", [1e-9, 1e-6, 1e-3])
    def test_box_just_below_its_edge(self, gap):
        # the log singularity at the edge lies next to the level, but the
        # bound state, 0.6 further down, keeps a weight near 0.7
        a2, half_width = 0.3, 2.0
        omega0 = -half_width - gap
        se = dl.SelfEnergy(dl.Box(amplitude_sq=a2, half_width=half_width))
        rn = se.renormalize_below_threshold(omega0)
        g, z = self.box_residual_and_weight(a2, half_width, omega0, rn.omega_tilde)
        assert abs(g) <= 1e-12
        assert abs(rn.Z - z) <= 1e-10
        assert 0.7000 <= rn.Z <= 0.7003

    def test_box_weight_against_matrix_oracle(self):
        # the late-time mean of |A|^2 before the recurrence is Z^2
        model = dl.Box(amplitude_sq=0.3, half_width=2.0)
        omega0 = -2.0 - 1e-3
        rn = dl.SelfEnergy(model).renormalize_below_threshold(omega0)
        discrete = dl.build_discrete(model, omega0, 3000)
        times = np.linspace(0.0, 0.4 * discrete.recurrence_time(), 800)
        series, _ = dl.survival_exact_discrete(discrete, times[400:])
        assert abs(np.mean(series.probability()) - rn.Z**2) <= 1e-4

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
        assert abs(omega * se.sigma_upper(omega)) == pytest.approx(model.total_weight(),
                                                                   rel=0.01)

    def test_panel_rule_matches_adaptive(self, threshold_se):
        for omega in (0.0 - 0.01j, 5.0 - 0.1j, 10.0 + 2j):
            fast = threshold_se.sigma_panel_rule(omega)
            slow = sigma_quadrature(threshold_se.model, omega)
            assert abs(fast - slow) < 1e-4


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

    @staticmethod
    def _close_derivative(value, reference):
        # The circle reference is good to about 1e-11 relative
        return abs(value - reference) <= 1e-9 * abs(reference)

    @pytest.mark.parametrize("model", CAUCHY_MODELS, ids=_model_id)
    def test_matches_adaptive_quadrature(self, model):
        for omega in self.OFF_AXIS:
            reference = sigma_quadrature(model, omega)
            assert self._close(model.cauchy(omega), reference), omega
            # Schwarz reflection: the lower half-plane holds the conjugates
            assert self._close(model.cauchy(omega.conjugate()), reference.conjugate()), omega
        for w in self.ON_AXIS:
            reference = sigma_quadrature(model, w)
            assert self._close(model.cauchy(w), reference), w
            assert model.cauchy(w).imag == pytest.approx(-np.pi * float(model.density(w)),
                                                         abs=1e-15)

    @pytest.mark.parametrize("model", CAUCHY_MODELS, ids=_model_id)
    def test_derivative_matches_circle_average(self, model):
        lo, hi = model.support()
        below = [lo - 1.0, lo - 5.0] if np.isfinite(lo) else []
        for omega in (*self.OFF_AXIS, *np.conj(self.OFF_AXIS), *below):
            # the physical sheet is analytic off the support
            radius = 0.5 * abs(omega - np.clip(omega.real, lo, hi))
            reference = circle_derivative(model.cauchy, omega, radius)
            assert self._close_derivative(model.cauchy_derivative(omega), reference), omega

    @pytest.mark.parametrize("model", CAUCHY_MODELS[:-1], ids=_model_id)
    def test_continued_derivative_matches_circle_average(self, model):
        se = dl.SelfEnergy(model)
        lo, hi = model.support()
        for omega in np.conj(self.OFF_AXIS):
            if not lo < omega.real < hi:
                continue
            # below the axis and inside the strip where the density continues
            radius = 0.5 * min(-omega.imag, omega.real - lo, hi - omega.real)
            reference = circle_derivative(se.sigma_continued, omega, radius)
            assert self._close_derivative(se.sigma_continued_derivative(omega), reference), omega

    @pytest.mark.parametrize("model", CAUCHY_MODELS, ids=_model_id)
    def test_vectorized_matches_scalar(self, model):
        omegas = np.array([*self.OFF_AXIS, *np.conj(self.OFF_AXIS), *self.ON_AXIS])
        for transform in (model.cauchy, model.cauchy_derivative):
            grid = transform(omegas.reshape(4, -1))
            assert grid.shape == (4, omegas.size // 4)
            scalars = np.array([complex(transform(w)) for w in omegas])
            np.testing.assert_allclose(grid.ravel(), scalars, rtol=1e-13)

    # expansion points: damped, as the inversion takes them, and real
    MOMENT_POINTS = (1.3 - 4.0j, 5.0 - 20.0j, -2.0)

    @staticmethod
    def _radius(model, z0):
        """Distance from z0 to the farthest singularity of the moment series."""
        lo, hi = model.support()
        if np.isfinite(lo):
            return max(abs(lo - z0), abs(hi - z0))
        return abs(complex(model.center, -model.width) - z0)

    @pytest.mark.parametrize("model", CAUCHY_MODELS[1:], ids=_model_id)
    def test_moments_match_quadrature(self, model):
        # adaptive, split at the breakpoints, between which D is smooth
        lo, hi = model.support()
        inner = model.breakpoints()
        for z0 in self.MOMENT_POINTS:
            moments = model.moments(z0, 7)
            assert moments.shape == (7,)
            for j, moment in enumerate(moments):
                reference = integrate.quad(
                    lambda e: model.density(e) * (e - z0) ** j, lo, hi, points=inner or None,
                    limit=10 * len(inner) + 50, epsabs=0.0, epsrel=1e-12, complex_func=True)[0]
                scale = model.total_weight() * self._radius(model, z0) ** j
                assert abs(moment - reference) <= 1e-11 * scale, (z0, j)
            # a scale s divides the j-th moment by s^j
            np.testing.assert_allclose(model.moments(z0, 7, scale=3.0),
                                       moments / 3.0 ** np.arange(7), rtol=1e-13)

    @pytest.mark.parametrize("model", CAUCHY_MODELS, ids=_model_id)
    def test_moment_series_matches_cauchy(self, model):
        # sum_j mu_j / (omega - z0)^(j+1) is Sigma above the axis, the
        # Lorentzian's exact W / (omega - center + i width) included; at four
        # radii, 24 terms leave a relative remainder of about 4^-24.  The
        # reference is the closed form, since cauchy itself takes a moment
        # series this far out; the tabulated knot sum cancels to about 3e-13
        # of its value there.
        for z0 in self.MOMENT_POINTS[:2]:
            moments = model.moments(z0, 24)
            radius = self._radius(model, z0)
            for angle in (0.6, 1.2, 1.9, 2.6):
                omega = z0 + 4.0 * radius * np.exp(1j * angle)
                assert omega.imag > 0
                u = 1.0 / (omega - z0)
                series = np.sum(moments * u ** np.arange(1, 25))
                exact = model._cauchy_closed(np.asarray(omega))
                assert abs(series - exact) <= 1e-12 * abs(exact), (z0, angle)

    @pytest.mark.parametrize("model", CAUCHY_MODELS[1:], ids=_model_id)
    def test_far_field_against_mpmath(self, model):
        # far from the support, where the Laurent series serves both
        lo, hi = model.support()
        centre = 0.5 * (lo + hi)
        for omega in (1e4 + 0.1j, centre + 200.0 * np.exp(1j), centre + 20.5 * np.exp(0.3j)):
            exact, slope = _mpmath_transform(model, omega)
            assert abs(model.cauchy(omega) - exact) <= 1e-14 * abs(exact), omega
            assert abs(model.cauchy_derivative(omega) - slope) <= 1e-14 * abs(slope), omega

    @pytest.mark.parametrize("scale", [2.0 * (1.0 - 1e-9), 1.5, 1.1])
    def test_table_inside_the_switch_against_mpmath(self, scale):
        # between R and 2R from the centre the knot terms cancelled to 7.6e-14
        # of the value before their logs were referred to log(omega - c)
        table = CAUCHY_MODELS[-1]
        for angle in np.linspace(-np.pi, np.pi, 25)[1:]:
            omega = 10.0 + 10.0 * scale * np.exp(1j * angle)
            if angle in (0.0, np.pi):
                omega = complex(omega.real, 0.0)   # on the axis, from above
            exact, slope = _mpmath_transform(table, omega)
            assert abs(table.cauchy(omega) - exact) <= 2e-14 * abs(exact), omega
            assert abs(table.cauchy_derivative(omega) - slope) <= 2e-14 * abs(slope), omega

    def test_table_at_its_centre_and_knots(self):
        # omega - c vanishes at the centre, where the logs are referred to
        # log R; at a knot on the axis u log u is 0 log 0 = 0, at the last one
        # D does not vanish and the log diverges, and Sigma' is infinite at
        # every knot where D bends
        table = CAUCHY_MODELS[-1]
        points = np.concatenate([[10.0], TABLE_EPS]).astype(complex)
        values, slopes = table.cauchy(points), table.cauchy_derivative(points)
        exact, slope = _mpmath_transform(table, 10.0)
        assert abs(values[0] - exact) <= 1e-14 * abs(exact)
        assert abs(slopes[0] - slope) <= 1e-14 * abs(slope)
        for omega, value in zip(points[1:-1], values[1:-1]):
            exact, _ = _mpmath_transform(table, omega)
            assert abs(value - exact) <= 1e-13 * abs(exact), omega
        assert np.isinf(values[-1]) and np.all(np.isinf(slopes[1:]))
        # where D runs straight through a knot, 0 log 0 = 0 leaves Sigma' finite
        straight = dl.Tabulated([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 0.0])
        slope = straight.cauchy_derivative(1.0)
        assert abs(slope - _mpmath_transform(straight, 1.0)[1]) <= 1e-14 * abs(slope)

    @pytest.mark.parametrize("model", CAUCHY_MODELS[1:], ids=_model_id)
    @given(angle=st.floats(0.0, 2.0 * np.pi), side=st.sampled_from([1.0, -1.0]))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_near_and_far_agree_at_the_switch(self, model, angle, side):
        # a hair outside |omega - c| = 2R, where cauchy takes the series,
        # and a hair inside, where it takes the closed form, against the other
        lo, hi = model.support()
        centre, radius = 0.5 * (lo + hi), 0.5 * (hi - lo)
        omega = np.asarray(centre + 2.0 * radius * (1.0 + side * 1e-9) * np.exp(1j * angle))
        pairs = ((model.cauchy, model._cauchy_closed, 0),
                 (model.cauchy_derivative, model._cauchy_derivative_closed, 1))
        for public, closed, order in pairs:
            other = (closed(omega) if side > 0
                     else model._laurent(radius / (omega - centre), radius, order))
            assert abs(public(omega) - other) <= 1e-14 * abs(other), (order, omega)

    @pytest.mark.parametrize("x", [0.5, 5.0, 19.5, -3.0, 30.0, -1e-9])
    def test_threshold_near_axis_against_elementary_form(self, x):
        # For alpha = 1 the transform and its derivative are elementary; at
        # Im omega = 1e-4 this is the check, since the adaptive reference
        # itself errs there, and x = -1e-9 tests just below the threshold.
        beta, cutoff = 0.01, 20.0
        model = dl.ThresholdPower(beta=beta, exponent=1.0, threshold=0.0, cutoff=cutoff)
        for omega in (x + 1e-4j, x - 1e-4j, x + 1e-9j):
            exact = beta * (omega * np.log(omega / (omega - cutoff)) - cutoff)
            assert abs(model.cauchy(omega) - exact) <= 1e-13 * abs(exact), omega
            exact = beta * (np.log(omega / (omega - cutoff)) - cutoff / (omega - cutoff))
            assert abs(model.cauchy_derivative(omega) - exact) <= 1e-12 * abs(exact), omega
        # boundary value from above, with log|x / (x - cutoff)| - i*pi inside
        inside = 1.0 if 0.0 < x < cutoff else 0.0
        log = np.log(abs(x / (x - cutoff))) - 1j * np.pi * inside
        exact = beta * (x * log - cutoff)
        assert abs(model.cauchy(x) - exact) <= 1e-13 * abs(exact)
        exact = beta * (log - cutoff / (x - cutoff))
        assert abs(model.cauchy_derivative(x) - exact) <= 1e-12 * abs(exact)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.5])
    def test_threshold_value_at_threshold(self, alpha):
        beta, mu, cutoff = 0.01, 1.0, 21.0
        se = dl.SelfEnergy(dl.ThresholdPower(beta=beta, exponent=alpha, threshold=mu,
                                             cutoff=cutoff))
        expected = -beta * (cutoff - mu) ** alpha / alpha
        assert se.sigma_upper(mu) == pytest.approx(expected, rel=1e-14)
        assert sigma_quadrature(se.model, mu) == pytest.approx(expected, rel=1e-8)
        # minus the integral of beta (eps - mu)^(alpha - 2), finite for alpha > 1 only
        slope = -beta * (cutoff - mu) ** (alpha - 1) / (alpha - 1) if alpha > 1 else -np.inf
        assert se.model.cauchy_derivative(mu) == pytest.approx(slope, rel=1e-14)

    @pytest.mark.parametrize("model,edge", [
        (CAUCHY_MODELS[1], 100.0), (CAUCHY_MODELS[2], -3.0), (CAUCHY_MODELS[4], 20.0),
        (CAUCHY_MODELS[7], 20.0)], ids=lambda v: _model_id(v) if not isinstance(v, float) else "")
    def test_divergent_band_edge_rejected(self, model, edge):
        with pytest.raises(DomainError):
            dl.SelfEnergy(model).sigma_upper(edge)
        # the derivative is infinite there, without a warning
        assert np.isinf(model.cauchy_derivative(edge))

    def test_reference_quadrature_on_a_long_table(self):
        # every interior knot is a quadrature breakpoint, however many there are
        table = CAUCHY_MODELS[-1]
        assert table.breakpoints() == tuple(TABLE_EPS[1:-1])
        se = dl.SelfEnergy(table)
        omega = 3.0 + 0.05j
        assert abs(sigma_quadrature(table, omega) - se.sigma_upper(omega)) < 1e-12


def _mpmath_transform(model, omega):
    """cauchy and cauchy_derivative at omega in 40 digits, from each closed form."""
    with mpmath.workdps(40):
        w = mpmath.mpc(omega)
        if isinstance(model, dl.AsymmetricBox):
            a2, a, b = (mpmath.mpf(v) for v in (model.amplitude_sq, model.lower, model.upper))
            values = (a2 * (mpmath.log(w - a) - mpmath.log(w - b)),
                      a2 * (a - b) / ((w - a) * (w - b)))
        elif isinstance(model, dl.ThresholdPower):
            beta, alpha, mu, cutoff = (mpmath.mpf(v) for v in (
                model.beta, model.exponent, model.threshold, model.cutoff))
            z, span, a = w - mu, cutoff - mu, alpha + 1
            values = (beta * span**a / (a * z) * mpmath.hyp2f1(1, a, a + 1, span / z),
                      -beta * span**a / (a * z * z) * mpmath.hyp2f1(2, a, a + 1, span / z))
        else:
            x = [mpmath.mpf(v) for v in model._eps]
            y = [mpmath.mpf(v) for v in model._vals]
            slopes = [(y[i + 1] - y[i]) / (x[i + 1] - x[i]) for i in range(len(x) - 1)]
            kinks = [b - a for a, b in zip([0, *slopes], [*slopes, 0])]
            # 0 log 0 = 0 where omega is a knot
            logs = [mpmath.log(w - xk) if w != xk else 0 for xk in x]
            values = (y[0] * (logs[0] + 1) - y[-1] * (logs[-1] + 1)
                      + sum(k * (w - xk) * log for k, xk, log in zip(kinks, x, logs)),
                      sum(yk / (w - xk) for yk, xk in ((y[0], x[0]), (-y[-1], x[-1])) if yk)
                      + sum(k * log for k, log in zip(kinks, logs)))
        return tuple(complex(v) for v in values)


def test_adaptive_reference_stays_out_of_production():
    # Adaptive quadrature is a cross-check only: it lives in the tests as
    # conftest's sigma_quadrature, which no package module names, and no
    # package module imports scipy.integrate.
    naming, importing = set(), set()
    for path in Path(dl.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if "sigma_quadrature" in {getattr(node, k, None) for k in ("id", "attr", "name")}:
                naming.add(path.name)
            if isinstance(node, ast.Import):
                modules = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                modules = {node.module, *(f"{node.module}.{alias.name}" for alias in node.names)}
            else:
                continue
            if "scipy.integrate" in modules:
                importing.add(path.name)
    assert naming == set()
    assert importing == set()
