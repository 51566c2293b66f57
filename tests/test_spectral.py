import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decaylab as dl
from decaylab.errors import DomainError


class TestBox:
    def test_inside_value(self):
        box = dl.Box(amplitude_sq=0.05, half_width=100.0)
        assert box.density(0.0) == 0.05

    def test_outside_zero(self):
        box = dl.Box(amplitude_sq=0.05, half_width=100.0)
        assert box.density(101.0) == 0.0
        assert box.density(-101.0) == 0.0

    def test_support(self):
        assert dl.Box(amplitude_sq=1.0, half_width=5.0).support() == (-5.0, 5.0)

    def test_validation(self):
        for half_width in (0.0, -1.0):
            with pytest.raises(DomainError, match="half_width must be positive"):
                dl.Box(amplitude_sq=0.05, half_width=half_width)
        box = dl.Box(amplitude_sq=0.05, half_width=5.0)
        for bad in (np.nan, np.array([0.0, np.inf])):
            with pytest.raises(DomainError, match="finite real energies"):
                box.density(bad)

    def test_strip_continuation_is_constant(self):
        box = dl.Box(amplitude_sq=0.3, half_width=2.0)
        for z in (0.5 + 1j, -1.9 - 0.3j, 1e-3j):
            assert box.density_complex(z) == 0.3
        values = box.density_complex(np.array([[0.5 + 1j, -2.0 - 0.3j]]))
        assert values.shape == (1, 2) and np.all(values == 0.3)

    def test_continuation_rejected_outside_strip(self):
        box = dl.Box(amplitude_sq=0.3, half_width=2.0)
        # an array raises when any of its elements does
        for bad in (3.0 + 1j, np.array([0.5 + 1j, 3.0 + 1j])):
            with pytest.raises(DomainError):
                box.density_complex(bad)
        for bad in (2.0, np.array([0.5 + 1j, -2.0])):
            with pytest.raises(DomainError, match="undefined at/beyond the real band edges"):
                box.density_complex(bad)

    def test_total_weight(self):
        assert dl.Box(amplitude_sq=0.05, half_width=100.0).total_weight() == pytest.approx(10.0)

    def test_wide_band_far_field_stays_finite(self):
        # R^56 overflows at R = 1e6; the far series' moments are scaled by R^n
        box = dl.Box(amplitude_sq=0.05, half_width=1e6)
        j = np.arange(56)
        expected = np.where(j % 2 == 0, 2 * 0.05 * 1e6 / (j + 1), 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_allclose(box.moments(0.0, 56, scale=1e6), expected,
                                       rtol=1e-14, atol=1e-20)
            omega = np.array([3e6 + 1.0j, -1e9, 2e6j])
            got = box.cauchy(omega)
        with mpmath.workdps(40):
            exact = [complex(0.05 * (mpmath.log(w + 1e6) - mpmath.log(w - 1e6)))
                     for w in map(mpmath.mpc, omega)]
        np.testing.assert_allclose(got, exact, rtol=1e-14, atol=0)


class TestLorentzian:
    def test_peak_value(self):
        m = dl.Lorentzian(amplitude_sq=0.3, center=1.5, width=0.5)
        assert m.density(1.5) == pytest.approx(0.3 / 0.25)

    def test_support_unbounded(self):
        lo, hi = dl.Lorentzian(amplitude_sq=1.0).support()
        assert lo == -np.inf and hi == np.inf

    def test_complex_restricts_to_real_axis(self):
        m = dl.Lorentzian(amplitude_sq=0.2, center=-0.3, width=1.2)
        for eps in (-3.0, 0.0, 0.7, 11.0):
            assert abs(m.density_complex(eps) - m.density(eps)) < 1e-12

    def test_singular_point(self):
        m = dl.Lorentzian(amplitude_sq=0.2, center=0.0, width=1.0)
        for bad in (1j, np.array([0.5, -1j])):
            with pytest.raises(DomainError, match=r"singular at center ± i\*width"):
                m.density_complex(bad)

    def test_weight(self):
        m = dl.Lorentzian(amplitude_sq=0.1, width=2.0)
        assert m.total_weight() == pytest.approx(np.pi * 0.1 / 2.0)

    def test_validation(self):
        with pytest.raises(DomainError, match="amplitude_sq must be nonnegative"):
            dl.Lorentzian(amplitude_sq=-0.1)


class TestThresholdPower:
    def test_below_threshold_zero(self):
        m = dl.ThresholdPower(beta=1.0, exponent=0.5, threshold=2.0, cutoff=10.0)
        assert m.density(1.0) == 0.0

    def test_support(self):
        m = dl.ThresholdPower(beta=1.0, exponent=0.5, threshold=2.0, cutoff=10.0)
        assert m.support() == (2.0, 10.0)

    def test_principal_branch_up_the_imaginary_axis(self):
        # beta * (i xi)^alpha with xi = 1 and alpha = 1/2 is exp(i pi/4)
        m = dl.ThresholdPower(beta=1.0, exponent=0.5, threshold=0.0, cutoff=10.0)
        val = m.density_complex(1j)
        assert val == pytest.approx(np.exp(1j * np.pi / 4))

    def test_real_axis_matches_density(self):
        m = dl.ThresholdPower(beta=0.7, exponent=0.5, threshold=1.0, cutoff=9.0)
        for eps in (1.5, 2.0, 8.0):
            assert abs(m.density_complex(eps) - m.density(eps)) < 1e-12
        eps = np.array([1.5, 2.0, 8.0])
        np.testing.assert_allclose(m.density_complex(eps), m.density(eps), atol=1e-12)

    def test_branch_point(self):
        m = dl.ThresholdPower(beta=1.0, exponent=0.5, threshold=3.0, cutoff=10.0)
        for bad in (3.0, np.array([4.0 - 1j, 3.0])):
            with pytest.raises(DomainError, match="threshold is a branch point"):
                m.density_complex(bad)
            with pytest.raises(DomainError, match="threshold is a branch point"):
                m.density_complex_derivative(bad)

    def test_integer_exponent_has_no_branch_point(self):
        m = dl.ThresholdPower(beta=1.0, exponent=1.0, threshold=3.0, cutoff=10.0)
        assert m.density_complex(3.0) == 0.0
        assert np.array_equal(m.density_complex(np.array([3.0, 4.0 - 1j])), [0.0, 1.0 - 1j])

    @pytest.mark.parametrize("alpha", [-0.5, 0.5, 1.5])
    def test_moments_against_mpmath(self, alpha):
        # about the support's centre at its half-width, as the far series
        # takes them, and unscaled about a damped point, as the inversion does
        m = dl.ThresholdPower(beta=0.01, exponent=alpha, threshold=1.0, cutoff=21.0)
        for z0, scale in ((11.0, 10.0), (6.0 - 20.0j, 1.0), (6.0 - 300.0j, 300.0)):
            got = m.moments(z0, 56, scale=scale)
            with mpmath.workdps(100):
                d, span, a = mpmath.mpc(z0) - 1, mpmath.mpf(20), mpmath.mpf(alpha) + 1
                exact = [complex(0.01 * sum(mpmath.binomial(n, i) * (-d) ** (n - i)
                                            * span ** (a + i) / (a + i) for i in range(n + 1))
                                 / mpmath.mpf(scale) ** n) for n in range(56)]
            np.testing.assert_allclose(got, exact, rtol=1e-14, atol=0)

    def test_validation(self):
        with pytest.raises(DomainError):
            dl.ThresholdPower(beta=1.0, exponent=-1.5, threshold=0.0, cutoff=1.0)
        with pytest.raises(DomainError):
            dl.ThresholdPower(beta=1.0, exponent=0.5, threshold=1.0, cutoff=1.0)
        with pytest.raises(DomainError, match="beta must be nonnegative"):
            dl.ThresholdPower(beta=-1.0, exponent=0.5, threshold=0.0, cutoff=1.0)


class TestAsymmetricBox:
    def test_density_and_support(self):
        m = dl.AsymmetricBox(amplitude_sq=0.2, lower=-1.0, upper=3.0)
        assert m.support() == (-1.0, 3.0)
        assert m.density(0.0) == 0.2
        assert m.density(3.5) == 0.0
        assert m.density_complex(1.0 - 0.2j) == 0.2

    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            dl.AsymmetricBox(amplitude_sq=0.2, lower=3.0, upper=-1.0)

    def test_validation(self):
        with pytest.raises(DomainError, match="amplitude_sq must be nonnegative"):
            dl.AsymmetricBox(amplitude_sq=-0.2, lower=-1.0, upper=3.0)

    @pytest.mark.parametrize("omega", [1e3, 1e5, 1e7, -1e7, 1e5 * (1 + 1j), 5.0,
                                       2.0 + 1e-3, -2.0 - 1e-10, 0.3, 0.3 + 1e-3j])
    def test_cauchy_full_accuracy_against_mpmath(self, omega):
        # far from the band, where log(w + 2) - log(w - 2) would cancel to
        # 4/w, the moment series serves; near it and on the upper lip
        # (Im = -pi) the difference of logs is exact
        with mpmath.workdps(40):
            w = mpmath.mpc(omega)
            exact = complex(mpmath.log(w + 2) - mpmath.log(w - 2))
        got = dl.Box(amplitude_sq=1.0, half_width=2.0).cauchy(omega)
        assert abs(got - exact) <= 1e-14 * abs(exact)


class TestTabulated:
    def test_interpolation(self):
        m = dl.Tabulated(eps=[0.0, 1.0, 2.0], values=[0.0, 1.0, 0.0])
        assert m.density(0.5) == pytest.approx(0.5)
        assert m.density(-0.1) == 0.0
        assert m.density(2.1) == 0.0

    def test_no_continuation(self):
        m = dl.Tabulated(eps=[0.0, 1.0], values=[1.0, 1.0])
        with pytest.raises(DomainError, match="Tabulated does not support complex continuation"):
            m.density_complex(0.5 + 0.1j)

    def test_repr_names_the_knot_count_and_span(self):
        m = dl.Tabulated(eps=[0.0, 1.0, 2.0], values=[0.0, 1.0, 0.0])
        assert repr(m) == "Tabulated(n=3, span=(0.0, 2.0))"
        # a long table still gives one short line, not its knots
        text = repr(dl.Tabulated(eps=np.linspace(-1.0, 1.0, 10**5), values=np.ones(10**5)))
        assert text == "Tabulated(n=100000, span=(-1.0, 1.0))"

    def test_validation(self):
        with pytest.raises(DomainError):
            dl.Tabulated(eps=[0.0, 0.0], values=[1.0, 1.0])
        with pytest.raises(DomainError):
            dl.Tabulated(eps=[0.0, 1.0], values=[1.0, -1.0])
        for eps, values in (([0.0, 1.0, 2.0], [1.0, 1.0]), ([0.0], [1.0]),
                            ([[0.0, 1.0]], [[1.0, 1.0]])):
            with pytest.raises(DomainError, match="matching 1-d eps/values arrays"):
                dl.Tabulated(eps=eps, values=values)
        # nan slips past both comparisons above, since nan < 0 is False
        for eps, values in (([0.0, 1.0, 2.0], [1.0, np.nan, 1.0]),
                            ([0.0, 1.0, 2.0], [1.0, np.inf, 1.0]),
                            ([0.0, np.nan, 2.0], [1.0, 1.0, 1.0]),
                            ([0.0, 1.0, np.inf], [1.0, 1.0, 1.0])):
            with pytest.raises(DomainError):
                dl.Tabulated(eps=eps, values=values)


MODELS = [
    dl.Lorentzian(amplitude_sq=0.1, center=0.3, width=0.8),
    dl.Box(amplitude_sq=0.05, half_width=100.0),
    dl.AsymmetricBox(amplitude_sq=0.07, lower=-2.0, upper=5.0),
    dl.ThresholdPower(beta=0.01, exponent=0.5, threshold=0.0, cutoff=20.0),
    dl.Tabulated(eps=[0.0, 0.5, 1.0, 2.0], values=[0.0, 2.0, 1.0, 0.0]),
]


@pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
@given(eps=st.floats(-1e3, 1e3))
@settings(max_examples=50, deadline=None)
def test_density_nonnegative(model, eps):
    assert model.density(eps) >= 0.0


@pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
def test_density_zero_outside_support(model):
    lo, hi = model.support()
    width = model.char_width()
    for eps in np.linspace(1e-9, 5 * width, 37):
        if np.isfinite(lo):
            assert model.density(lo - eps) == 0.0
        if np.isfinite(hi):
            assert model.density(hi + eps) == 0.0


@pytest.mark.parametrize("model", MODELS[:4], ids=lambda m: type(m).__name__)
def test_complex_continuation_matches_on_real_axis(model):
    lo, hi = model.support()
    lo = max(lo, -50.0)
    hi = min(hi, 50.0)
    for eps in np.linspace(lo, hi, 19)[1:-1]:
        assert abs(model.density_complex(float(eps)) - model.density(float(eps))) < 1e-12


ZERO_WEIGHT = [
    *[dl.ThresholdPower(beta=0.0, exponent=alpha, threshold=1.0, cutoff=20.0)
      for alpha in (-0.5, 0.5, 1.0, 1.5)],
    dl.Box(amplitude_sq=0.0, half_width=2.0),
    dl.AsymmetricBox(amplitude_sq=0.0, lower=-1.0, upper=3.0),
]


@pytest.mark.parametrize("model", ZERO_WEIGHT, ids=repr)
def test_zero_weight_transform_vanishes_at_the_edges(model):
    # where a nonzero density's transform diverges, a zero one's is zero
    edges = np.array(model.support())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for values in (model.cauchy(edges), model.cauchy_derivative(edges),
                       [model.cauchy(e) for e in edges], dl.SelfEnergy(model).sigma_upper(edges)):
            assert np.all(np.asarray(values) == 0.0)


def test_vectorized_density_matches_scalar():
    for model in MODELS:
        eps = np.linspace(-5, 25, 11)
        vec = model.density(eps)
        scalars = np.array([model.density(float(e)) for e in eps])
        np.testing.assert_allclose(vec, scalars, rtol=0, atol=0)


class TestModelFromConfig:
    def test_each_variant(self, tmp_path):
        lor = dl.model_from_config({"type": "lorentzian", "A2": 0.1, "a": 0.5, "b": 2.0})
        assert isinstance(lor, dl.Lorentzian) and lor.center == 0.5
        box = dl.model_from_config({"type": "box", "A2": 0.05, "L": 100})
        assert isinstance(box, dl.Box) and box.half_width == 100.0
        asym = dl.model_from_config({"type": "asymmetricbox", "A2": 0.1,
                                     "L_minus": -1.0, "L_plus": 2.0})
        assert isinstance(asym, dl.AsymmetricBox)
        thr = dl.model_from_config({"type": "thresholdpower", "beta_th": 0.01,
                                    "alpha": 0.5, "mu": 0.0, "Lambda": 20.0})
        assert isinstance(thr, dl.ThresholdPower)
        table = tmp_path / "d.csv"
        table.write_text("epsilon,D\n0.0,0.0\n1.0,2.0\n2.0,0.0\n")
        tab = dl.model_from_config({"type": "tabulated", "table_path": str(table)})
        assert isinstance(tab, dl.Tabulated)
        assert tab.density(1.0) == 2.0

    def test_unknown_type(self):
        with pytest.raises(DomainError):
            dl.model_from_config({"type": "gaussian"})

    def test_missing_key(self):
        with pytest.raises(DomainError):
            dl.model_from_config({"type": "box", "A2": 1.0})
