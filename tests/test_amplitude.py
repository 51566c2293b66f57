import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate

import decaylab as dl
from decaylab import _blocks, amplitude
from decaylab._phases import PhaseGrid
from decaylab.errors import DomainError, NumericalError

GAMMA_BOX = 2.0 * np.pi * 0.05


class TestNumericInversion:
    def test_initial_value(self, lorentzian_se):
        series = dl.survival_numeric(lorentzian_se, 0.0, [0.0])
        assert abs(series.amplitude[0] - 1.0) <= series.info["tail_estimate"]

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

    def test_truncation_guard(self, lorentzian_se, box_se):
        # a cutoff inside the radius (2.12 here) of the large-omega expansion,
        # where its first omitted term estimates nothing
        with pytest.raises(NumericalError, match="radius"):
            dl.survival_numeric(lorentzian_se, 0.0, [0.0, 1.0], omega_max=2.0)
        # a positive cutoff inside the support truncates it
        with pytest.raises(NumericalError, match="clear the spectral support"):
            dl.survival_numeric(box_se, 0.0, [0.0, 1.0], omega_max=50.0)
        # past the radius but short of the tail budget: the estimate reads 8.7e-2
        with pytest.raises(NumericalError, match="truncated-tail contribution 8.7"):
            dl.survival_numeric(lorentzian_se, 0.0, [0.0, 1.0], omega_max=3.0)

    def test_non_finite_expansion_guard(self):
        # the moments of a band of half-width 1e308 overflow
        se = dl.SelfEnergy(dl.Box(amplitude_sq=0.05, half_width=1e308))
        for omega_max in (None, 1e300):
            with pytest.raises(NumericalError, match="not finite"):
                dl.survival_numeric(se, 0.0, [0.0, 1.0], omega_max=omega_max)

    def test_node_cap_guard(self):
        # the default step for t = 20 over a support of half-width 1e6 needs
        # about 1.2e8 nodes; capped, it would alias
        se = dl.SelfEnergy(dl.Box(amplitude_sq=0.05, half_width=1e6))
        times = np.linspace(0.0, 20.0, 5)
        with pytest.raises(NumericalError, match="pass n_points"):
            dl.survival_numeric(se, 0.0, times)
        explicit = dl.survival_numeric(se, 0.0, times, n_points=20_001)
        assert explicit.info["n_points"] == 20_001

    def test_validation(self, lorentzian_se):
        with pytest.raises(DomainError):
            dl.survival_numeric(lorentzian_se, 0.0, [-1.0])
        for omega_max in (-1.0, 0.0):
            with pytest.raises(DomainError, match="omega_max must be positive"):
                dl.survival_numeric(lorentzian_se, 0.0, [1.0], omega_max=omega_max)
        with pytest.raises(DomainError, match="n_points must be at least 2"):
            dl.survival_numeric(lorentzian_se, 0.0, [1.0], n_points=1)
        with pytest.raises(DomainError, match="empty time grid"):
            dl.survival_numeric(lorentzian_se, 0.0, [])

    def test_unit_bound(self, lorentzian_se):
        times = np.linspace(0.0, 10.0, 60)
        series = dl.survival_numeric(lorentzian_se, 0.0, times)
        assert np.max(np.abs(series.amplitude)) <= 1.0 + series.info["tail_estimate"]

    def test_budget_bounds_the_error(self, lorentzian_se):
        times = np.linspace(0.0, 20.0, 201)
        closed = dl.survival_lorentzian(lorentzian_se.model, 0.0, times).amplitude
        series = dl.survival_numeric(lorentzian_se, 0.0, times)
        err = np.max(np.abs(series.amplitude - closed))
        info = series.info
        assert err <= info["alias_bound"] + info["tail_estimate"] + info["rounding_bound"]

    # 2 sqrt(A2) < width keeps the closed form's two poles apart
    @given(amplitude_sq=st.floats(0.01, 0.2), center=st.floats(-2.0, 2.0),
           width=st.floats(1.0, 2.0), omega0=st.floats(-3.0, 3.0),
           t_max=st.floats(0.5, 40.0))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_budget_bounds_the_error_at_every_time(self, amplitude_sq, center, width, omega0,
                                                   t_max):
        """The tail estimate's integration-by-parts branch holds wherever it is taken."""
        model = dl.Lorentzian(amplitude_sq, center, width)
        times = np.linspace(0.0, t_max, 101)
        series = dl.survival_numeric(dl.SelfEnergy(model), omega0, times)
        closed = dl.survival_lorentzian(model, omega0, times).amplitude
        info = series.info
        budget = info["alias_bound"] + info["tail_estimate"] + info["rounding_bound"]
        assert np.all(np.abs(series.amplitude - closed) <= budget)

    @pytest.mark.parametrize("n_points", [235, 168, 120])
    def test_coarse_step_error_is_aliasing(self, lorentzian_se, n_points):
        """A step coarser than the default aliases; the bound holds, within 4x."""
        times = np.linspace(0.0, 20.0, 201)
        closed = dl.survival_lorentzian(lorentzian_se.model, 0.0, times).amplitude
        series = dl.survival_numeric(lorentzian_se, 0.0, times, n_points=n_points)
        err = np.max(np.abs(series.amplitude - closed))
        assert max(1e-10, series.info["alias_bound"] / 4) < err <= series.info["alias_bound"]

    def test_alias_bound_infinite_past_the_period(self, lorentzian_se):
        # 2 pi / h = 8.4 < t_max = 20: the aliased copies overlap the window
        series = dl.survival_numeric(lorentzian_se, 0.0, [0.0, 20.0], n_points=41)
        assert series.info["alias_bound"] == np.inf

    def test_non_uniform_times_agree_with_uniform(self, lorentzian_se):
        # one time moved off the grid leaves the other amplitudes as they were
        times = np.linspace(0.0, 10.0, 41)
        uniform = dl.survival_numeric(lorentzian_se, 0.0, times)
        perturbed = times.copy()
        perturbed[17] += 0.013
        moved = dl.survival_numeric(lorentzian_se, 0.0, perturbed)
        shared = np.arange(times.size) != 17
        np.testing.assert_allclose(moved.amplitude[shared], uniform.amplitude[shared],
                                   rtol=0, atol=1e-14)


def expansion_coefficients(se, omega0, z0, radius, n):
    """c_0 .. c_{n-1} of G - 1/(omega - omega0) = sum_k c_k / (omega - z0)^(k+1),
    by Cauchy's formula on the circle |omega - z0| = radius, outside every singularity."""
    m = 64
    u = np.exp(2j * np.pi * np.arange(m) / m) / radius
    w = z0 + 1.0 / u
    diff = 1.0 / (w - omega0 - se.model.cauchy(w)) - 1.0 / (w - omega0)
    return (np.fft.fft(diff / u) / m)[:n] * radius ** np.arange(n)


def full_array_inversion(se, omega0, times, offset, omega_max, n_points, z0, radius):
    """The inversion in one piece: linspace nodes, a trapezoid weight array, the dense
    sum, with c_2 .. c_7 subtracted at the nodes and their transforms added back."""
    h = 2.0 * omega_max / (n_points - 1)
    nodes = np.linspace(-omega_max, omega_max, n_points) + 1j * offset
    c = expansion_coefficients(se, omega0, z0, radius, 8)
    diff = (1.0 / (nodes - omega0 - se.sigma_physical(nodes)) - 1.0 / (nodes - omega0)
            - sum(c[k] / (nodes - z0) ** (k + 1) for k in range(2, 8)))
    w = np.full(n_points, h)
    w[0] = w[-1] = 0.5 * h
    f = (1j / (2.0 * np.pi)) * diff * w
    dense = sum(np.exp(-1j * np.outer(times, nodes.real[s:s + 4096])) @ f[s:s + 4096]
                for s in range(0, n_points, 4096))
    restored = sum(c[k] * (-1j * times) ** k / math.factorial(k) for k in range(2, 8))
    return (dense * np.exp(offset * times) + restored * np.exp(-1j * z0 * times)
            + np.exp(-1j * omega0 * times))


TABLE_EPS = np.linspace(0.0, 20.0, 200)


class TestOnePass:
    """The inversion walks its contour in stretches, never holding all of it."""

    # three stretches of the shared block budget, the last one ragged
    N_POINTS = 2 * _blocks.BLOCK_ELEMENTS + 50_001

    @pytest.mark.parametrize("perturb", [0.0, 0.013], ids=["uniform", "non_uniform"])
    def test_matches_full_array_formula(self, threshold_se, perturb, monkeypatch):
        times = np.linspace(0.0, 20.0, 41)
        times[17] += perturb
        stretches, phase_sum = [], amplitude._phase_sum

        def recording_sum(f, x, step, t):
            stretches.append((x.size, step))
            return phase_sum(f, x, step, t)

        monkeypatch.setattr(amplitude, "_phase_sum", recording_sum)
        series = dl.survival_numeric(threshold_se, 5.0, times, n_points=self.N_POINTS)
        info = series.info
        # every stretch is summed with the contour's own step
        full = _blocks.BLOCK_ELEMENTS
        h = 2.0 * info["omega_max"] / (self.N_POINTS - 1)
        assert stretches == [(n, h) for n in (full, full, 50_001)]
        assert info["phase_stride"] == math.ceil(math.sqrt(full))
        assert info["expansion_terms"] == 6
        # the support [0, 20] lies within 26 of z0 = 5 - 20i; the circle is at 200
        reference = full_array_inversion(threshold_se, 5.0, times, info["contour_offset"],
                                         info["omega_max"], info["n_points"],
                                         info["expansion_point"], 200.0)
        assert np.max(np.abs(series.amplitude - reference)) <= 1e-11

    def test_every_full_stretch_takes_the_same_stride(self, monkeypatch):
        """Measuring the nodes for uniformity, within 8 eps max|x|, failed on the
        stretch that holds omega = 0, whose nodes round by eps omega_max: that
        stretch alone took a stride of 1, one exponential a node and time."""
        se, times = dl.SelfEnergy(dl.Lorentzian(0.1, 0.0, 1.0)), np.linspace(0.0, 10.0, 201)
        rates, tables = [], PhaseGrid.tables

        def recording_tables(grid, r):
            rates.append(r.size)
            return tables(grid, r)

        monkeypatch.setattr(PhaseGrid, "tables", recording_tables)
        series = dl.survival_numeric(se, 0.0, times, n_points=4_000_001)
        info = series.info
        full, last = _blocks.BLOCK_ELEMENTS, 4_000_001 % _blocks.BLOCK_ELEMENTS
        assert info["phase_stride"] == 363 == math.ceil(math.sqrt(full))
        # each block of times takes the stretch's ceil(n/J) coarse and J fine rates
        stride_last = math.ceil(math.sqrt(last))
        assert set(rates) == {-(-full // 363) + 363, -(-last // stride_last) + stride_last}

        # the stretch that holds omega = 0 with one exponential a node and time
        phase_sum = amplitude._phase_sum

        def node_by_node(f, x, step, t):
            if not x[0] <= 0.0 <= x[-1]:
                return phase_sum(f, x, step, t)
            return np.concatenate([np.exp(-1j * np.outer(t[rows], x)) @ f
                                   for rows in _blocks.row_blocks(t.size, x.size)])

        monkeypatch.setattr(amplitude, "_phase_sum", node_by_node)
        direct = dl.survival_numeric(se, 0.0, times, n_points=4_000_001)
        assert np.max(np.abs(series.amplitude - direct.amplitude)) <= info["rounding_bound"]

    @pytest.mark.parametrize("model, omega0, n_points, n_times", [
        (dl.Lorentzian(0.1, 0.0, 1.0), 0.0, 4_000_001, 11),
        (dl.Tabulated(TABLE_EPS, dl.ThresholdPower(0.01, 0.5, 0.0, 20.0).density(TABLE_EPS)),
         5.0, None, 11),
        (dl.Lorentzian(0.1, 0.0, 1.0), 0.0, 300_001, 20_001),
    ], ids=["lorentzian_at_node_cap", "tabulated_200_knots", "lorentzian_20001_times"])
    def test_traced_peak_is_bounded(self, model, omega0, n_points, n_times):
        """Full-length node, Sigma and integrand arrays took 305 MiB on the
        Lorentzian; (point, knot) chunks of 2e6 took 68 MiB on the table;
        a whole stretch in one FFT call took 80 MiB at 20,001 times."""
        se = dl.SelfEnergy(model)
        times = np.linspace(0.0, 10.0, n_times)
        tracemalloc.start()
        try:
            dl.survival_numeric(se, omega0, times, n_points=n_points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


BUDGET_TABLE = dl.Tabulated(TABLE_EPS, dl.ThresholdPower(0.01, 0.5, 0.0, 20.0).density(TABLE_EPS))
BUDGET_CASES = {
    "lorentzian": (dl.Lorentzian(0.1, 0.0, 1.0), 0.0, np.linspace(0.0, 20.0, 201)),
    "box": (dl.Box(0.05, 100.0), 0.0, np.linspace(0.0, 3.0 / GAMMA_BOX, 40)),
    "asymmetric_box": (dl.AsymmetricBox(0.05, -3.0, 10.0), 1.0, np.linspace(0.0, 20.0, 41)),
    "threshold": (dl.ThresholdPower(0.01, 0.5, 0.0, 20.0), 5.0, np.linspace(0.0, 100.0, 101)),
    "tabulated_200_knots": (BUDGET_TABLE, 5.0, np.linspace(0.0, 10.0, 41)),
}


FINITE_SUPPORT = ["box", "asymmetric_box", "threshold", "tabulated_200_knots"]


class TestErrorBudget:
    """alias_bound + tail_estimate + rounding_bound against the measured error of the inversion."""

    @staticmethod
    def _measured(model, omega0, times, scale):
        """The run at scale times the default omega_max, same step, and its error
        against the closed form, or else against a run over three times the range."""
        se = dl.SelfEnergy(model)
        default = dl.survival_numeric(se, omega0, times).info
        h = 2.0 * default["omega_max"] / (default["n_points"] - 1)
        omega_max = scale * default["omega_max"]
        n_points = round(2.0 * omega_max / h) + 1
        series = dl.survival_numeric(se, omega0, times, omega_max=omega_max, n_points=n_points)
        if isinstance(model, dl.Lorentzian):
            reference = dl.survival_lorentzian(model, omega0, times).amplitude
        else:
            reference = dl.survival_numeric(se, omega0, times, omega_max=3.0 * omega_max,
                                            n_points=3 * (n_points - 1) + 1).amplitude
        return series.info, float(np.max(np.abs(series.amplitude - reference)))

    @pytest.mark.parametrize("scale", [0.6, 1.0])
    @pytest.mark.parametrize("case", BUDGET_CASES.values(), ids=BUDGET_CASES)
    def test_budget_bounds_the_measured_error(self, case, scale):
        info, err = self._measured(*case, scale)
        assert err <= info["alias_bound"] + info["tail_estimate"] + info["rounding_bound"]

    def test_rounding_bound_covers_a_regrouping(self, monkeypatch):
        # stretches of 20,000 nodes group the time sums of 47,961 nodes otherwise
        # than one stretch does: that moved the amplitude by 2.0e-13, where
        # eps h / (2 pi) sum |f| exp(offset t_max), without the phases' rounding, reads 1.4e-14
        se, times = dl.SelfEnergy(BUDGET_TABLE), np.linspace(0.0, 20.0, 101)
        whole = dl.survival_numeric(se, 5.0, times, n_points=47_961)
        monkeypatch.setattr(_blocks, "BLOCK_ELEMENTS", 20_000)
        split = dl.survival_numeric(se, 5.0, times, n_points=47_961)
        assert np.max(np.abs(split.amplitude - whole.amplitude)) <= whole.info["rounding_bound"]

    @pytest.mark.parametrize("scale", [0.6, 1.0])
    @pytest.mark.parametrize("case", BUDGET_CASES.values(), ids=BUDGET_CASES)
    def test_tail_estimate_is_not_far_above_the_error(self, case, scale):
        # measured 2.8x to 45x here; charging every time the growth at t_max,
        # without the oscillation of the tail, read 23x to 140x, and the
        # 1/omega^2 bound before the moment subtraction about 1000x
        info, err = self._measured(*case, scale)
        assert info["tail_estimate"] < 50.0 * err

    @pytest.mark.parametrize("case", BUDGET_CASES.values(), ids=BUDGET_CASES)
    def test_default_cutoff_is_the_smallest_within_the_tail_target(self, case):
        model, omega0, times = case
        se = dl.SelfEnergy(model)
        info = dl.survival_numeric(se, omega0, times).info
        reach = max([abs(edge) for edge in model.support() if np.isfinite(edge)] + [abs(omega0)])
        margin = info["omega_max"] - reach
        assert info["tail_estimate"] <= amplitude._TAIL_TARGET
        # the tail estimate does not depend on the node count
        shorter = dl.survival_numeric(se, omega0, times, omega_max=reach + 0.999 * margin,
                                      n_points=2)
        assert shorter.info["tail_estimate"] > amplitude._TAIL_TARGET

    def test_radius_floor_sets_the_cutoff_of_a_weak_narrow_band(self):
        # the tail target is met well inside twice the expansion's radius here
        model = dl.Box(1e-10, 1.0)
        info = dl.survival_numeric(dl.SelfEnergy(model), 0.0, np.linspace(0.0, 5.0, 11)).info
        _, mu = amplitude._propagator_series(model, 0.0, info["expansion_point"],
                                             amplitude._EXPANSION_TERMS + 3)
        radius = amplitude._singular_radius(model, 0.0, info["expansion_point"], mu)
        assert info["omega_max"] == 1.0 + 2.0 * radius == pytest.approx(5.4722, abs=1e-4)
        assert info["tail_estimate"] == pytest.approx(2.3e-11, rel=0.05)

    @given(family=st.sampled_from(["box", "asymmetric_box", "threshold_0.25", "threshold_0.5",
                                   "threshold_1", "threshold_1.5", "table", "lorentzian"]),
           coupling=st.floats(0.01, 0.1), width=st.floats(2.0, 20.0), inside=st.booleans(),
           position=st.floats(0.05, 0.95), t_max=st.floats(0.5, 100.0))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_budget_bounds_the_error_across_families(self, family, coupling, width, inside,
                                                     position, t_max):
        """Every family at its default cutoff, the level in its support or past an edge."""
        if family == "lorentzian":
            model, lo, hi = dl.Lorentzian(coupling, 0.0, 1.0 + width / 20.0), -1.0, 1.0
        elif family == "table":
            eps = np.linspace(0.0, width, 200)
            model, lo, hi = dl.Tabulated(eps, dl.ThresholdPower(coupling, 0.5, 0.0, width)
                                         .density(eps)), 0.0, width
        elif family == "box":
            model, lo, hi = dl.Box(coupling, width / 2.0), -width / 2.0, width / 2.0
        elif family == "asymmetric_box":
            model, lo, hi = dl.AsymmetricBox(coupling, -0.3 * width, width), -0.3 * width, width
        else:
            model, lo, hi = dl.ThresholdPower(coupling, float(family[10:]), 0.0, width), 0.0, width
        omega0 = lo + position * (hi - lo) if inside else hi + position * (hi - lo)
        info, err = self._measured(model, omega0, np.linspace(0.0, t_max, 41), 1.0)
        assert err <= info["alias_bound"] + info["tail_estimate"] + info["rounding_bound"]

    @pytest.mark.parametrize("case", [BUDGET_CASES[k] for k in FINITE_SUPPORT],
                             ids=FINITE_SUPPORT)
    def test_expansion_coefficients_match_cauchy_formula(self, case):
        # c_n from the moments against Cauchy's formula on |omega - z0| = omega_max / 2,
        # past every singularity, since omega_max is at least twice their radius; the
        # subtraction restores whatever c_n it subtracts, so only this check
        # sees an error in them
        model, omega0, times = case
        info = dl.survival_numeric(dl.SelfEnergy(model), omega0, times).info
        z0, radius = info["expansion_point"], info["omega_max"] / 2.0
        series, _ = amplitude._propagator_series(model, omega0, z0, 9)
        reference = expansion_coefficients(dl.SelfEnergy(model), omega0, z0, radius, 9)
        weight = model.total_weight()
        assert series[2] == pytest.approx(weight, rel=1e-13)
        # the circle's values are of size W / radius^2, so its c_n carry
        # rounding of about 1e-16 W radius^(n - 2)
        scale = weight * radius ** (np.arange(9) - 2.0)
        assert np.all(np.abs(series - reference) <= 1e-11 * scale)

    # the finite supports; a band of half-width 100 would need the t^6 term at t = 1e-2
    @pytest.mark.parametrize("model, omega0", [
        (dl.Box(0.05, 10.0), 0.3), (dl.AsymmetricBox(0.05, -3.0, 10.0), 1.0),
        (dl.ThresholdPower(0.01, 0.5, 0.0, 20.0), 5.0), (BUDGET_TABLE, 5.0),
    ], ids=["box", "asymmetric_box", "threshold", "tabulated_200_knots"])
    def test_short_time_series(self, model, omega0):
        """|A|^2 = 1 - W t^2 + (W^2 / 4 + (mu_2 + W^2) / 12) t^4 + O(t^6), moments about omega0.

        The t^2 term alone is the total weight W; a 1 % error in it would show
        as 6e-7 at t = 1e-2, where the t^6 remainder is below 1e-10.
        """
        times = np.linspace(0.0, 1e-2, 11)
        mu = model.moments(omega0, 3).real
        weight = mu[0]
        assert weight == pytest.approx(model.total_weight(), rel=1e-12)
        quartic = weight**2 / 4.0 + (mu[2] + weight**2) / 12.0
        probability = dl.survival_numeric(dl.SelfEnergy(model), omega0, times).probability()
        residual = 1.0 - probability - weight * times**2 + quartic * times**4
        assert np.max(np.abs(residual)) <= 1e-10


SHAPED_TIMES = np.linspace(0.0, 10.0, 8).reshape(2, 4)
ROUTES = {
    "numeric": lambda t: dl.survival_numeric(
        dl.SelfEnergy(dl.Lorentzian(0.1, 0.0, 1.0)), 0.0, t),
    "lorentzian": lambda t: dl.survival_lorentzian(dl.Lorentzian(0.1, 0.0, 1.0), 0.0, t),
    "box": lambda t: dl.survival_box(0.05, 100.0, 0.0, t),
    "pole_cut": lambda t: dl.survival_pole_cut(
        dl.SelfEnergy(dl.ThresholdPower(0.01, 0.5, 0.0, 20.0)), 5.0, t),
    "oracle": lambda t: dl.survival_exact_discrete(
        dl.build_discrete(dl.Box(0.05, 100.0), 0.0, 400), t)[0],
}


@pytest.mark.parametrize("route", ROUTES.values(), ids=ROUTES)
def test_amplitude_keeps_the_shape_of_times(route):
    shaped = route(SHAPED_TIMES)
    assert shaped.amplitude.shape == SHAPED_TIMES.shape
    np.testing.assert_allclose(shaped.amplitude.ravel(), route(SHAPED_TIMES.ravel()).amplitude,
                               rtol=0, atol=1e-12)


class TestTimeTransform:
    """The node tables' time sum against a dense sum from long-double phases."""

    @given(n=st.integers(2, 50_000), m=st.integers(1, 601),
           kind=st.sampled_from(["uniform", "perturbed", "geometric"]),
           seed=st.integers(0, 2**32 - 1))
    @example(n=50_000, m=20, kind="uniform", seed=1)
    @example(n=2, m=601, kind="perturbed", seed=2)
    @example(n=903, m=601, kind="uniform", seed=3)
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_phase_sum_matches_long_double_sum(self, n, m, kind, seed):
        assume(n * m <= 1_000_000)   # the reference takes about 0.4 us a phase
        rng = np.random.default_rng(seed)
        omega_max, t0, t_max = 613.7, 0.37, 97.3   # omega_max t_max ~ 6e4
        x = np.arange(n) * (2.0 * omega_max / (n - 1)) - omega_max   # as the contour's nodes
        f = rng.normal(size=n) + 1j * rng.normal(size=n)
        times = np.geomspace(t0, t_max, m) if kind == "geometric" else np.linspace(t0, t_max, m)
        if kind == "perturbed":
            times[min(17, m - 1)] += 0.013
        fast = amplitude._phase_sum(f, x, 2.0 * omega_max / (n - 1), times)
        x_ld, f_re, f_im = (v.astype(np.longdouble) for v in (x, f.real, f.imag))
        dense = np.empty(m, dtype=complex)
        for rows in _blocks.row_blocks(m, n):
            phase = np.multiply.outer(times[rows].astype(np.longdouble), x_ld)
            cos, sin = np.cos(phase), np.sin(phase)
            dense[rows] = (cos @ f_re + sin @ f_im) + 1j * (cos @ f_im - sin @ f_re)
        # a phase x t rounds by about eps |x t|; the sum measured at most 1.7 of this
        rounding = np.abs(f) * (1.0 + np.abs(x) * t_max)
        scale = np.finfo(float).eps * np.sqrt(np.sum(rounding**2))
        assert np.max(np.abs(fast - dense)) <= 5.0 * scale

    @pytest.mark.parametrize("m", [1, 2, 601])
    def test_chirp_z_matches_dense_sum(self, m):
        # uniform times, the grid a chirp-z transform would take: the node
        # tables' sum against the dense sum at one, two and many times
        rng = np.random.default_rng(m)
        n, omega_max, t0, t_max = 3 * 4096 + 17, 613.7, 0.37, 97.3   # omega_max t_max ~ 6e4
        f = rng.normal(size=n) + 1j * rng.normal(size=n)
        f /= np.abs(f).sum()
        times = np.linspace(t0, t_max, m) if m > 1 else np.array([t_max])
        x = np.arange(n) * (2.0 * omega_max / (n - 1)) - omega_max   # as the contour's nodes
        fast = amplitude._phase_sum(f, x, 2.0 * omega_max / (n - 1), times)
        dense = np.exp(-1j * np.outer(times, x)) @ f
        assert np.max(np.abs(fast - dense)) <= 1e-10

    def test_no_signal_import(self):
        """No production path loads scipy.signal or scipy.integrate.

        The package needs scipy.special and scipy.fft, which the split-operator
        step takes, and nothing more: importing scipy.signal takes
        0.7-0.8 s on a 2-core Xeon, and scipy.integrate, which brings
        scipy.optimize, scipy.linalg and scipy.spatial, about 0.27 s.  The
        modules are compared with those that numpy, scipy.special and
        scipy.fft load themselves, which differ between scipy versions.
        """
        code = ("import sys, numpy as np, scipy.special, scipy.fft\n"
                "before = set(sys.modules)\n"
                "import decaylab as dl, decaylab.cli\n"
                "times = np.linspace(0.0, 2.0, 5)\n"
                "se = dl.SelfEnergy(dl.Lorentzian(0.1, 0.0, 1.0))\n"
                "dl.survival_numeric(se, 0.0, times, n_points=4097)\n"
                "threshold = dl.SelfEnergy(dl.ThresholdPower(0.01, 0.5, 0.0, 20.0))\n"
                "dl.survival_pole_cut(threshold, 5.0, times)\n"
                "oracle = dl.build_discrete(dl.Box(0.05, 100.0), 0.0, 200)\n"
                "dl.survival_exact_discrete(oracle, times)\n"
                "eps = dl.default_energy_grid(50.0, 0.3, n=51, span=40.0)\n"
                "dl.evolve_packet(1.0, 50.0, 0.3, eps, times, x=np.linspace(-10.0, 10.0, 64))\n"
                "joined = {'scipy.signal', 'scipy.integrate'} & (set(sys.modules) - before)\n"
                "assert not joined, f'{sorted(joined)} imported'\n")
        env = dict(os.environ, PYTHONPATH=str(Path(dl.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


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


def adaptive_cut_integral(se, omega0, t):
    """The cut integral by adaptive quadrature in u = xi * t, one time at a time."""
    mu, _ = se.model.support()

    def integrand(u):
        xi = u / t
        jump = se.cut_discontinuity(xi)
        w = mu - 1j * xi
        sheet1 = se.sigma_physical(w)
        return np.exp(-u) * jump / ((w - omega0 - sheet1 - jump) * (w - omega0 - sheet1))

    val, _ = integrate.quad(integrand, 0.0, np.inf, complex_func=True,
                            epsabs=1e-14, epsrel=1e-12, limit=400)
    return np.exp(-1j * mu * t) / (2.0 * np.pi * t) * val


class TestCutIntegral:
    def test_error_estimate_gate(self, threshold_se, monkeypatch):
        # the rule at 2h with doubled weights disagrees with the rule at h
        weights = amplitude._DE_WEIGHTS * [1.0, 2.0]
        monkeypatch.setattr(amplitude, "_DE_WEIGHTS", weights)
        with pytest.raises(NumericalError, match="cut integral error estimate"):
            dl.cut_integral(threshold_se, 5.0, [1.0, 10.0])

    @pytest.mark.parametrize("model, omega0, times", [
        (dl.ThresholdPower(0.01, 0.5, 0.0, 20.0), 5.0, np.linspace(1.0, 100.0, 100)),
        (dl.Box(0.05, 100.0), 0.0, np.linspace(0.1, 10.0, 100))], ids=["threshold", "box"])
    def test_rule_has_converged(self, monkeypatch, model, omega0, times):
        # the rule at half the step, 577 nodes at h = 1/64, moves the cut
        # term only by rounding: 3.6e-16 and 3.5e-16 of its largest value
        se = dl.SelfEnergy(model)
        cut = dl.cut_integral(se, omega0, times)
        kh = np.arange(-288, 289) / 64
        nodes = np.exp(0.5 * np.pi * np.sinh(kh))
        weights = np.outer(np.pi / 128 * np.cosh(kh) * nodes, [1.0, 2.0])
        weights[1::2, 1] = 0.0
        monkeypatch.setattr(amplitude, "_DE_KH", kh)
        monkeypatch.setattr(amplitude, "_DE_NODES", nodes)
        monkeypatch.setattr(amplitude, "_DE_WEIGHTS", weights)
        finer = dl.cut_integral(se, omega0, times)
        assert np.max(np.abs(finer - cut)) <= 1e-15 * np.max(np.abs(cut))

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
        assert full == pytest.approx(asym, rel=0.10)

    def test_array_matches_scalars(self, threshold_se):
        times = np.geomspace(0.01, 3000.0, 8).reshape(2, 4)
        values = dl.cut_integral(threshold_se, 5.0, times)
        assert values.shape == times.shape
        scalars = [dl.cut_integral(threshold_se, 5.0, t) for t in times.ravel()]
        assert all(np.ndim(v) == 0 for v in scalars)
        np.testing.assert_allclose(values.ravel(), scalars, rtol=1e-13)

    @pytest.mark.parametrize("model,omegas", [
        *[(dl.ThresholdPower(0.01, alpha, 0.0, 20.0), (0.3, 2.0, 5.0, 8.0, 19.5))
          for alpha in (0.25, 0.5, 1.0, 1.5)],
        (dl.Box(0.05, 100.0), (0.5,)),
        (dl.AsymmetricBox(0.04, -3.0, 9.0), (2.0,))],
        ids=["alpha0.25", "alpha0.5", "alpha1", "alpha1.5", "box", "asymmetric_box"])
    def test_matches_adaptive_reference(self, model, omegas):
        se = dl.SelfEnergy(model)
        times = np.geomspace(0.01, 3000.0, 6)
        for omega0 in omegas:
            reference = [adaptive_cut_integral(se, omega0, t) for t in times]
            assert np.max(np.abs(dl.cut_integral(se, omega0, times) - reference)) <= 1e-10

    def test_requires_positive_time(self, threshold_se):
        with pytest.raises(DomainError):
            dl.cut_integral(threshold_se, 5.0, 0.0)
        with pytest.raises(DomainError):
            dl.cut_integral(threshold_se, 5.0, [1.0, np.inf])

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
        with pytest.raises(NumericalError,
                           match=r"threshold denominator mu - omega0 - Sigma\(mu\) vanishes"):
            dl.tail_asymptote(1.0, 0.5, 0.0, 0.0, 0.0, 10.0)

    def test_array_matches_scalars(self):
        times = np.geomspace(0.5, 400.0, 6).reshape(2, 3)
        values = dl.tail_asymptote(0.01, 0.5, 0.0, 5.0, 0.1 + 0.2j, times)
        assert values.shape == times.shape
        scalars = [dl.tail_asymptote(0.01, 0.5, 0.0, 5.0, 0.1 + 0.2j, t) for t in times.ravel()]
        assert all(np.ndim(v) == 0 for v in scalars)
        np.testing.assert_array_equal(values.ravel(), scalars)

    @pytest.mark.parametrize("t", [0.0, -1.0, np.nan, [10.0, 0.0]])
    def test_requires_positive_time(self, t):
        with pytest.raises(DomainError):
            dl.tail_asymptote(0.01, 0.5, 0.0, 5.0, 0.1 + 0.2j, t)


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

    def test_bound_state_plus_cut_below_the_threshold(self):
        # below the threshold the pole term is the real bound state, and the
        # cut from the threshold carries the rest; the upper edge's cut, still
        # left out, costs about 2.8e-5 / t here
        se = dl.SelfEnergy(dl.ThresholdPower(0.01, 0.5, 1.0, 50.0))
        times = np.linspace(1.0, 100.0, 34)
        decomposed = dl.survival_pole_cut(se, 0.0, np.concatenate([[0.0], times]))
        assert decomposed.info["pole"].omega_dprime == 0.0
        assert abs(decomposed.amplitude[0] - 1.0) <= 1e-12
        numeric = dl.survival_numeric(se, 0.0, times)
        assert np.max(np.abs(numeric.amplitude - decomposed.amplitude[1:])) <= 1e-4

    def test_cut_phase_against_numeric_inversion(self):
        # The cutoff far above the level makes the upper edge's own cut
        # (not in the pole-cut route) a few 1e-6; the lower cut's phase is
        # what is tested.  With the jump taken at mu + i*xi, the mirror
        # image of the cut, the two routes differ by 4.7e-4.
        se = dl.SelfEnergy(dl.ThresholdPower(0.01, 0.5, 0.0, 200.0))
        times = np.linspace(1.0, 20.0, 20)
        numeric = dl.survival_numeric(se, 5.0, times)
        decomposed = dl.survival_pole_cut(se, 5.0, times)
        assert np.max(np.abs(numeric.amplitude - decomposed.amplitude)) <= 1e-5

    def test_decomposition_stored(self, threshold_se):
        series = dl.survival_pole_cut(threshold_se, 5.0, [1.0, 2.0])
        assert series.pole_term is not None and series.cut_term is not None
        np.testing.assert_allclose(series.amplitude,
                                   series.pole_term + series.cut_term)

    def test_requires_finite_threshold(self, lorentzian_se, monkeypatch):
        # refused before the pole solve, naming the routes that serve the model
        def no_solve(*args):
            raise AssertionError("find_pole ran")

        monkeypatch.setattr(amplitude, "find_pole", no_solve)
        with pytest.raises(DomainError, match="finite threshold.*'closed'.*'numeric'"):
            dl.survival_pole_cut(lorentzian_se, 0.0, [0.0, 1.0])

    def test_requires_a_continuation(self, monkeypatch):
        # a table has no second sheet to solve on; refused before the pole
        # solve, naming the routes that serve it
        def no_solve(*args):
            raise AssertionError("find_pole ran")

        monkeypatch.setattr(amplitude, "find_pole", no_solve)
        table = dl.Tabulated([0.0, 1.0, 2.0], [0.0, 0.05, 0.0])
        with pytest.raises(DomainError,
                           match="Tabulated.*--method numeric.*--method oracle"):
            dl.survival_pole_cut(dl.SelfEnergy(table), 1.0, [0.0, 1.0])


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
