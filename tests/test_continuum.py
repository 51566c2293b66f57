import math
import tracemalloc

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

import decaylab as dl
from decaylab import continuum
from decaylab._phases import PhaseGrid
from decaylab.errors import DomainError
from conftest import linear_fit_r2

A2 = 0.05
GAMMA = 2.0 * np.pi * A2
# A time late enough that the decaying term exp(-GAMMA t / 2) = 3e-7 leaves
# the saturated line shape to well within each check's tolerance.
LATE = 30.0 / GAMMA


def flat_coupling(eps):
    return np.full_like(np.asarray(eps, dtype=float), np.sqrt(A2))


def line_shape(omega0, gamma):
    """The saturated packet's energy distribution: the Lorentzian of full width gamma."""
    return dl.Lorentzian(gamma / (2.0 * np.pi), omega0, gamma / 2.0).density


class TestSpectralDistribution:
    def test_peak_value(self):
        dist = line_shape(0.0, GAMMA)
        assert dist(0.0) == pytest.approx(2.0 / (np.pi * GAMMA))

    def test_full_width_at_half_maximum(self):
        dist = line_shape(1.0, GAMMA)
        peak = dist(1.0)
        assert dist(1.0 + GAMMA / 2) == pytest.approx(peak / 2)
        assert dist(1.0 - GAMMA / 2) == pytest.approx(peak / 2)

    def test_normalization(self):
        dist = line_shape(0.5, GAMMA)
        total, _ = quad(dist, 0.5 - 50 * GAMMA, 0.5 + 50 * GAMMA)
        assert total == pytest.approx(1.0, abs=0.01)

    def test_requires_positive_rate(self):
        with pytest.raises(DomainError):
            line_shape(0.0, 0.0)


class TestCoefficients:
    @pytest.mark.parametrize("span", [0.0, -5.0])
    def test_grid_requires_positive_span(self, span):
        with pytest.raises(DomainError, match="span"):
            dl.default_energy_grid(0.0, GAMMA, n=2001, span=span)

    def test_exactly_zero_at_start(self):
        eps = dl.default_energy_grid(0.0, GAMMA, n=501, span=40.0)
        coeffs = dl.packet_coefficients(flat_coupling, 0.0, GAMMA, eps, 0.0)
        assert np.all(coeffs == 0.0)

    def test_saturated_norm_for_flat_coupling(self):
        eps = dl.default_energy_grid(0.0, GAMMA, n=4001, span=200.0)
        coeffs = dl.packet_coefficients(flat_coupling, 0.0, GAMMA, eps, LATE)
        assert dl.packet_norm_sq(eps, coeffs) == pytest.approx(1.0, abs=0.01)

    def test_unitarity_against_box_survival(self):
        eps = dl.default_energy_grid(0.0, GAMMA, n=20001, span=200.0)
        t = 1.0 / GAMMA
        coeffs = dl.packet_coefficients(flat_coupling, 0.0, GAMMA, eps, t)
        survival = dl.survival_box(A2, 100.0, 0.0, [t]).probability()[0]
        assert survival + dl.packet_norm_sq(eps, coeffs) == pytest.approx(1.0, abs=0.01)

    def test_growth_bound(self):
        # the packet cannot fill in faster than the level empties
        eps = dl.default_energy_grid(0.0, GAMMA, n=8001, span=100.0)
        for t in (0.2 / GAMMA, 1.0 / GAMMA, 3.0 / GAMMA):
            coeffs = dl.packet_coefficients(flat_coupling, 0.0, GAMMA, eps, t)
            norm = dl.packet_norm_sq(eps, coeffs)
            assert norm <= 1.0 - np.exp(-GAMMA * t) + 0.02
            assert norm <= 1.0

    def test_late_time_distribution_matches_line_shape(self):
        eps = dl.default_energy_grid(0.0, GAMMA, n=4001, span=40.0)
        coeffs = dl.packet_coefficients(flat_coupling, 0.0, GAMMA, eps, LATE)
        dist = line_shape(0.0, GAMMA)
        sel = np.abs(eps) <= 5 * GAMMA
        rel = np.abs(np.abs(coeffs[sel]) ** 2 / dist(eps[sel]) - 1.0)
        assert np.max(rel) < 0.01

    def test_validation(self):
        eps = np.linspace(-1, 1, 11)
        with pytest.raises(DomainError):
            dl.packet_coefficients(flat_coupling, 0.0, GAMMA, eps, -1.0)
        with pytest.raises(DomainError):
            dl.packet_coefficients(flat_coupling, 0.0, GAMMA, eps, [1.0, -1.0])
        for bad in (np.inf, [1.0, np.nan], [1.0, np.inf]):
            with pytest.raises(DomainError, match="finite"):
                dl.packet_coefficients(flat_coupling, 0.0, GAMMA, eps, bad)
        with pytest.raises(DomainError):
            dl.packet_coefficients(flat_coupling, 0.0, 0.0, eps, 1.0)
        with pytest.raises(DomainError):
            dl.packet_coefficients(np.ones(3), 0.0, GAMMA, eps, 1.0)


class TestPlaneWaveSynthesis:
    OMEGA0 = 25.0

    def test_zero_at_start(self):
        eps = dl.default_energy_grid(self.OMEGA0, GAMMA, n=801, span=40.0)
        x = np.linspace(-50, 50, 256)
        coeffs = dl.packet_coefficients(flat_coupling, self.OMEGA0, GAMMA, eps, 0.0)
        psi = dl.synthesize_packet(eps, coeffs, x)
        assert np.all(psi == 0.0)

    def test_parseval(self):
        eps = dl.default_energy_grid(self.OMEGA0, GAMMA, n=1601, span=40.0)
        x = np.linspace(-150.0, 450.0, 4096)
        dx = x[1] - x[0]
        t = 3.0 / GAMMA
        coeffs = dl.packet_coefficients(flat_coupling, self.OMEGA0, GAMMA, eps, t)
        psi = dl.synthesize_packet(eps, coeffs, x)
        spatial = np.sum(np.abs(psi) ** 2) * dx
        assert spatial == pytest.approx(dl.packet_norm_sq(eps, coeffs), rel=0.02)

    def test_centroid_moves_at_group_velocity(self):
        eps = dl.default_energy_grid(self.OMEGA0, GAMMA, n=1601, span=40.0)
        x = np.linspace(-150.0, 800.0, 6144)
        dx = x[1] - x[0]
        times = np.linspace(3.0, 7.0, 9) / GAMMA
        packet = dl.evolve_packet(flat_coupling, self.OMEGA0, GAMMA, eps, times,
                                  x=x, basis="plane_wave")
        centroids = []
        for i in range(times.size):
            dens = np.abs(packet.psi[i]) ** 2
            centroids.append(np.sum(x * dens) * dx / (np.sum(dens) * dx))
        slope, _, r2 = linear_fit_r2(times, centroids)
        assert r2 > 0.995
        assert slope == pytest.approx(2.0 * np.sqrt(self.OMEGA0), rel=0.12)

    def test_traced_peak_is_bounded(self):
        """The benchmark's plane-wave packet: energy chunks of 4e6 (x, eps)
        points took 122.7 MiB; blocks of the shared budget hold 2 MB each."""
        a2, omega0 = 0.005, 10.0
        gamma = 2.0 * np.pi * a2
        eps = dl.default_energy_grid(omega0, gamma, n=4001, span=200.0)
        x = np.linspace(-50.0, 250.0, 1024)
        tracemalloc.start()
        try:
            dl.evolve_packet(np.sqrt(a2), omega0, gamma, eps,
                             [0.0, 0.5 / gamma, 1.0 / gamma], x=x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_energies_must_be_positive(self):
        eps = np.linspace(-1.0, 1.0, 21)
        with pytest.raises(DomainError, match="plane-wave basis needs strictly positive energies"):
            dl.plane_wave_eigenfunction(eps, np.linspace(-1, 1, 8))

    def test_validation(self):
        eps = np.linspace(1.0, 2.0, 5)
        with pytest.raises(DomainError, match=r"must be 1-d, not of shape \(2, 4\)"):
            dl.plane_wave_eigenfunction(eps, np.linspace(-1.0, 1.0, 8).reshape(2, 4))
        with pytest.raises(DomainError, match="coefficients must match the energy grid"):
            dl.synthesize_packet(eps, np.ones(4), np.linspace(-1.0, 1.0, 8))

    def test_tables_match_a_longdouble_reference(self):
        """The benchmark's grid, where k*x reaches 1000: rounding of the phase
        puts the tables 2.5e-13 of max|phi| off, and the direct exp 1.1e-13."""
        gamma = 2.0 * np.pi * 0.005
        eps = dl.default_energy_grid(10.0, gamma, n=4001, span=200.0)
        x = np.linspace(-50.0, 250.0, 1024)
        worst = peak = 0.0
        for block in np.array_split(eps, 10):
            phi = dl.plane_wave_eigenfunction(block, x)
            k = np.sqrt(block.astype(np.longdouble))
            phase = np.multiply.outer(x.astype(np.longdouble), k)
            scale = 1.0 / np.sqrt(4.0 * np.pi * k)
            worst = max(worst, float(np.max(np.hypot(phi.real - scale * np.cos(phase),
                                                     phi.imag - scale * np.sin(phase)))))
            peak = max(peak, float(np.max(scale)))
        assert worst <= 3.5e-13 * peak

    @pytest.mark.parametrize("n_x", [1, 2, 3, 1000, 1025])
    def test_tables_match_the_direct_formula(self, n_x):
        # 1000 and 1025 points leave the last coarse row of the tables ragged;
        # the direct exp rounds k*x, up to 165 here, to about 4e-14
        eps = np.linspace(0.5, 30.0, 37)
        k = np.sqrt(eps)
        for x in (np.linspace(-20.0, 30.0, n_x), np.linspace(30.0, -20.0, n_x)):
            direct = np.exp(1j * np.multiply.outer(x, k)) / np.sqrt(4.0 * np.pi * k)
            np.testing.assert_allclose(dl.plane_wave_eigenfunction(eps, x), direct,
                                       rtol=0, atol=1e-13 * np.max(np.abs(direct)))

    NON_UNIFORM_X = pytest.mark.parametrize("x", [
        np.linspace(0.0, 1.0, 64) + 1e-9 * (np.arange(64) == 17),
        np.geomspace(1.0, 100.0, 50),
        np.array([0.0, 1.0, 3.0]),
    ], ids=["one point moved", "geometric", "three points"])

    @NON_UNIFORM_X
    def test_non_uniform_grid_is_refused(self, x):
        # a non-uniform x is refused the coarse/fine split and drops to
        # stride 1; the uniform grid of the same ends and size keeps it
        assert PhaseGrid(x).stride == 1
        assert PhaseGrid(np.linspace(x[0], x[-1], x.size)).stride == math.ceil(math.sqrt(x.size))

    @NON_UNIFORM_X
    def test_non_uniform_grid_matches_the_direct_formula(self, x):
        # these grids take the tables at stride 1: one exponential a point
        eps = np.linspace(0.5, 30.0, 37)
        k = np.sqrt(eps)
        direct = np.exp(1j * np.multiply.outer(x, k)) / np.sqrt(4.0 * np.pi * k)
        np.testing.assert_allclose(dl.plane_wave_eigenfunction(eps, x), direct,
                                   rtol=0, atol=1e-13 * np.max(np.abs(direct)))
        coeffs = np.exp(0.3j * np.arange(eps.size)) / (1.0 + eps)
        weighted = coeffs * np.gradient(eps)
        np.testing.assert_allclose(dl.synthesize_packet(eps, coeffs, x), direct @ weighted,
                                   rtol=0, atol=1e-13 * np.max(np.abs(direct))
                                   * np.sum(np.abs(weighted)))


class TestAiryBasis:
    BETA = 3.0

    def test_eigenfunction_satisfies_schrodinger_equation(self):
        h = 1e-4
        # the last point's Airy argument, -3^(1/3) * (9 + 0.5/3) = -13.2, is
        # below -AI_SWITCH, on the oscillatory expansion
        for eps_val, x0 in ((0.5, 1.3), (-2.0, 4.0), (3.0, -0.5), (0.5, 9.0)):
            phi = lambda x: dl.airy_slope_eigenfunction(
                np.array([eps_val]), np.array([x]), self.BETA)[0, 0]
            second = (phi(x0 + h) - 2 * phi(x0) + phi(x0 - h)) / h**2
            residual = -second - self.BETA * x0 * phi(x0) - eps_val * phi(x0)
            assert abs(residual) < 1e-5 * max(1.0, abs(eps_val * phi(x0)))

    @staticmethod
    def airy_ai(arg):
        # with beta = 1 and eps = 0 the eigenfunction is Ai(arg) at x = -arg
        return dl.airy_slope_eigenfunction(np.zeros(1), -np.asarray(arg), 1.0)[:, 0]

    @staticmethod
    def envelope(arg):
        """pi^(-1/2) |arg|^(-1/4), times exp(-zeta) where Ai decays, and a
        relative bound of 8 eps (1 + zeta): the rounding of zeta = 2/3 |arg|^(3/2)
        moves a phase or an exponent by about eps * zeta.  Against mpmath,
        scipy's airy itself is off by up to 4.6 eps (1 + zeta) near
        arg = -10.06, and the expansions by at most 1.3 eps (1 + zeta)."""
        zeta = 2.0 / 3.0 * np.abs(arg) ** 1.5
        size = np.pi**-0.5 * np.maximum(np.abs(arg), 1.0) ** -0.25
        size = np.where(arg > 0, size * np.exp(-zeta), size)
        return size, 8.0 * np.finfo(float).eps * (1.0 + zeta)

    def test_ai_matches_scipy_across_both_switches(self):
        switch = continuum.AI_SWITCH
        arg = np.concatenate([-np.geomspace(1e3, 1.0, 20_000),
                              np.linspace(-switch - 1.0, -switch + 1.0, 20_001),
                              np.linspace(-1.0, 70.0, 20_001)])
        size, bound = self.envelope(arg)
        error = np.abs(self.airy_ai(arg) - special.airy(arg)[0]) / size
        assert np.all(error <= bound)
        # the expansions do replace scipy beyond the switches
        assert np.any(error[np.abs(arg) >= switch] > 0)

    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_ai_continuous_at_the_switch(self, side):
        # the last scipy argument and the first of the expansion, one ulp apart
        edge = side * continuum.AI_SWITCH
        inside = np.nextafter(edge, 0.0)
        inner, outer = self.airy_ai([inside, edge])
        size, bound = self.envelope(np.array(edge))
        step = abs(special.airy(edge)[1]) * abs(edge - inside)  # Ai' times the ulp
        assert abs(outer - inner) <= bound * size + step

    def test_energy_normalization_via_completeness(self):
        # expanding a normalized wave packet over the energy-normalized
        # eigenfunctions must return unit total weight
        x = np.linspace(-25.0, 35.0, 3000)
        dx = x[1] - x[0]
        g = (np.pi) ** -0.25 * np.exp(-((x - 5.0) ** 2) / 2.0)
        mean_e = -self.BETA * 5.0 + 0.5
        eps = np.linspace(mean_e - 18.0, mean_e + 18.0, 700)
        phi = dl.airy_slope_eigenfunction(eps, x, self.BETA)
        overlaps = phi.T @ g * dx
        total = np.sum(np.abs(overlaps) ** 2) * (eps[1] - eps[0])
        assert total == pytest.approx(1.0, abs=0.02)

    def test_traced_peak_is_bounded(self):
        """The benchmark's Airy packet: the masked asymptotic pass holds a
        few block-sized temporaries, inside the shared block budget."""
        a2, omega0 = 0.005, 10.0
        gamma = 2.0 * np.pi * a2
        eps = dl.default_energy_grid(omega0, gamma, n=4001, span=200.0)
        x = np.linspace(-50.0, 250.0, 128)
        tracemalloc.start()
        try:
            dl.evolve_packet(np.sqrt(a2), omega0, gamma, eps,
                             [0.0, 0.5 / gamma, 1.0 / gamma], x=x,
                             basis="linear_slope_airy", beta_slope=self.BETA)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_synthesize_with_airy_basis(self):
        eps = np.linspace(-5.0, 5.0, 201)
        coeffs = np.exp(-eps**2).astype(complex)
        x = np.linspace(-10.0, 10.0, 128)
        psi = dl.synthesize_packet(eps, coeffs, x, basis="linear_slope_airy",
                                   beta_slope=self.BETA)
        assert psi.shape == x.shape
        assert np.any(psi != 0)

    def test_unknown_basis(self):
        with pytest.raises(DomainError, match="unknown basis 'bessel'"):
            dl.synthesize_packet(np.array([1.0, 2.0]), np.ones(2, complex),
                                 np.linspace(0, 1, 4), basis="bessel")

    def test_airy_needs_slope(self):
        with pytest.raises(DomainError, match=r"slope basis requires beta_slope > 0"):
            dl.synthesize_packet(np.array([1.0, 2.0]), np.ones(2, complex),
                                 np.linspace(0, 1, 4), basis="linear_slope_airy")


# (basis, keyword arguments, energy window): both bases synthesized on one path
BASIS_CASES = [("plane_wave", {}, (20.0, 30.0)),
              ("linear_slope_airy", {"beta_slope": 3.0}, (-3.0, 3.0))]


@pytest.mark.parametrize("basis, kwargs, window", BASIS_CASES,
                         ids=[case[0] for case in BASIS_CASES])
class TestBlockSynthesis:
    TIMES = np.array([0.5, 2.0, 7.0])

    def packet(self, window, x, basis=None, **kwargs):
        omega0 = 0.5 * (window[0] + window[1])
        eps = np.linspace(*window, 201)
        if basis is not None:
            kwargs["basis"] = basis
        return dl.evolve_packet(flat_coupling, omega0, GAMMA, eps, self.TIMES, x=x, **kwargs)

    def test_block_equals_row_by_row(self, basis, kwargs, window):
        # the block budget 2**17 // 50,000 = 2 energies a block: 100 blocks of
        # 2 and one of 1; the short x range keeps the Airy arguments within
        # |arg| < 3, all on scipy's airy, so the 10M points stay quick
        x = np.linspace(-1.0, 1.0, 50_000)
        packet = self.packet(window, x, basis, **kwargs)
        assert packet.psi.shape == (self.TIMES.size, x.size)
        for row, psi in zip(packet.coeffs, packet.psi):
            alone = dl.synthesize_packet(packet.eps, row, x, basis, **kwargs)
            np.testing.assert_allclose(psi, alone, rtol=0, atol=1e-13)
        # psi at a point does not depend on the rest of the grid, and a few
        # points take a single block: this checks the sum over blocks
        few = slice(None, None, 997)
        one_block = dl.synthesize_packet(packet.eps, packet.coeffs, x[few], basis, **kwargs)
        np.testing.assert_allclose(packet.psi[:, few], one_block, rtol=0, atol=1e-13)

    def test_time_array_equals_stacked_scalar_calls(self, basis, kwargs, window):
        packet = self.packet(window, None, basis, **kwargs)
        omega0 = packet.info["omega0"]
        stacked = [dl.packet_coefficients(flat_coupling, omega0, GAMMA, packet.eps, t)
                   for t in self.TIMES]
        np.testing.assert_array_equal(packet.coeffs, stacked)
        times = np.append(self.TIMES, LATE)
        block = dl.packet_coefficients(flat_coupling, omega0, GAMMA, packet.eps, times)
        np.testing.assert_array_equal(
            block[-1], dl.packet_coefficients(flat_coupling, omega0, GAMMA, packet.eps, LATE))
        np.testing.assert_array_equal(dl.packet_norm_sq(packet.eps, packet.coeffs),
                                      [dl.packet_norm_sq(packet.eps, c) for c in stacked])

    def test_x_without_basis_synthesizes_plane_waves(self, basis, kwargs, window):
        x = np.linspace(-10.0, 10.0, 64)
        if basis == "plane_wave":
            packet = self.packet(window, x)
            assert packet.basis == "plane_wave"
            np.testing.assert_array_equal(
                packet.psi, dl.synthesize_packet(packet.eps, packet.coeffs, x))
        else:
            # the Airy window reaches below zero, where plane waves do not exist,
            # and plane waves take no slope
            with pytest.raises(DomainError,
                               match="plane-wave basis needs strictly positive energies"):
                self.packet(window, x)
            with pytest.raises(DomainError, match="the plane-wave basis takes no beta_slope"):
                self.packet(window, x, **kwargs)
