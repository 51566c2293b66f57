import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

import decaylab as dl
from decaylab.errors import BasisUnavailable, DomainError
from conftest import linear_fit_r2

A2 = 0.05
GAMMA = 2.0 * np.pi * A2
# A time late enough that the decaying term exp(-GAMMA t / 2) = 3e-7 leaves
# the saturated line shape to well within each check's tolerance.
LATE = 30.0 / GAMMA


def flat_coupling(eps):
    return np.full_like(np.asarray(eps, dtype=float), np.sqrt(A2))


class TestSpectralDistribution:
    def test_peak_value(self):
        dist = dl.spectral_distribution(0.0, GAMMA)
        assert dist(0.0) == pytest.approx(2.0 / (np.pi * GAMMA))

    def test_full_width_at_half_maximum(self):
        dist = dl.spectral_distribution(1.0, GAMMA)
        peak = dist(1.0)
        assert dist(1.0 + GAMMA / 2) == pytest.approx(peak / 2)
        assert dist(1.0 - GAMMA / 2) == pytest.approx(peak / 2)

    def test_normalization(self):
        dist = dl.spectral_distribution(0.5, GAMMA)
        total, _ = quad(dist, 0.5 - 50 * GAMMA, 0.5 + 50 * GAMMA)
        assert total == pytest.approx(1.0, abs=0.01)

    def test_requires_positive_rate(self):
        with pytest.raises(DomainError):
            dl.spectral_distribution(0.0, 0.0)


class TestCoefficients:
    @pytest.mark.parametrize("span", [0.0, -5.0])
    def test_grid_requires_positive_span(self, span):
        with pytest.raises(DomainError, match="span"):
            dl.default_energy_grid(0.0, GAMMA, span=span)

    def test_exactly_zero_at_start(self):
        eps = dl.default_energy_grid(0.0, GAMMA, n=501)
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
        eps = dl.default_energy_grid(0.0, GAMMA, n=4001)
        coeffs = dl.packet_coefficients(flat_coupling, 0.0, GAMMA, eps, LATE)
        dist = dl.spectral_distribution(0.0, GAMMA)
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
        eps = dl.default_energy_grid(self.OMEGA0, GAMMA, n=801)
        x = np.linspace(-50, 50, 256)
        coeffs = dl.packet_coefficients(flat_coupling, self.OMEGA0, GAMMA, eps, 0.0)
        psi = dl.synthesize_packet(eps, coeffs, x)
        assert np.all(psi == 0.0)

    def test_parseval(self):
        eps = dl.default_energy_grid(self.OMEGA0, GAMMA, n=1601)
        x = np.linspace(-150.0, 450.0, 4096)
        dx = x[1] - x[0]
        t = 3.0 / GAMMA
        coeffs = dl.packet_coefficients(flat_coupling, self.OMEGA0, GAMMA, eps, t)
        psi = dl.synthesize_packet(eps, coeffs, x)
        spatial = np.sum(np.abs(psi) ** 2) * dx
        assert spatial == pytest.approx(dl.packet_norm_sq(eps, coeffs), rel=0.02)

    def test_centroid_moves_at_group_velocity(self):
        eps = dl.default_energy_grid(self.OMEGA0, GAMMA, n=1601)
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
        with pytest.raises(BasisUnavailable):
            dl.plane_wave_eigenfunction(eps, np.linspace(-1, 1, 8))


class TestAiryBasis:
    BETA = 3.0

    def test_eigenfunction_satisfies_schrodinger_equation(self):
        h = 1e-4
        for eps_val, x0 in ((0.5, 1.3), (-2.0, 4.0), (3.0, -0.5)):
            phi = lambda x: dl.airy_slope_eigenfunction(
                np.array([eps_val]), np.array([x]), self.BETA)[0, 0]
            second = (phi(x0 + h) - 2 * phi(x0) + phi(x0 - h)) / h**2
            residual = -second - self.BETA * x0 * phi(x0) - eps_val * phi(x0)
            assert abs(residual) < 1e-5 * max(1.0, abs(eps_val * phi(x0)))

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

    def test_offset_shifts_energy(self):
        x = np.linspace(-5, 5, 101)
        base = dl.airy_slope_eigenfunction(np.array([1.0]), x, self.BETA, offset=0.0)
        shifted = dl.airy_slope_eigenfunction(np.array([1.5]), x, self.BETA, offset=0.5)
        np.testing.assert_allclose(base, shifted, atol=1e-14)

    def test_synthesize_with_airy_basis(self):
        eps = np.linspace(-5.0, 5.0, 201)
        coeffs = np.exp(-eps**2).astype(complex)
        x = np.linspace(-10.0, 10.0, 128)
        psi = dl.synthesize_packet(eps, coeffs, x, basis="linear_slope_airy",
                                   beta_slope=self.BETA)
        assert psi.shape == x.shape
        assert np.any(psi != 0)

    def test_unknown_basis(self):
        with pytest.raises(BasisUnavailable):
            dl.synthesize_packet(np.array([1.0, 2.0]), np.ones(2, complex),
                                 np.linspace(0, 1, 4), basis="bessel")

    def test_airy_needs_slope(self):
        with pytest.raises(BasisUnavailable):
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
        # 2 and one of 1; the short x range keeps the Airy arguments where
        # they are cheap
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
        np.testing.assert_array_equal(packet.norm_sq(),
                                      [dl.packet_norm_sq(packet.eps, c) for c in stacked])

    def test_x_without_basis_synthesizes_plane_waves(self, basis, kwargs, window):
        x = np.linspace(-10.0, 10.0, 64)
        if basis == "plane_wave":
            packet = self.packet(window, x)
            assert packet.basis == "plane_wave"
            np.testing.assert_array_equal(
                packet.psi, dl.synthesize_packet(packet.eps, packet.coeffs, x))
        else:
            # the Airy window reaches below zero, where plane waves do not exist
            with pytest.raises(BasisUnavailable):
                self.packet(window, x, **kwargs)
