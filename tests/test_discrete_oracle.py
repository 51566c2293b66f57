import numpy as np
import pytest
from scipy.linalg import expm

import decaylab as dl
from decaylab import discrete_oracle
from decaylab.errors import DomainError, NoConvergence

GAMMA_BOX = 2.0 * np.pi * 0.05


def random_discrete(rng, n, complex_couplings=True):
    energies = np.sort(rng.uniform(-2.0, 2.0, n))
    couplings = 0.2 * rng.normal(size=n)
    if complex_couplings:
        couplings = couplings + 0.2j * rng.normal(size=n)
    return dl.DiscreteModel(omega0=float(rng.normal()), energies=energies,
                            couplings=couplings, widths=np.full(n, 4.0 / n))


class TestBuild:
    def test_box_uniform_couplings(self):
        box = dl.Box(amplitude_sq=0.05, half_width=100.0)
        m = dl.build_discrete(box, 0.0, 500)
        np.testing.assert_allclose(np.abs(m.couplings) ** 2,
                                   0.05 * 200.0 / 500, rtol=1e-12)

    def test_zero_density(self):
        m = dl.build_discrete(dl.Box(amplitude_sq=0.0, half_width=5.0), 0.0, 50)
        assert np.all(m.couplings == 0.0)

    def test_lorentzian_window_weight(self):
        lor = dl.Lorentzian(amplitude_sq=0.1, center=0.0, width=1.0)
        m = dl.build_discrete(lor, 0.0, 2000, window=(-50.0, 50.0))
        weight = np.sum(np.abs(m.couplings) ** 2)
        # the binning reproduces the windowed integral essentially exactly;
        # the window itself leaves out (2/pi)*arctan(1/50) = 1.27% of the
        # total, so the comparison against the full weight carries that
        windowed = np.pi * 0.1 * (2.0 / np.pi) * np.arctan(50.0)
        assert weight == pytest.approx(windowed, rel=1e-4)
        assert weight == pytest.approx(np.pi * 0.1, rel=0.015)

    def test_gauss_legendre_weight_exact_for_flat_density(self):
        box = dl.Box(amplitude_sq=0.05, half_width=5.0)
        m = dl.build_discrete(box, 0.0, 200, binning="gauss-legendre")
        assert np.sum(np.abs(m.couplings) ** 2) == pytest.approx(box.total_weight(),
                                                                 rel=1e-12)

    def test_infinite_support_needs_window(self):
        with pytest.raises(DomainError):
            dl.build_discrete(dl.Lorentzian(amplitude_sq=0.1), 0.0, 100)

    def test_validation(self):
        box = dl.Box(amplitude_sq=0.05, half_width=5.0)
        with pytest.raises(DomainError):
            dl.build_discrete(box, 0.0, 1)
        with pytest.raises(DomainError):
            dl.build_discrete(box, 0.0, 100, binning="random")


class TestDiscreteModel:
    @pytest.mark.parametrize("field, bad", [
        ("omega0", np.nan), ("omega0", np.inf),
        ("energies", np.array([0.0, np.nan, 1.0])), ("energies", np.array([0.0, 1.0, np.inf])),
        ("couplings", np.array([0.1, np.inf, 0.1])), ("couplings", np.array([0.1, complex(0.1, np.nan), 0.1])),
        ("widths", np.array([1.0, np.nan, 1.0]))])
    def test_non_finite_input_rejected(self, field, bad):
        fields = dict(omega0=0.0, energies=np.array([-1.0, 0.0, 1.0]),
                      couplings=np.full(3, 0.1), widths=np.ones(3))
        fields[field] = bad
        with pytest.raises(DomainError):
            dl.DiscreteModel(**fields)

    def test_sigma_discrete_takes_arrays(self):
        m = random_discrete(np.random.default_rng(7), 50)
        omega = np.array([[0.3 + 0.5j, -1.0 - 2.0j, 2.5], [10.0j, -0.7 + 1e-3j, 3.0 - 1j]])
        values = m.sigma_discrete(omega)
        assert values.shape == omega.shape
        elementwise = np.array([[m.sigma_discrete(w) for w in row] for row in omega])
        np.testing.assert_allclose(values, elementwise, rtol=1e-14, atol=0)
        scalar = m.sigma_discrete(0.3 + 0.5j)
        assert np.ndim(scalar) == 0 and isinstance(scalar, complex)
        direct = np.sum(np.abs(m.couplings) ** 2 / (0.3 + 0.5j - m.energies))
        assert scalar == pytest.approx(direct, rel=1e-14)


class TestResolventDirect:
    def test_uncoupled_is_diagonal(self):
        m = dl.DiscreteModel(omega0=0.5, energies=np.array([-1.0, 1.0]),
                             couplings=np.zeros(2), widths=np.ones(2))
        omega = 0.3 + 0.7j
        g = dl.resolvent_direct(m, omega)
        expected = np.diag([1.0 / (omega - 0.5), 1.0 / (omega + 1.0),
                            1.0 / (omega - 1.0)])
        np.testing.assert_allclose(g, expected, atol=1e-14)

    def test_defines_inverse(self):
        rng = np.random.default_rng(3)
        m = random_discrete(rng, 40)
        omega = 0.2 - 0.9j
        g = dl.resolvent_direct(m, omega)
        identity = (omega * np.eye(41) - m.hamiltonian()) @ g
        assert np.max(np.abs(identity - np.eye(41))) < 1e-12


class TestPartitionIdentity:
    def test_uncoupled_blocks(self):
        m = dl.DiscreteModel(omega0=0.5, energies=np.array([-1.0, 1.0]),
                             couplings=np.zeros(2), widths=np.ones(2))
        part = dl.resolvent_partitioned(m, 2j)
        assert part.g_p == pytest.approx(1.0 / (2j - 0.5))
        np.testing.assert_allclose(part.g_qp, 0.0)

    def test_all_blocks_match_direct_solve(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            m = random_discrete(rng, 80)
            for _ in range(4):
                omega = complex(rng.normal(), rng.choice([-1, 1]) * rng.uniform(0.05, 2.0))
                direct = dl.resolvent_direct(m, omega)
                part = dl.resolvent_partitioned(m, omega)
                assert abs(direct[0, 0] - part.g_p) < 1e-10
                assert np.max(np.abs(direct[1:, 0] - part.g_qp)) < 1e-10
                assert np.max(np.abs(direct[1:, 1:] - part.g_q)) < 1e-10

    def test_initial_condition_limit(self):
        rng = np.random.default_rng(5)
        m = random_discrete(rng, 60)
        omega = 1e6j
        assert omega * dl.resolvent_partitioned(m, omega).g_p == pytest.approx(1.0, rel=1e-5)

    def test_sigma_discrete_converges_to_integral(self):
        box = dl.Box(amplitude_sq=0.05, half_width=5.0)
        exact = dl.SelfEnergy(box).sigma_upper(1j)
        errors = []
        for n in (250, 500, 1000):
            m = dl.build_discrete(box, 0.0, n)
            errors.append(abs(m.sigma_discrete(1j) - exact))
        assert errors[1] <= 0.5 * errors[0]
        assert errors[2] <= 0.5 * errors[1]


class TestExactSurvival:
    def test_unitarity(self):
        rng = np.random.default_rng(17)
        m = random_discrete(rng, 60)
        times = np.linspace(0.0, 20.0, 31)
        series, occ = dl.survival_exact_discrete(m, times, with_occupations=True)
        total = series.probability() + np.sum(np.abs(occ) ** 2, axis=0)
        assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_box_reproduces_exponential_decay(self):
        box = dl.Box(amplitude_sq=0.05, half_width=100.0)
        m = dl.build_discrete(box, 0.0, 4000)
        times = np.linspace(0.0, 3.0 / GAMMA_BOX, 61)
        assert times[-1] < 0.5 * m.recurrence_time()
        series, _ = dl.survival_exact_discrete(m, times)
        ratio = series.probability() / np.exp(-GAMMA_BOX * times)
        assert np.max(np.abs(ratio - 1.0)) < 0.02

    def test_below_threshold_level_does_not_decay(self):
        model = dl.ThresholdPower(beta=0.01, exponent=0.5, threshold=1.0, cutoff=50.0)
        renorm = dl.SelfEnergy(model).renormalize_below_threshold(0.0)
        m = dl.build_discrete(model, 0.0, 1500)
        times = np.linspace(0.0, 60.0, 400)
        assert times[-1] < 0.5 * m.recurrence_time()
        series, _ = dl.survival_exact_discrete(m, times)
        assert np.min(series.probability()) >= renorm.Z**2 - 0.05
        late = series.probability()[times >= 20.0]
        assert abs(np.mean(late) - renorm.Z**2) <= 1e-4

    def test_initial_amplitude(self):
        rng = np.random.default_rng(23)
        m = random_discrete(rng, 30)
        series, _ = dl.survival_exact_discrete(m, [0.0])
        assert series.amplitude[0] == pytest.approx(1.0, abs=1e-13)

    def test_complex_couplings_match_matrix_exponential(self):
        # the real |V| matrix plus the coupling phases gives the full evolution
        rng = np.random.default_rng(31)
        m = random_discrete(rng, 30)
        times = np.array([0.0, 0.7, 3.0, 12.5])
        series, occ = dl.survival_exact_discrete(m, times, with_occupations=True)
        columns = np.array([expm(-1j * m.hamiltonian() * t)[:, 0] for t in times]).T
        np.testing.assert_allclose(series.amplitude, columns[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(occ, columns[1:], rtol=0, atol=1e-12)


def _uniform_box(omega0=0.3, n=200):
    return dl.build_discrete(dl.Box(amplitude_sq=0.05, half_width=5.0), omega0, n)


def _with_couplings(m, couplings):
    return dl.DiscreteModel(omega0=m.omega0, energies=m.energies, couplings=couplings,
                            widths=m.widths)


def _some_zero():
    m = _uniform_box()
    couplings = m.couplings.copy()
    couplings[np.random.default_rng(5).choice(m.size, 10, replace=False)] = 0.0
    return _with_couplings(m, couplings)


SECULAR_CASES = {
    "random_complex": lambda: random_discrete(np.random.default_rng(41), 200),
    "gauss_legendre": lambda: dl.build_discrete(dl.Box(amplitude_sq=0.05, half_width=5.0),
                                                0.3, 200, binning="gauss-legendre"),
    "tiny_couplings": lambda: _with_couplings(_uniform_box(), np.full(200, 1e-9)),
    "omega0_on_a_bin": lambda: _uniform_box(omega0=float(_uniform_box().energies[77])),
    "some_zero": _some_zero,
    "all_zero": lambda: dl.build_discrete(dl.Box(amplitude_sq=0.0, half_width=5.0), 0.3, 200),
}


class TestSecularAgainstEigh:
    """The secular-equation oracle against a dense eigh of the same matrix."""

    @pytest.mark.parametrize("case", sorted(SECULAR_CASES))
    def test_matches_dense_eigendecomposition(self, case):
        m = SECULAR_CASES[case]()
        times = np.linspace(0.0, 30.0, 31)
        evals, evecs = np.linalg.eigh(m.hamiltonian())
        phases = np.exp(-1j * np.outer(evals, times))
        amp = (np.abs(evecs[0]) ** 2) @ phases
        occupations = (evecs[1:] * np.conj(evecs[0])) @ phases

        coupled, origin, tau, weights, _ = discrete_oracle._spectrum(m)
        decoupled = np.setdiff1d(np.arange(m.size), coupled)
        roots = np.concatenate((origin + tau, m.energies[decoupled]))
        order = np.argsort(roots)
        spread = evals[-1] - evals[0]
        assert np.max(np.abs(roots[order] - evals)) <= 1e-13 * spread
        all_weights = np.concatenate((weights, np.zeros(decoupled.size)))[order]
        assert np.max(np.abs(all_weights - np.abs(evecs[0]) ** 2)) <= 1e-14

        series, occ = dl.survival_exact_discrete(m, times, with_occupations=True)
        assert np.max(np.abs(series.amplitude - amp)) <= 1e-12
        assert np.max(np.abs(occ - occupations)) <= 1e-12
        assert series.info["weight_defect"] <= 1e-13
        assert np.all(occ[decoupled] == 0.0)

    def test_weight_defect_and_sweeps_on_3000_bins(self):
        m = dl.build_discrete(dl.Box(amplitude_sq=0.05, half_width=100.0), 0.3, 3000)
        first, _ = dl.survival_exact_discrete(m, [0.0, 1.0])
        again, _ = dl.survival_exact_discrete(m, [0.0, 1.0])
        assert first.info["weight_defect"] <= 1e-13
        assert 1 <= first.info["secular_sweeps"] < discrete_oracle._MAX_SWEEPS
        assert first.info == again.info

    def test_sweep_cap_raises(self, monkeypatch):
        monkeypatch.setattr(discrete_oracle, "_MAX_SWEEPS", 1)
        with pytest.raises(NoConvergence):
            dl.survival_exact_discrete(_uniform_box(), [0.0, 1.0])
