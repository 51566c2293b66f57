import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import decaylab as dl
from decaylab import discrete_oracle
from decaylab.errors import DomainError, NumericalError

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

    def test_infinite_support_needs_window(self):
        with pytest.raises(DomainError):
            dl.build_discrete(dl.Lorentzian(amplitude_sq=0.1), 0.0, 100)

    def test_validation(self):
        box = dl.Box(amplitude_sq=0.05, half_width=5.0)
        with pytest.raises(DomainError):
            dl.build_discrete(box, 0.0, 1)


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

    @pytest.mark.parametrize("energies, couplings, widths, message", [
        ([-1.0, 0.0, 1.0], [0.1, 0.1], [1.0, 1.0, 1.0], "matching 1-d arrays"),
        ([[-1.0, 0.0]], [[0.1, 0.1]], [[1.0, 1.0]], "matching 1-d arrays"),
        ([0.0], [0.1], [1.0], "at least two bins"),
        ([-1.0, 1.0, 0.0], [0.1, 0.1, 0.1], [1.0, 1.0, 1.0], "strictly increasing"),
        ([-1.0, 0.0, 0.0], [0.1, 0.1, 0.1], [1.0, 1.0, 1.0], "strictly increasing")],
        ids=["mismatched shapes", "2-d arrays", "one bin", "unsorted", "repeated"])
    def test_malformed_arrays_rejected(self, energies, couplings, widths, message):
        with pytest.raises(DomainError, match=message):
            dl.DiscreteModel(omega0=0.0, energies=np.array(energies),
                             couplings=np.array(couplings), widths=np.array(widths))

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

    def test_singular_solve_refused(self):
        # omega on an uncoupled bin's energy: that bin's row of omega - H is zero
        m = dl.DiscreteModel(omega0=0.5, energies=np.array([-1.0, 1.0]),
                             couplings=np.zeros(2), widths=np.ones(2))
        with pytest.raises(NumericalError, match="resolvent solve failed.*Singular matrix$"):
            dl.resolvent_direct(m, -1.0)


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


def _gauss_legendre():
    # non-uniform bins: the Gauss-Legendre nodes and weights of a flat band on (-5, 5)
    x, w = np.polynomial.legendre.leggauss(200)
    return dl.DiscreteModel(omega0=0.3, energies=5.0 * x, couplings=np.sqrt(0.05 * (5.0 * w)),
                            widths=5.0 * w)


def _level_above():
    # 1500 bins on (-2, 2) and the level at 30: the sums run on eight
    # leaves over the bins alone; the top root, near 30, lies beyond
    # them and sums every pole exactly, its gap's lower pole among them
    m = random_discrete(np.random.default_rng(43), 1500)
    return dl.DiscreteModel(omega0=30.0, energies=m.energies, couplings=m.couplings,
                            widths=m.widths)


def _two_bands():
    # 1200 bins on (-2, -1) and (1, 2) and the level between them: the tree
    # has eight leaves of width 0.5, and the root in the gap lies four leaves
    # from one of its two poles, whose term the sweep takes off a far field
    m = random_discrete(np.random.default_rng(0), 1200)
    energies = np.where(m.energies < 0.0, m.energies / 2.0 - 1.0, m.energies / 2.0 + 1.0)
    return dl.DiscreteModel(omega0=0.0, energies=energies, couplings=m.couplings,
                            widths=m.widths)


def _ten_decades(seed, n=200):
    # couplings over ten decades with random phases, a tenth of the spacings
    # 1e-11: the models that take the most root sweeps
    rng = np.random.default_rng(seed)
    spacing = rng.uniform(0.5, 1.5, n - 1) * (4.0 / n)
    spacing[rng.choice(n - 1, (n - 1) // 10, replace=False)] = 1e-11
    couplings = 10.0 ** rng.uniform(-10.0, 0.0, n) * np.exp(2j * np.pi * rng.random(n))
    return dl.DiscreteModel(omega0=float(rng.uniform(-2.0, 2.0)),
                            energies=np.concatenate(([0.0], np.cumsum(spacing))) - 2.0,
                            couplings=couplings, widths=np.full(n, 4.0 / n))


def _gaussian_table_tails(n=200):
    # a narrow, strong Gaussian band tabulated on (-3, 3): the couplings of
    # its edge bins fall to about 1e-98, next to bound states beyond them
    eps = np.linspace(-3.0, 3.0, 401)
    return dl.build_discrete(dl.Tabulated(eps, 20.0 * np.exp(-eps**2 / 0.08)), 0.0, n)


def _tail_coupling_beside_a_bound_state():
    # the top bin's coupling, 1e-16, lies at g's rounding level beside it,
    # and the bound state beyond it must not be reported as a copy of it
    couplings = np.full(50, 50.0 ** -0.5)
    couplings[-1] = 1e-16
    return dl.DiscreteModel(omega0=1.0, energies=np.linspace(-2.0, 2.0, 50),
                            couplings=couplings, widths=np.full(50, 4.0 / 49))


SECULAR_CASES = {
    "random_complex": lambda: random_discrete(np.random.default_rng(41), 200),
    "gauss_legendre": _gauss_legendre,
    "tiny_couplings": lambda: _with_couplings(_uniform_box(), np.full(200, 1e-9)),
    "omega0_on_a_bin": lambda: _uniform_box(omega0=float(_uniform_box().energies[77])),
    "some_zero": _some_zero,
    "all_zero": lambda: dl.build_discrete(dl.Box(amplitude_sq=0.0, half_width=5.0), 0.3, 200),
    "level_above_1500_bins": _level_above,
    "two_bands_1200_bins": _two_bands,
    "gaussian_table_tails": _gaussian_table_tails,
    "tail_coupling_beside_a_bound_state": _tail_coupling_beside_a_bound_state,
    # roots beyond both band edges
    "strong_box_outer_roots": lambda: dl.build_discrete(dl.Box(amplitude_sq=0.3, half_width=2.0),
                                                        0.0, 300),
}


def random_arrowhead(family, seed, n):
    """An arrowhead of one of three families, on n bins near (-2, 2) with random phases:
    a third of the poles 1e-13 to 1e-6 from their neighbour; strong flat couplings;
    or couplings over 16 decades, a tenth of them between 1e-16 and 1e-12."""
    rng = np.random.default_rng(seed)
    spacing = rng.uniform(0.5, 1.5, n - 1) * (4.0 / n)
    magnitude = 0.2 * np.abs(rng.normal(size=n))
    if family == "clustered":
        close = rng.random(n - 1) < 1.0 / 3.0
        spacing[close] = 10.0 ** rng.uniform(-13.0, -6.0, int(np.sum(close)))
    elif family == "strong":
        magnitude = np.full(n, rng.uniform(0.1, 3.0))
    else:
        magnitude = 10.0 ** rng.uniform(-16.0, 0.0, n)
        tenth = rng.choice(n, n // 10, replace=False)
        magnitude[tenth] = 10.0 ** rng.uniform(-16.0, -12.0, tenth.size)
    return dl.DiscreteModel(omega0=float(rng.uniform(-3.0, 3.0)),
                            energies=np.concatenate(([0.0], np.cumsum(spacing))) - 2.0,
                            couplings=magnitude * np.exp(2j * np.pi * rng.random(n)),
                            widths=np.full(n, 4.0 / n))


def errors_against_eigh(m, times):
    """The oracle against a dense eigh of the same matrix.

    Returns the largest errors of the roots, over the spectrum's spread, of
    the weights, of A(t) and of c_i(t); then the oracle's series, its
    occupations and the decoupled bins.
    """
    evals, evecs = np.linalg.eigh(m.hamiltonian())
    phases = np.exp(-1j * np.outer(evals, times))
    amp = (np.abs(evecs[0]) ** 2) @ phases
    occupations = (evecs[1:] * np.conj(evecs[0])) @ phases

    coupled, origin, tau, weights, _ = discrete_oracle._spectrum(m)
    decoupled = np.setdiff1d(np.arange(m.size), coupled)
    roots = np.concatenate((origin + tau, m.energies[decoupled]))
    order = np.argsort(roots)
    all_weights = np.concatenate((weights, np.zeros(decoupled.size)))[order]
    series, occ = dl.survival_exact_discrete(m, times, with_occupations=True)
    errors = (np.max(np.abs(roots[order] - evals)) / (evals[-1] - evals[0]),
              np.max(np.abs(all_weights - np.abs(evecs[0]) ** 2)),
              np.max(np.abs(series.amplitude - amp)), np.max(np.abs(occ - occupations)))
    return errors, series, occ, decoupled


class TestSecularAgainstEigh:
    """The secular-equation oracle against a dense eigh of the same matrix."""

    @pytest.mark.parametrize("case", sorted(SECULAR_CASES))
    def test_matches_dense_eigendecomposition(self, case):
        m = SECULAR_CASES[case]()
        (root, weight, amp, occ_error), series, occ, decoupled = errors_against_eigh(
            m, np.linspace(0.0, 30.0, 31))
        assert root <= 1e-13
        assert weight <= 1e-14
        assert amp <= 1e-12
        assert occ_error <= 1e-12
        assert series.info["weight_defect"] <= 1e-13
        assert np.all(occ[decoupled] == 0.0)
        assert (series.info["tree_levels"] >= 3) == (m.size >= 1000)

    def test_couplings_over_ten_decades(self):
        # Over these 20 seeds the worst were 15 sweeps, roots off by 9.1e-16
        # of the spread, weights by 1.05e-13, A(t) by 3.7e-14 and c_i(t) by
        # 2.4e-14: the sweeps keep five to spare, each error about a factor 2.
        times = np.linspace(0.0, 30.0, 31)
        for seed in range(20):
            (root, weight, amp, occ), series, _, _ = errors_against_eigh(
                _ten_decades(seed), times)
            assert series.info["secular_sweeps"] <= 20
            assert root <= 2e-15
            assert weight <= 2e-13
            assert amp <= 7e-14
            assert occ <= 7e-14
            assert series.info["weight_defect"] <= 1e-13

    def test_weight_defect_and_sweeps_on_3000_bins(self):
        m = dl.build_discrete(dl.Box(amplitude_sq=0.05, half_width=100.0), 0.3, 3000)
        first, _ = dl.survival_exact_discrete(m, [0.0, 1.0])
        again, _ = dl.survival_exact_discrete(m, [0.0, 1.0])
        assert first.info["weight_defect"] <= 1e-13
        assert 1 <= first.info["secular_sweeps"] <= 6
        assert first.info == again.info

    def test_tree_spans_the_bins_when_the_level_lies_far_above_them(self):
        # the top root, near 30, lies beyond the bins on (-2, 2) and is summed
        # exactly; the eight leaves split the bins, so that a root's near field
        # is three leaves of about 190 bins and not the whole band
        m = _level_above()
        tree = discrete_oracle._tree(m.energies, m.energies, np.abs(m.couplings) ** 2,
                                     squares=True)
        assert tree.depth == 3 and tree.inside == slice(0, m.size)
        assert np.max(np.diff(tree.sources.starts)) <= 1.25 * m.size / 8

    @given(family=st.sampled_from(["clustered", "strong", "sixteen_decades"]),
           seed=st.integers(0, 2**32 - 1), n=st.integers(2, 200))
    @settings(max_examples=100, deadline=None, derandomize=True)
    # the top bin's coupling is 1.3e-16: without its deflation the bound
    # state beyond it came out as a copy of its energy, and the weights
    # summed to 0.89
    @example(family="sixteen_decades", seed=1501836067, n=10)
    def test_random_arrowheads(self, family, seed, n):
        (root, _, amp, _), series, _, _ = errors_against_eigh(
            random_arrowhead(family, seed, n), np.linspace(0.0, 30.0, 31))
        assert series.info["weight_defect"] <= 1e-13
        assert root <= 1e-13
        assert amp <= 1e-12

    def test_sweep_cap_raises(self, monkeypatch):
        monkeypatch.setattr(discrete_oracle, "_MAX_SWEEPS", 1)
        with pytest.raises(NumericalError, match=r"secular equation: \d+ of \d+ roots"):
            dl.survival_exact_discrete(_uniform_box(), [0.0, 1.0])


def direct_reference(m, times):
    """A(t), c_i(t), the weights and the roots from one exp for each (root, time)."""
    coupled, origin, tau, weights, _ = discrete_oracle._spectrum(m)
    roots = origin + tau
    phases = weights[:, None] * np.exp(-1j * np.outer(roots, times))
    occupations = np.zeros((m.size, times.size), dtype=complex)
    cauchy = 1.0 / (np.subtract.outer(m.energies[coupled], origin) - tau)
    occupations[coupled] = -m.couplings[coupled, None] * (cauchy @ phases)
    return phases.sum(axis=0), occupations, weights, roots


def phase_budget(weights, roots, times):
    """1e-13 plus the phases' rounding: lam*t is rounded in the reference and in
    the tables' two factors, and the uniform rule lets t[J*a + b] stray from
    t[J*a] + b*dt by 8 epsilons of max t, so 10 epsilons of max|lam| max t."""
    phase = 10.0 * np.finfo(float).eps * np.max(np.abs(roots)) * np.max(times)
    return (1e-13 + phase) * np.sum(weights)


def matches_direct_exp(m, times, occupations):
    """The oracle's series, after checking it against the direct reference."""
    series, occ = dl.survival_exact_discrete(m, times, with_occupations=occupations)
    amp, ref_occ, weights, roots = direct_reference(m, times)
    budget = phase_budget(weights, roots, times)
    assert np.max(np.abs(series.amplitude - amp)) <= budget
    if occupations:
        assert np.max(np.abs(occ - ref_occ)) <= budget
    return series


def random_band(seed, n, scale):
    rng = np.random.default_rng(seed)
    energies = scale * (2.0 * (np.arange(n) + rng.uniform(0.1, 0.9, n)) / n - 1.0)
    couplings = 0.3 * math.sqrt(scale / n) * (rng.normal(size=n) + 1j * rng.normal(size=n))
    return dl.DiscreteModel(omega0=float(rng.uniform(-scale, scale)), energies=energies,
                            couplings=couplings, widths=np.full(n, 2.0 * scale / n))


class TestPhaseTables:
    """The oracle's phases from a coarse and a fine table against one exp for each phase."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 60),
           scale=st.floats(0.1, 300.0), phase=st.floats(1.0, 1e4),
           start=st.floats(0.0, 1.0), nt=st.integers(1, 300), occupations=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_uniform_grids_match_direct_exp(self, seed, n, scale, phase, start, nt,
                                            occupations):
        m = random_band(seed, n, scale)
        _, origin, tau, _, _ = discrete_oracle._spectrum(m)
        t_max = phase / np.max(np.abs(origin + tau))
        series = matches_direct_exp(m, np.linspace(start * t_max, t_max, nt), occupations)
        assert series.info["phase_stride"] == math.ceil(math.sqrt(nt))

    @pytest.mark.parametrize("occupations", [False, True])
    def test_moved_time_takes_one_table(self, occupations):
        m = _uniform_box()
        times = np.linspace(0.0, 30.0, 200)
        times[57] += 1e-3
        assert matches_direct_exp(m, times, occupations).info["phase_stride"] == 1

    def test_no_root_by_time_array_without_occupations(self):
        # the (N + 1) x nt phases alone would take 501 * 4000 * 16 B = 32 MB
        m = dl.build_discrete(dl.ThresholdPower(0.01, 0.5, 1.0, 50.0), 0.2, 500)
        times = np.linspace(0.0, 30.0, 4000)
        tracemalloc.start()
        try:
            series, _ = dl.survival_exact_discrete(m, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert series.info["phase_stride"] == 64
        assert peak < 8 * 2**20

    def test_reruns_are_byte_identical(self):
        m = dl.build_discrete(dl.Box(amplitude_sq=0.05, half_width=100.0), 0.3, 1500)
        times = np.linspace(1.0, 6.0, 301)
        first, first_occ = dl.survival_exact_discrete(m, times, with_occupations=True)
        again, again_occ = dl.survival_exact_discrete(m, times, with_occupations=True)
        assert first.amplitude.tobytes() == again.amplitude.tobytes()
        assert first_occ.tobytes() == again_occ.tobytes()
        assert first.info == again.info


def dense_sums(x, y, weights, x_shift=None, y_shift=None):
    """The sums of discrete_oracle._cauchy_sums, and of the terms' moduli, by dense blocks."""
    sums = np.empty((3, x.size) + weights.shape[1:])
    for start in range(0, x.size, 256):
        rows = slice(start, start + 256)
        inv = np.subtract.outer(x[rows], y)
        if x_shift is not None:
            inv += x_shift[rows, None]
        if y_shift is not None:
            inv -= y_shift
        inv = 1.0 / inv
        sums[:, rows] = inv @ weights, inv**2 @ weights, np.abs(inv) @ np.abs(weights)
    return sums


def spread_poles(rng, n, gap):
    """n ascending poles with exponential spacings of mean 1, a tenth of them
    1e-12 n, about 1e-12 of the span, and one spacing, at a random place,
    ``gap`` of the whole span."""
    spacing = rng.exponential(size=n - 1)
    spacing[rng.random(n - 1) < 0.1] = 1e-12 * n
    if n > 2:
        spacing[rng.integers(n - 1)] = 0.0
        spacing[spacing == 0.0] = gap / (1.0 - gap) * np.sum(spacing)
    return np.concatenate(([0.0], np.cumsum(spacing))) - 0.3 * np.sum(spacing)


def roots_in_gaps(rng, poles):
    """One point in each gap of the poles, and beyond each end, as an origin
    pole and an offset from it, some within 1e-12 of the gap's width."""
    n = poles.size
    span = poles[-1] - poles[0] + 1.0
    width = np.concatenate(([span], np.diff(poles), [span]))
    fraction = 10.0 ** rng.uniform(-12.0, np.log10(0.5), n + 1)
    left = rng.random(n + 1) < 0.5
    left[0], left[-1] = False, True
    origin = np.where(left, poles[np.maximum(np.arange(n + 1) - 1, 0)],
                      poles[np.minimum(np.arange(n + 1), n - 1)])
    return origin, np.where(left, 1.0, -1.0) * fraction * width


class TestCauchyTree:
    """The tree's sums against dense ones, on random arrowheads of up to 10^4 poles."""

    @given(seed=st.integers(0, 2**32 - 1),
           n=st.one_of(st.integers(2, 999), st.integers(1000, 3000)),
           gap=st.floats(0.01, 0.7), columns=st.integers(1, 3))
    @example(seed=1, n=3000, gap=0.6, columns=2)
    @example(seed=1, n=10000, gap=0.6, columns=2)
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_tree_sums_match_dense_sums(self, seed, n, gap, columns):
        rng = np.random.default_rng(seed)
        poles = spread_poles(rng, n, gap)
        z2 = 10.0 ** rng.uniform(-8.0, 0.0, n)
        origin, tau = roots_in_gaps(rng, poles)
        # the secular solve's sums: the roots as targets, every pole a source,
        # and the two outer roots beyond the tree's span
        tree = discrete_oracle._tree(poles, poles, z2, squares=True)
        assert (tree is None) == (n < 1000)
        s1, s2 = discrete_oracle._cauchy_sums(origin, poles, z2, squares=True, x_shift=tau,
                                              tree=tree)
        d1, d2, _ = dense_sums(origin, poles, z2, x_shift=tau)
        assert np.all(np.abs(s1 - d1) <= 1e-14 * math.sqrt(np.sum(z2)) * np.sqrt(d2))
        assert np.all(np.abs(s2 - d2) <= 1e-14 * d2)
        # the occupations' sums: the poles as targets, the roots as sources,
        # the two outer ones beyond the span
        weights = rng.normal(size=(n + 1, columns))
        o, = discrete_oracle._cauchy_sums(
            poles, origin, weights, y_shift=tau,
            tree=discrete_oracle._tree(poles, origin, weights, y_shift=tau))
        do, _, moduli = dense_sums(poles, origin, weights, y_shift=tau)
        assert np.all(np.abs(o - do) <= 1e-14 * moduli)

    def test_interpolation_is_the_nodes_lagrange_table(self):
        # each node's Lagrange polynomial is 1 at that node and 0 at the others,
        # and the polynomials sum to the constant 1 anywhere in the leaf
        p = discrete_oracle._TREE_NODES
        nodes = np.cos(np.pi * (np.arange(p) + 0.5) / p)
        table = discrete_oracle._interpolation(nodes)
        assert table.shape == (p, p)
        assert np.max(np.abs(table - np.eye(p))) <= 1e-14
        coords = np.concatenate(([-1.0, 0.0, 1.0],
                                 np.random.default_rng(7).uniform(-1.0, 1.0, 9997)))
        rows = discrete_oracle._interpolation(coords.reshape(2, -1))
        assert rows.shape == (2, coords.size // 2, p)
        assert np.max(np.abs(np.sum(rows, axis=-1) - 1.0)) <= 1e-14
