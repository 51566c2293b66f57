"""One block budget governs every blocked array pass."""

import sys

import numpy as np
import pytest

import decaylab as dl
from decaylab import _blocks, amplitude, continuum, discrete_oracle, spectral

# Elements per block under test.  With it every site below splits into
# several blocks and ends on a ragged one:
#   stretches of 20,480 nodes: 20,480 + 20,480 + 7,001 of 47,961;
#   chirp-z: 5 blocks of 4096 a stretch, 4 per FFT batch (nfft > 4096): 4 + 1;
#   direct sum at 41 times: 499 nodes a batch, 20,480 = 41 * 499 + 21;
#   cut integral, 577 exp-sinh nodes: 35 times a batch, 100 = 2 * 35 + 30;
#   200-knot table: 102 points a block, 1,001 = 9 * 102 + 83;
#   400-bin oracle, dense sums: 51 roots a block of the secular sums
#   (401 = 7 * 51 + 44) and 51 bins a Cauchy block of the occupations
#   (400 = 7 * 51 + 43);
#   1000-bin oracle at the 41 non-uniform times: the secular sums on a tree
#   over the bins of eight leaves of 124 or 125 roots, 54 roots a block
#   over an inner leaf's near field of 375 poles (125 = 2 * 54 + 17) and 81
#   over an end leaf's 250, the two outer roots one row over all poles each,
#   and 487 roots a block of the phase tables (1001 = 2 * 487 + 27);
#   300 x points: 68 energies a block, 201 = 2 * 68 + 65, and Ai in chunks
#   of 20,480 / 8 = 2,560 points, 20,400 = 7 * 2,560 + 2,480.
# Like the default, it is a whole number of 4096-node chirp-z blocks, so the
# stretches split the contour at the same nodes as the default's blocks;
# stretches of 20,000 nodes shift every block and moved the amplitude by
# 1.3e-12, the transform's own rounding level (6.6e-13 from the dense sum).
SMALL = 5 * 4096
N_POINTS = 2 * SMALL + 7_001
TIMES = np.linspace(0.0, 20.0, 41)
NON_UNIFORM = TIMES + 0.013 * (np.arange(TIMES.size) == 17)
TABLE_EPS = np.linspace(0.0, 20.0, 200)
TABLE = dl.Tabulated(TABLE_EPS, dl.ThresholdPower(0.01, 0.5, 0.0, 20.0).density(TABLE_EPS))
OMEGA = np.linspace(-5.0, 25.0, 1001) + 0.3j
PACKET_X = np.linspace(-1.0, 1.0, 300)


def packet(basis, **kwargs):
    eps = np.linspace(20.0, 30.0, 201) if basis == "plane_wave" else np.linspace(-3.0, 3.0, 201)
    coeffs = dl.packet_coefficients(0.07, eps.mean(), 0.03, eps, [0.5, 2.0, 7.0])
    return dl.synthesize_packet(eps, coeffs, PACKET_X, basis, **kwargs)


def oracle():
    series, occupations = dl.survival_exact_discrete(
        dl.build_discrete(dl.ThresholdPower(0.01, 0.5, 0.0, 20.0), 5.0, 400),
        TIMES, with_occupations=True)
    return np.concatenate([series.amplitude, occupations.ravel()])


# case -> (computation, the functions whose blocked passes it runs)
CASES = {
    "chirp_z_inversion": (
        lambda: dl.survival_numeric(dl.SelfEnergy(TABLE), 5.0, TIMES,
                                    n_points=N_POINTS).amplitude,
        {"survival_numeric", "_chirp_z"}),
    "direct_inversion": (
        lambda: dl.survival_numeric(dl.SelfEnergy(TABLE), 5.0, NON_UNIFORM,
                                    n_points=N_POINTS).amplitude,
        {"survival_numeric"}),
    "cut_integral": (
        lambda: dl.cut_integral(dl.SelfEnergy(dl.ThresholdPower(0.01, 0.5, 0.0, 20.0)), 5.0,
                                np.linspace(0.1, 50.0, 100)),
        {"cut_integral"}),
    "tabulated_cauchy": (lambda: TABLE.cauchy(OMEGA), {"_knot_sum"}),
    "tabulated_cauchy_derivative": (lambda: TABLE.cauchy_derivative(OMEGA), {"_knot_sum"}),
    "oracle_with_occupations": (
        oracle, {"_cauchy_sums<_secular", "_cauchy_sums<survival_exact_discrete"}),
    "oracle_non_uniform_times": (
        lambda: dl.survival_exact_discrete(
            dl.build_discrete(dl.ThresholdPower(0.01, 0.5, 0.0, 20.0), 5.0, 1000),
            NON_UNIFORM)[0].amplitude,
        {"_cauchy_sums<_secular", "survival_exact_discrete"}),
    "packet_plane_wave": (lambda: packet("plane_wave"), {"synthesize_packet"}),
    "packet_airy": (lambda: packet("linear_slope_airy", beta_slope=3.0),
                    {"synthesize_packet", "_ai"}),
}


@pytest.mark.parametrize("compute, sites", CASES.values(), ids=CASES)
def test_small_budget_changes_only_the_grouping(monkeypatch, compute, sites):
    default = compute()
    ragged = set()

    def recording_blocks(n_rows, n_cols):
        # blocks of the small budget's size, several and the last one ragged
        blocks = list(_blocks.row_blocks(n_rows, n_cols))
        step = SMALL // n_cols
        if blocks[0].stop == step < n_rows and n_rows % step:
            # the site, and the site with its caller: "_cauchy_sums<_secular"
            site = sys._getframe(1).f_code
            ragged.update((site.co_name, f"{site.co_name}<{sys._getframe(2).f_code.co_name}"))
        return iter(blocks)

    monkeypatch.setattr(_blocks, "BLOCK_ELEMENTS", SMALL)
    for module in (amplitude, continuum, discrete_oracle, spectral):
        monkeypatch.setattr(module, "row_blocks", recording_blocks)
    small = compute()
    assert ragged >= sites
    np.testing.assert_allclose(small, default, rtol=0, atol=1e-13)
