"""decaylab: decay of a discrete quantum state into a continuum.

Spectral-density models, self-energy with second-sheet continuation,
resonance poles, survival amplitudes by independent routes, an exact
discretized-continuum oracle, the continuum wave packet prepared by the
decay, and a direct two-surface Schrodinger simulation.
"""

__version__ = "0.1.0"

from .spectral import (AsymmetricBox, Box, Lorentzian, SpectralModel,
                       Tabulated, ThresholdPower, model_from_config)
from .selfenergy import Renormalization, SelfEnergy
from .poles import (LorentzianPoles, PoleResult, find_pole, lorentzian_poles,
                    weisskopf_wigner_rate)
from .amplitude import (SurvivalSeries, cut_integral, survival_box,
                        survival_lorentzian, survival_numeric,
                        survival_pole_cut, tail_asymptote)
from .discrete_oracle import (DiscreteModel, PartitionedResolvent,
                              build_discrete, resolvent_direct,
                              resolvent_partitioned, survival_exact_discrete)
from .continuum import (ContinuumPacket, airy_slope_eigenfunction,
                        default_energy_grid, evolve_packet,
                        packet_coefficients, packet_norm_sq,
                        plane_wave_eigenfunction, synthesize_packet)
from .twosurface import (GoldenRule, TwoSurfaceConfig, TwoSurfaceState,
                         TwoSurfaceRun, golden_rule_rate, init_state,
                         packet_moments, run, step, survival_probability)
from . import errors

__all__ = [
    "__version__",
    "SpectralModel", "Lorentzian", "Box", "AsymmetricBox", "ThresholdPower",
    "Tabulated", "model_from_config",
    "SelfEnergy", "Renormalization",
    "PoleResult", "LorentzianPoles", "weisskopf_wigner_rate", "find_pole",
    "lorentzian_poles",
    "SurvivalSeries", "survival_numeric", "survival_lorentzian", "survival_box",
    "cut_integral", "tail_asymptote", "survival_pole_cut",
    "DiscreteModel", "PartitionedResolvent", "build_discrete",
    "resolvent_direct", "resolvent_partitioned", "survival_exact_discrete",
    "ContinuumPacket", "default_energy_grid",
    "packet_coefficients", "packet_norm_sq", "plane_wave_eigenfunction",
    "airy_slope_eigenfunction", "synthesize_packet", "evolve_packet",
    "TwoSurfaceConfig", "TwoSurfaceState", "TwoSurfaceRun", "GoldenRule",
    "init_state", "step", "survival_probability", "golden_rule_rate", "run",
    "packet_moments",
    "errors",
]
