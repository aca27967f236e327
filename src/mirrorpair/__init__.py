"""Radiation-pressure entanglement of two movable cavity mirrors.

Frequency-domain engine for the linearized quadrature dynamics of two
mirrors coupled by a driven cavity mode, with a product-form variance
criterion for two-mode entanglement and independent Monte Carlo / analytic
oracles.
"""

from .model import (
    PhysicalParams, SteadyState, fig2_params, power_to_amplitude, steady_state,
)
from .dynamics import (
    LinearSystem, NoiseModel, build_linear_system, hybrid_grid, is_stable,
    stability_margin, transfer_matrix,
)
from .entanglement import (
    GaussianState, degree_sweep, optimize_separability, separability_product,
)
from .readout import (
    combine_currents, gain_condition, output_spectrum,
    output_spectrum_via_transfer, two_channel_spectra,
)
from .oracle import (
    OracleSpectra, SdeRun, classical_sde_psd, tmsv_state,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "PhysicalParams", "SteadyState", "fig2_params", "power_to_amplitude",
    "steady_state", "LinearSystem", "NoiseModel", "build_linear_system",
    "hybrid_grid", "is_stable", "stability_margin", "transfer_matrix",
    "GaussianState", "degree_sweep",
    "optimize_separability", "separability_product", "combine_currents",
    "gain_condition", "output_spectrum", "output_spectrum_via_transfer",
    "two_channel_spectra", "OracleSpectra", "SdeRun", "classical_sde_psd",
    "tmsv_state", "errors",
]
