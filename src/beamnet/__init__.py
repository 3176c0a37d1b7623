"""Effective beam width of directional antennas and ALOHA network capacity experiments."""

__version__ = "0.14.0"

from .patterns import (
    AntennaPattern,
    binomial_array,
    chebyshev_array,
    chebyshev_arrays,
    esnla,
    omni,
    sector,
)
from .ebw import (
    BasisDistribution,
    EbwEstimate,
    MixtureDistribution,
    effective_beam_width,
    effective_beam_widths,
    exact_beam_width,
    exact_beam_widths,
    interference_probability,
)
from .scaling import PowerLawFit, SweepTable, fit_power_law, optimize_chebyshev_rms, sweep
from .netsim import NetworkConfig, NetworkState, generate_network, estimate_throughput
from .analytic import f_alpha, guard_zone, optimal_params, transport_root

__all__ = [
    "AntennaPattern",
    "BasisDistribution",
    "EbwEstimate",
    "MixtureDistribution",
    "NetworkConfig",
    "NetworkState",
    "PowerLawFit",
    "SweepTable",
    "binomial_array",
    "chebyshev_array",
    "chebyshev_arrays",
    "effective_beam_width",
    "effective_beam_widths",
    "esnla",
    "estimate_throughput",
    "exact_beam_width",
    "exact_beam_widths",
    "f_alpha",
    "fit_power_law",
    "generate_network",
    "guard_zone",
    "interference_probability",
    "omni",
    "optimal_params",
    "optimize_chebyshev_rms",
    "sector",
    "sweep",
    "transport_root",
]
