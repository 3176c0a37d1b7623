"""Effective beam width of directional antennas and ALOHA network capacity experiments."""

__version__ = "0.1.0"

from .patterns import (
    AntennaPattern,
    ThresholdWidth,
    binomial_array,
    chebyshev_array,
    esnla,
    omni,
    sector,
    threshold_widths,
)
from .ebw import (
    BasisDistribution,
    EbwEstimate,
    MixtureDistribution,
    effective_beam_width,
    interference_probability,
    mixture_ebw,
    quadrature_beam_width,
    verify_bounds,
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
    "ThresholdWidth",
    "binomial_array",
    "chebyshev_array",
    "effective_beam_width",
    "esnla",
    "estimate_throughput",
    "f_alpha",
    "fit_power_law",
    "generate_network",
    "guard_zone",
    "interference_probability",
    "mixture_ebw",
    "omni",
    "optimal_params",
    "optimize_chebyshev_rms",
    "quadrature_beam_width",
    "sector",
    "sweep",
    "threshold_widths",
    "transport_root",
    "verify_bounds",
]
