"""Quantized Lorenz-Mie scattering off a lossless dielectric sphere.

Submodules are layered bottom-up: specfun (special functions), miecore
(phase shifts), modes (eigenmode fields), observables (cross sections,
S-matrix, two-photon correlations), bogoliubov (coupling kernels), cli.
The names below cover the common entry points; everything else is
reachable through the submodules.
"""

from .bogoliubov import a_offdiagonal_kernel, b_coefficient, coupling_v
from .errors import (
    ConfigError,
    ConsistencyError,
    DegenerateChannelError,
    DomainError,
    NonFiniteError,
    PoleExcludedError,
    QmieError,
    ResourceLimitError,
    ToleranceError,
)
from .miecore import ChannelIndex, PhaseShiftRecord, SphereSpec, phase_shift, truncation_order
from .modes import (
    PlaneModeIndex,
    SphericalModeIndex,
    plane_wave_coefficients,
    scattering_eigenmode,
)
from .observables import (
    differential_cross_section,
    g2_map,
    p_alpha,
    s_matrix_channels,
    scattering_amplitude,
    total_cross_section,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelIndex",
    "ConfigError",
    "ConsistencyError",
    "DegenerateChannelError",
    "DomainError",
    "NonFiniteError",
    "PhaseShiftRecord",
    "PlaneModeIndex",
    "PoleExcludedError",
    "QmieError",
    "ResourceLimitError",
    "SphereSpec",
    "SphericalModeIndex",
    "ToleranceError",
    "a_offdiagonal_kernel",
    "b_coefficient",
    "coupling_v",
    "differential_cross_section",
    "g2_map",
    "p_alpha",
    "phase_shift",
    "plane_wave_coefficients",
    "s_matrix_channels",
    "scattering_amplitude",
    "scattering_eigenmode",
    "total_cross_section",
    "truncation_order",
    "__version__",
]
