"""Harmonic ring chain near the buckling transition.

Equilibrium configurations, normal-mode spectra, thermal covariance
matrices, pair and block entanglement measures, and an energy-based
entanglement witness, for a ring of transversely trapped charges with
nearest-neighbour or longer-range quadratic couplings. hbar = k_B = 1
throughout.
"""

from .covariance import (
    CovarianceMatrix,
    MomentTable,
    PairMoments,
    block_covariance,
    block_covariance_at,
    direct_covariance_oracle,
    moment_table,
    pair_moments,
    pair_moments_at,
    td_pair_criteria,
    td_single_site_eigenvalue,
)
from .entanglement import (
    BlockEntropyReport,
    block_entropy,
    block_entropy_profile,
    negativity,
    separability_criteria,
    spectrum_entropy,
    symplectic_spectra,
    symplectic_spectrum,
)
from .errors import (
    ConfigError,
    Divergent,
    DomainError,
    ImaginaryFrequency,
    NoConvergence,
    NumericalFailure,
    QuadratureFailure,
)
from .lattice import (
    Configuration,
    CouplingCoefficients,
    LatticeParams,
    Variant,
    checked_temperatures,
    critical_potential,
    equilibrium_residual,
    solve_equilibrium,
    taylor_coefficients,
    tilde_frequencies,
)
from .spectrum import (
    ModeSpectrum,
    build_spectra,
    build_spectrum,
    coupling_matrix,
    symplectic_diagonalize,
)
from .witness import (
    WitnessReport,
    critical_temperature,
    effective_frequencies,
    internal_energy,
    separability_bound,
    witness_report,
    witness_reports,
)

__version__ = "0.1.0"

__all__ = [
    "BlockEntropyReport",
    "Configuration",
    "ConfigError",
    "CouplingCoefficients",
    "CovarianceMatrix",
    "Divergent",
    "DomainError",
    "ImaginaryFrequency",
    "LatticeParams",
    "ModeSpectrum",
    "MomentTable",
    "NoConvergence",
    "NumericalFailure",
    "PairMoments",
    "QuadratureFailure",
    "Variant",
    "WitnessReport",
    "block_covariance",
    "block_covariance_at",
    "block_entropy",
    "block_entropy_profile",
    "build_spectra",
    "build_spectrum",
    "checked_temperatures",
    "coupling_matrix",
    "critical_potential",
    "critical_temperature",
    "direct_covariance_oracle",
    "effective_frequencies",
    "equilibrium_residual",
    "internal_energy",
    "moment_table",
    "negativity",
    "pair_moments",
    "pair_moments_at",
    "separability_bound",
    "separability_criteria",
    "solve_equilibrium",
    "spectrum_entropy",
    "symplectic_diagonalize",
    "symplectic_spectra",
    "symplectic_spectrum",
    "taylor_coefficients",
    "td_pair_criteria",
    "td_single_site_eigenvalue",
    "tilde_frequencies",
    "witness_report",
    "witness_reports",
]
