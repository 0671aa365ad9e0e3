"""Elliptical-vortex two-mode squeezed states: wavefunction, Wigner
distribution, and Gaussian entanglement toolkit."""

from .errors import ConfigError, DomainError, NumericError, QevError
from .numerics import (
    QuadratureRule,
    gamma_half_integer,
    gauss_hermite_rule,
    laguerre_assoc_half,
)
from .state import (
    QevParams,
    intensity,
    normalization_constant,
    psi,
    psi_gradient,
    winding_number,
)
from .wigner import (
    Grid2D,
    PhasePoint,
    slice_extrema,
    wigner_closed,
    wigner_slice,
)
from .oracle import (
    MarginalReport,
    ValidationReport,
    marginal_check,
    validate_closed_form,
    wigner_norm,
    wigner_purity,
    wigner_transform,
)
from .entanglement import (
    CovarianceMatrix,
    EntanglementReport,
    log_negativity,
    second_moments,
    symplectic_eigen_physical,
    symplectic_eigen_pt,
    tmsv_covariance,
)

__version__ = "0.1.0"
