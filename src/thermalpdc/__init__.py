"""Thermal-seeded parametric downconversion toolkit.

Builds the two-mode Gaussian covariance description of each correlated
momentum pair, classifies separability through the partial transpose,
evaluates intensity-correlation diagnostics and their nonclassicality
thresholds, cross-checks everything against an exact truncated Fock-space
evolution, and reconstructs ghost images and ghost-diffraction patterns
from the fourth-order correlation of the two arms.
"""

from .correlations import (
    correlation_index,
    cross_covariance,
    noise_reduction_factor,
    noise_reduction_threshold,
    sweep_columns,
)
from .fock import (
    FactorizationCheck,
    MomentSet,
    TwoModeFockState,
    cross_amplitude,
    evolve_thermal_pair,
    input_tail_problem,
    moments,
    predicted_moments,
    validate_factorization,
)
from .gaussian import (
    SYMPLECTIC_FORM,
    CovarianceBlock,
    ModeParams,
    SeparabilityVerdict,
    apply_loss,
    build_covariance,
    check_separability,
    check_separability_lossy,
    covariance_with_phase,
    partial_transpose,
    separability_margin,
    symplectic_eigenvalues,
)
from .ghost import (
    ConstantProfile,
    DiffractionPattern,
    G2Map,
    GainProfile,
    GeometryError,
    GhostGeometry,
    GhostImage,
    MomentumGrid,
    SincProfile,
    correlation_amplitude,
    g2_map,
    ghost_diffraction,
    ghost_image,
    matched_image_grids,
)
from .objects import SampledObject, double_slit, grating, load_object_csv, single_slit

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
