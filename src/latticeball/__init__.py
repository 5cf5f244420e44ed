"""Numerical laboratory for lattice point counts in balls.

The package measures the remainder between the number of lattice points
in a ball of radius t and the ball's volume, across deterministic bases,
compact perturbation families, and Haar-random unimodular lattices, and
provides the Fourier-side tools (ball transforms, mollified Poisson
summation, oscillatory integrals) that explain the observed scaling.
"""

__version__ = "0.1.0"

from .basis import (
    LatticeBasis,
    SingularBasisError,
    gram,
    identity_basis,
    transformed_coords,
)
from .counting import (
    ball_volume,
    count_many,
    count_points,
    error_term,
    unit_ball_volume,
)
from .fourier import (
    MollifierSpec,
    SandwichResult,
    hat_chi_ball,
    sandwich_check,
)
from .meanvalue import (
    CalibrationError,
    CnResult,
    ExperimentStats,
    ScalingFit,
    compute_cn,
    fit_scaling_exponent,
    mc_stats,
    scaling_identity_check,
    siegel_calibration,
    siegel_mean,
    variance_prediction,
)
from .oscillatory import (
    HessianReport,
    OscillatorySpec,
    ResolutionError,
    VdcReport,
    I_kl,
    discriminant,
    hessian_bound_check,
    vdc_check,
)
from .sampling import (
    CompactFamilySpec,
    HaarSamplerConfig,
    RejectionBudgetError,
    Seed,
    rng_for,
    sample_compact,
    sample_haar_unimodular,
)
