"""Block-structured Kolmogorov operators and their Gaussian analysis.

A numerical library for degenerate parabolic operators with diffusion on a
leading block of coordinates and a block-triangular linear drift: explicit
Gaussian fundamental solutions, controllability Gramians and their scaling
equivalences, minimum-energy steering controls, Harnack-chain constructions,
and Monte Carlo verification of two-sided Gaussian comparison bounds.
"""

__version__ = "0.18.0"

from .chain import (
    HarnackChain,
    HarnackConfig,
    build_chain,
    global_harnack_factor,
    verify_chain,
)
from .control import (
    ConeSpec,
    ControlProblem,
    OptimalControl,
    cone_membership,
    discrete_least_norm_control,
    kappa_estimate,
    optimal_control,
    trajectory,
)
from .exceptions import (
    ChainError,
    CoefficientError,
    GramianError,
    KolmoError,
    SettingError,
    StructureError,
)
from .gramian import (
    EquivalenceReport,
    Gramian,
    equivalence_constants,
    gramian,
    gramian_homogeneous,
    gramian_weighted,
    quadratic_form,
)
from .kernel import (
    GaussianKernel,
    aronson_upper_form,
    chapman_kolmogorov_residual,
    lower_bound_form,
    pde_residual,
)
from .mc import (
    BoundReport,
    DensityEstimate,
    SimConfig,
    estimate_density,
    mass_concentration,
    simulate_paths,
    summarize_paths,
    verify_bounds,
)
from .model import (
    BlockStructure,
    OperatorSpec,
    SpaceTimePoint,
    SystemMatrix,
    dilation_matrix,
    ellipticity_check,
    group_compose,
    group_inverse,
    homogeneous_dimension,
    kalman_rank,
    scaled_system,
    spec_from_config,
    spec_to_config,
    validate_structure,
)
