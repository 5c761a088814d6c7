"""Toolkit for linear systems with multiplicative noise: simulation,
moment-based identification from multiple trajectories, noise-covariance
identifiability, finite-sample error bounds, and benchmark experiments.
"""

from .baselines import rls_fit
from .bounds import (
    BoundContext,
    bound_context,
    constants_from_setup,
    delta_family,
    eta_family,
    invert_bound,
    boundedness_constants,
)
from .identifiability import (
    build_E_alpha,
    build_E_beta,
    classify_uniqueness,
    entry_map,
    equivalence_class,
    project_psd,
    recover_under_constraints,
    sigma_from_class,
)
from .mals import (
    EstimationResult,
    design_inputs,
    empirical_moments,
    mals,
    solve,
)
from .moment_oracle import (
    assemble_population,
    check_excitation,
    controllable,
    lift,
    propagate_first,
    propagate_second,
)
from .presets import PRESET_NAMES, get_preset
from .shape_ops import mat, reshape_F, reshape_G, selection_matrices, smat, svec, vec
from .system_model import (
    CovarianceNoise,
    EigenStructuredNoise,
    FixedInitial,
    InputSchedule,
    MultNoiseSystem,
    RolloutSet,
    TruncatedGaussianInitial,
    UniformBoxInitial,
    ZeroNoise,
    embed_additive_noise,
    make_system,
    simulate_rollouts,
)

__version__ = "0.1.0"
