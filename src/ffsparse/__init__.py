"""Compressive recovery of block-sparse signals structured by fusion frames."""

from .blocks import (
    BlockSupport,
    BlockVector,
    best_s_term_error,
    block_sgn,
    norm_l0_block,
    norm_l21,
    norm_l2inf,
    restrict,
)
from .bounds import (
    ComplexityEstimate,
    bernstein_matrix_tail,
    bernstein_rect_tail,
    bernstein_vector_tail,
    complexity_table,
    m_corollary,
    m_cross_gram,
    m_gaussian,
    m_nonuniform_bernoulli,
    m_submatrix,
)
from .certificate import (
    DualCertificate,
    GramConditionReport,
    RobustCheck,
    TailAudit,
    default_partition,
    empirical_tail,
    golfing_build,
    gram_conditions,
    verify_inexact,
    verify_robust,
)
from .experiments import (
    ExperimentResult,
    ExperimentSpec,
    InfeasibleConfigError,
    SpecValidationError,
    TrialRecord,
    run_experiment,
    spec_from_dict,
    spec_from_json,
)
from .frames import (
    FusionFrame,
    IncoherenceMatrix,
    RestrictedNorms,
    frame_bounds,
    frame_from_json,
    frame_to_json,
    incoherence,
    lambda_eff,
    lambda_max,
    load_frame,
    orthogonal_frame,
    random_frame,
    restricted_norms,
    save_frame,
)
from .measurement import MeasurementEnsemble, NoisySample, add_noise, draw_matrix
from .signals import compressible_signal, power_law_signal, random_support, sparse_signal
from .solver import (
    SolveReport,
    SolverConfig,
    orthogonal_closed_form,
    relative_error,
    solve_block_baseline,
    solve_l1_equality,
    solve_l1_noisy,
)

__version__ = "0.1.0"
