"""Nuclear-norm penalized risk minimization over symmetric matrices,
plus an empirical verification harness for sharp low-rank oracle bounds."""

from .bounds import (
    BoundReport,
    RademacherStats,
    adjusted_confidence,
    compatibility_basis,
    compatibility_lower_bound,
    design_moment_bounds,
    enumerate_rademacher_norm_fixed,
    epsilon_threshold,
    estimate_rademacher_norm,
    estimate_rademacher_norm_fixed,
    matrix_bernstein_bound,
    oracle_bound_report,
    sample_rademacher_averages,
)
from .constraints import FrobeniusBall, OperatorNormBall, Unconstrained
from .designs import (
    ClassificationLink,
    Dataset,
    DesignDistribution,
    GaussianNoise,
    TruthModel,
    bayes_risk_per_atom,
    custom_design,
    excess_risk,
    functional_l2_norm,
    load_dataset,
    orthonormal_basis_design,
    population_risk,
    response_domain,
    sample_dataset,
)
from .errors import NumericalError, ValidationError
from .harness import (
    DEFAULT_SEED,
    ExperimentConfig,
    RankSweepResult,
    SummaryReport,
    TrialRecord,
    epsilon_sweep,
    mix_seed,
    rank_sweep,
    resolve_plan,
    run_oracle_trials,
    write_outputs,
)
from .losses import (
    FiniteSet,
    Interval,
    LossConstants,
    LossModel,
    exponential_loss,
    get_loss,
    loss_constants,
    q_value,
    register_loss,
    squared_loss,
)
from .matrices import (
    SpectralDecomposition,
    SupportProjector,
    best_rank_approximation,
    frobenius_norm,
    load_matrix,
    nuclear_norm,
    operator_norm,
    save_matrix,
    sign_and_support,
    spectral_decompose,
)
from .solver import (
    Certificate,
    SolveResult,
    SolverConfig,
    certify,
    composite_prox,
    empirical_risk,
    gradient,
    objective,
    optimality_residuals,
    solve,
)

__version__ = "0.1.0"
