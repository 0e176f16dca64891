"""wvlab: a numerical lab relating maximum term and maximum modulus growth.

Library surface re-exported here; the ``wvlab`` console script is the only
process boundary.
"""

from .bounds import (
    BOUND_FORMULAS,
    BOUND_IDS,
    BoundSpec,
    HSpec,
    PsiSpec,
    bound_spec,
    eval_bound,
    h_by_id,
    h_custom,
    h_disk,
    h_disklog,
    h_unit,
    iterated_log,
    phi_chain_check,
    psi_custom,
    psi_eval,
    psi_exphalf,
    psi_iter,
    psi_logpow,
    psi_pow,
    psi_square,
    psi_tail,
)
from .errors import (
    DegenerateSeriesError,
    DivergenceError,
    DomainError,
    InvariantViolation,
    TruncationError,
    ValidationError,
    WvlabError,
)
from .experiments import (
    OptimalityResult,
    RadialGrid,
    SweepResult,
    ViolationReport,
    constant_sweep,
    evaluate_grid,
    optimality_check,
    run_experiment,
    standard_lemma_set,
    violation_set,
)
from .families import (
    FamilySpec,
    binomial_series,
    exp_of_series,
    family,
    make_family,
)
from .logdomain import LOG_ZERO, log_sum_exp
from .measures import (
    DivergenceCheck,
    IntervalSet,
    MeasureOutcome,
    final_density,
    h_divergence_check,
    h_log_measure,
    log_density,
)
from .rosenbloom import (
    CoeffDistribution,
    RosenbloomStats,
    distribution,
    stats,
    stats_grid,
    verify_pointwise_lemma,
    window_sum,
)
from .series import (
    MaxTermResult,
    PowerSeries,
    log_max_term,
    log_positive_value,
    max_modulus_sampled,
    truncation_horizon,
)

__version__ = "0.1.0"
