"""Coarse lower/upper bounds of uncertain acts under capacity constraints.

The package computes the best (worst) act taking at most N distinct values
that is statewise dominated by (dominates) a given act, the preference
models built on those bounds, their comparative statics, a bootstrap-based
learning simulation, and application solvers for insurance, portfolio
choice, and contracting.
"""

from .acts import Belief, DiscreteAct, ValueLadder, build_ladder, negate_ladder
from .engine import (
    BoundResult,
    CutoffVector,
    OracleResult,
    PerceivedDistribution,
    PullBackResult,
    brute_force_bound,
    cell_value,
    coarse_value,
    perceived_distribution,
    pull_back,
    siminf,
    simsup,
)
from .errors import (
    AlignmentError,
    BracketingError,
    CoarseBoundsError,
    ConvergenceError,
    DegenerateBeliefError,
    InfeasibleConstructionError,
    InvalidCapacityError,
    NonPositiveWealthError,
    OracleTooLargeError,
    PreconditionError,
)
from .partitions import common_refinement, partition_path
from .preferences import (
    Attitude,
    PreferenceVerdict,
    Provenance,
    Verdict,
    are_comonotone,
    is_well_understood,
    mix,
    simple_bounds_compare,
    statewise_dominates,
    value,
)
from .statics import (
    CapacityProfile,
    DistributionShift,
    capacity_profile,
    fosd_leq,
    mlr_cutoff_monotonicity,
    mlr_shift,
    nested_marginal_returns,
    sandwich_check,
    sosd_strict,
    sso_monotone_in_interval,
)
from .learning import (
    Dataset,
    ErrorDistribution,
    SmoothRule,
    audit_coarsening_preserves_ce,
    audit_mixture_preserves_ce,
    audit_near_constant_split,
    bootstrap_errors,
    coarsen_act,
    draw_sample,
    empirical_expectation,
    has_certain_equivalent,
    smooth_decide,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
