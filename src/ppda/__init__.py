"""Termination-time analysis for probabilistic pushdown automata.

Parse or build a model, solve its termination probabilities, reduce it to a
stateless one, classify the tail regime of its termination time, and check
everything against an exact distribution oracle and a seeded simulator.
"""

__version__ = "0.1.0"

from .bounds import (
    Analysis,
    NotAlmostSurelyTerminating,
    TailReport,
    ThresholdResult,
    classify,
    g_function,
    lower_bound_pmin,
    threshold_for_epsilon,
    upper_bound_azuma,
    upper_bound_azuma_loose,
    upper_bound_poly,
)
from .distribution import (
    DistTable,
    SampleStats,
    dist_csv,
    exact_distribution_bpa,
    exact_distribution_pda,
    exact_distribution_word,
    sample_csv,
    simulate,
    simulate_heads,
    tail,
)
from .graph import DependenceInfo, dependence
from .model import (
    BPA_STATE,
    Configuration,
    ModelError,
    Pda,
    Rule,
    Triple,
    make_bpa,
    parse_model,
    serialize,
    step_distribution,
    validate,
)
from .moments import (
    ExpectationTable,
    MomentMatrix,
    conditional_expectations,
    expectations,
    moment_matrix,
)
from .termination import (
    NewtonDivergedError,
    TerminationTable,
    qualitative_zero,
    termination_probs,
)
from .transform import (
    TransformError,
    TransformResult,
    cone_vector,
    make_u_progressive,
    terminating_part,
    to_bpa,
)

__all__ = [name for name in dir() if not name.startswith("_")]
