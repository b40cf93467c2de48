"""Termination-time analysis for probabilistic pushdown automata.

Parse or build a model, solve its termination probabilities, reduce it to a
stateless one, classify the tail regime of its termination time, and check
everything against an exact distribution oracle and a seeded simulator.
"""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .bounds import (
    NotAlmostSurelyTerminating,
    TailReport,
    ThresholdResult,
    classify,
    lower_bound_pmin,
    tail_bounds,
    threshold_for_epsilon,
    upper_bound_azuma,
    upper_bound_poly,
)
from .distribution import (
    DistTable,
    SampleStats,
    dist_csv,
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
    validate,
)
from .moments import (
    ExpectationTable,
    MomentMatrix,
    conditional_expectations,
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
    to_bpa,
)

# the imported classes, functions and constants, not the submodules that
# importing them binds here
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
