"""Exact information complexity and exponential tractability for weighted
linear tensor product approximation problems."""

from .complexity import (
    DEFAULT_NODE_BUDGET,
    CountResult,
    Query,
    d_of_eps,
    info_complexity,
    j_of_eps,
    nth_minimal_error,
    top_eigenvalues,
)
from .errors import (
    BoxTooSmall,
    BudgetExceeded,
    ConfigError,
    DivergentTail,
    GuardExceeded,
    InvalidIndex,
    NonCompact,
    SequenceError,
    TensorTractError,
    UnsupportedNotion,
)
from .seqcore import (
    ConstantOne,
    DoubleExpPower,
    EigenSeq,
    EventuallyZero,
    ExpPower,
    Growth,
    IterLog,
    LogPower,
    PowerLaw,
    Tabulated,
    TripleExp,
    WeightSeq,
    family_from_descriptor,
    load_log_table,
)
from .tractability import (
    DEFAULT_E_GRID,
    DEFAULT_J_GRID,
    Diagnostic,
    DivergenceResult,
    LimitEstimate,
    Notion,
    NotionKind,
    ProbePolicy,
    SummabilityResult,
    Verdict,
    VerdictStatus,
    b_qpt_estimate,
    b_spt_estimate,
    classify,
    divergence_check,
    eta_exponent,
    summability,
    wt_s_below_one_check,
)
from .verify import (
    AuditCheck,
    AuditReport,
    brute_force_count,
    check_count_sandwich,
    check_summability_equivalence,
    oracle_equivalence_suite,
    power_sum_split,
    power_sum_suite,
)

__version__ = "0.1.0"

# Public classes, functions and constants; submodules stay importable, but unlisted.
__all__ = [n for n in dir() if n[0] != "_" and not isinstance(globals()[n], type(errors))]
