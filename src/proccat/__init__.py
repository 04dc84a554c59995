"""Finite, executable model of time-indexed processes.

Values live over a finite time scale and are observed at a pair (present
time, horizon); processes record values over an interval and may stop
with a result.  The package provides the expansion, joining, and merging
operators on such processes, unique-solution solvers for corecursive and
recursive definitions, and an exhaustive law-checking harness that
verifies every structural law by elementwise comparison.
"""

from .times import (
    IndexMor,
    IndexPair,
    ScaleParseError,
    TermBound,
    TimeScale,
    UNBOUNDED,
    parse_scale_expr,
    scale_from_expr,
    validate_scale,
    w_leq,
    w_meet,
)
from .finset import (
    Atom,
    CapExceeded,
    DEFAULT_CAP,
    FinMor,
    FinObj,
    Inj,
    Tup,
    UNIT_ELEM,
    fin_mor,
    fin_obj,
)
from .temporal import (
    TemporalMor,
    TemporalObj,
    check_functor,
    const_obj,
    empty_obj,
    enumerate_nat_trans,
    first_difference,
    flag_temporal,
    mor_equal,
    naturality_witness,
    pointwise_coproduct,
    pointwise_product,
    require_functor,
    require_natural,
    temporal_mor,
    temporal_obj,
    unit_obj,
)
from .process import (
    LiveSpace,
    Ongoing,
    ProcSpace,
    StepSpace,
    Terminated,
    behavior_live_space,
    behavior_space,
    event_space,
    event_step_space,
    live_map,
    nonstop_space,
    proc_map,
    render_value,
)
from .operators import (
    MergeSpace,
    expand,
    expand_live,
    expand_step,
    expanded_space,
    join,
    join_live,
    join_step,
    joining_space,
)
from .fixpoints import (
    CoiterProblem,
    RecurProblem,
    coiter_proc,
    coiter_step,
    recur_live,
)
from .twoexit import (
    TwoExitProblem,
    answers_from_collapse,
    check_roundtrips,
    collapse_from_answers,
    defer_all,
)
from .laws import (
    Diagram,
    LawReport,
    MUTATIONS,
    PathEq,
    SUITES,
    check_diagram,
    law_grid,
    run_suites,
)

__version__ = "0.1.0"
