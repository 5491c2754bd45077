"""Bounded satisfiability solving and model synthesis for alternating-time
temporal logic over synchronous multi-agent systems."""

from .approx import (
    Mode,
    PartialModel,
    check_validity,
    is_compatible,
    sapp,
    solve_formula,
)
from .formula import (
    And,
    Coalition,
    Eventually,
    FalseConst,
    Formula,
    FormulaSyntaxError,
    GenParams,
    Globally,
    Implies,
    Next,
    Not,
    Or,
    Prop,
    TrueConst,
    Until,
    connective_count,
    format_formula,
    generate_random_formula,
    generate_with_counts,
    normalize,
    parse_formula,
    strategic_depth,
)
from .mas import (
    Assignment,
    EmptyProtocolRowError,
    Model,
    ModelShape,
    TransitionStructure,
    UndefCellError,
    decode_model,
    encode_model,
    state_index,
    state_locals,
    successors,
)
from .mc import StateSet, atl_pre
from .solver import (
    BoundsError,
    Requirements,
    SolveTimeout,
    SolverConfig,
    SolverResult,
    SolverStats,
    minimize_conflict,
    solve_satisfiability,
)
from .witness import (
    read_witness_json,
    witness_from_dict,
    witness_to_dict,
    witness_to_dot,
    write_witness_json,
)

__version__ = "0.1.0"
