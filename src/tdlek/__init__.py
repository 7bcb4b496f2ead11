"""T-LEK / T-DLEK reasoning engine.

Timed belief and knowledge formulas, model checking over finite
neighbourhood models, the four mental operations as model transformers,
reduction of dynamic formulas to static ones, and a working-memory agent
driven by scenario scripts.
"""

from .intervals import (
    INF,
    BadInterval,
    Interval,
    IntervalSet,
    TimeExpr,
    UnboundVariable,
    difference,
    hull,
    intersect,
    make_interval,
    parse_interval,
    subset,
)
from .formulas import (
    Always,
    And,
    Atom,
    Belief,
    Bot,
    Conj,
    Dynamic,
    Formula,
    FormulaSyntaxError,
    Iff,
    Implies,
    Infer,
    Knowledge,
    Learn,
    MentalOp,
    NonGround,
    Not,
    Or,
    Revise,
    Top,
    ast_dict,
    free_vars,
    is_ground,
    match_atom,
    parse,
    print_formula,
    substitute,
    time_of,
)
from .models import (
    ModelFormatError,
    TLekModel,
    World,
    check,
    extension,
    gen_random_model,
    load_model,
    save_model,
    valid_in_model,
    validate_model,
    world_interval,
)
from .dynamics import (
    MalformedOp,
    OpOutcome,
    UnreducibleShape,
    apply,
    check_dynamic,
    reduce_formula,
)
from .agent import (
    AgentState,
    BeliefLit,
    BudgetExhausted,
    MalformedRule,
    NoSuchBelief,
    Rule,
    ScenarioError,
    UnsupportedQuery,
    infer_fixpoint,
    init,
    perceive,
    query,
    revise,
    rule_from_formula,
    run_scenario,
    to_model,
)

__all__ = [name for name in dir() if not name.startswith("_")]
