"""Exact finite model checking for stochastic decision forests.

Forests of outcome subsets, scenario-indexed sections of moves, atom-level
σ-algebras with filtration-like information structures, and adapted
choices, together with brute-force verifiers for every defining condition.
Everything is small, immutable, and checked literally; nothing is sampled
or approximated.
"""

from .errors import InputError, KernelError, SizeCapError, StructureError
from .order_core import (
    Poset,
    connected_components,
    is_decision_forest,
    is_rooted_forest,
    is_tree,
    maximal_chains,
    separates,
    up_set,
)
from .set_forest import (
    SetForest,
    decompose,
    glue,
    representation_by_decision_paths,
    verify_own_representation,
)
from .sdf import (
    RandomMove,
    ScenarioSpace,
    Sdf,
    TTree,
    check_evaluation_bijection,
    check_ttree_theorem,
    drop_moveless_components,
    fibres,
    verify_sdf,
    x_order,
)
from .sigma_info import (
    Eis,
    Filtration,
    ObservationFamily,
    SubSigma,
    chain_filtration,
    eis_from_filtration,
    eis_from_observations,
    enumerate_eis,
    verify_eis,
)
from .choice import (
    Choice,
    Rcs,
    classify,
    down_set,
    is_adapted,
    predecessors,
    restrict_check,
    verify_rcs,
)
from .action_path import (
    ActionPathSdf,
    ActionSpace,
    PathOutcomes,
    TimeAxis,
    WindowChoiceSpec,
    agent_choice,
    build_action_path_sdf,
    check_apc3,
    check_apw,
    move_event,
    node_at,
    time_of,
    window_choice,
)
from .examples import build_simple, build_variant
from .verdict import MultiVerdict, Verdict

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
