"""Trace-quantified temporal specifications as learning objectives.

The package parses quantified temporal formulas over finite traces, rewrites
quantifier alternation into witness functions, scores trace bundles with a
quantitative robustness semantics, and uses those scores as rewards to learn
per-quantifier control policies in black-box multi-trace environments.
"""

from importlib import resources as _resources

from .formula import (
    Diagnostic,
    Formula,
    ParseError,
    TraceVar,
    load_formula,
    parse_formula,
    unparse,
    validate,
)
from .skolem import (
    SkolemizedFormula,
    WitnessTable,
    check_consistency,
    dependency_sets,
    skolemize,
)
from .robustness import (
    Label,
    RobustnessConfig,
    Trace,
    Verdict,
    ZippedTrace,
    boolean_sat,
    eval_hyper,
    eval_ltl,
    ordered_union,
    sat_verdict,
    zip_traces,
)
from .env import Environment, EpisodeRecord, JointAction, JointState
from .worlds import (
    DominoSet,
    GridMap,
    ResourceGridConfig,
    build_env,
    gridworld_env,
    load_map,
    pcp_env,
    pcp_oracle,
    resource_env,
    wildfire_env,
)
from .learner import (
    Hyperparams,
    PolicySet,
    TabularQ,
    TrainResult,
    extract_policies,
    greedy_rollout,
    immediate_reward,
    q_update,
    train,
)


def bundled(relpath: str):
    """Path of a bundled data file, e.g. ``bundled("formulas/rescue.hltl")``."""
    return _resources.files(__name__) / "data" / relpath
