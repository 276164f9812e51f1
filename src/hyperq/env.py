"""Black-box multi-trace environment interface.

An environment advances one opaque state per trace slot under a joint action
and exposes only reset/step/label observations; transition dynamics stay
hidden from learners.  All bundled environments are deterministic given the
reset seed, so stochasticity enters only through exploration.  A run keeps
what it has observed of one in a `StateTable`, keyed on small integer ids of
the joint states it has seen.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .robustness import Label, Trace


class EpisodeExhaustedError(RuntimeError):
    pass


class InvalidActionError(ValueError):
    pass


class ArityMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class JointState:
    """One opaque per-slot state per trace plus the step counter."""

    per_trace: tuple
    step_count: int = 0


@dataclass(frozen=True)
class JointAction:
    per_trace: tuple


@dataclass
class EpisodeRecord:
    """Everything one episode produced: states, actions, traces, robustness.

    A run keeps the visited states' slot states only; `states` makes the
    JointStates from them when asked."""

    slot_states: list = field(default_factory=list)  # visited states' per_trace, length steps+1
    actions: list = field(default_factory=list)      # joint action tuples, length steps
    traces: list = field(default_factory=list)       # one Trace per slot
    rhos: list = field(default_factory=list)         # robustness after each step
    terminal_rho: float = 0.0

    @property
    def steps(self) -> int:
        return len(self.actions)

    @property
    def states(self) -> list:
        """The visited JointStates, built from `slot_states` on each access."""
        return [JointState(per_trace, t) for t, per_trace in enumerate(self.slot_states)]


class Environment:
    """Base class; a concrete world implements the hidden dynamics as
    `transition`, and the base `step` does the bookkeeping around it.

    `transition`, `label_of` and `trace_prefix` depend on a state's
    `per_trace` alone, never on its `step_count`: a run keeps one successor
    per joint state and joint action, and one label column or robustness
    value per joint state (see `StateTable`).  A
    stochastic world would draw the effective action before the lookup, so
    that `transition` stays a pure function.

    `kind` is the world's ``[environment] kind`` name and `file_key` the one
    other key it reads besides ``beta``: a map or domino file passed to the
    constructor, or None.  `actions` is the per-slot action alphabet (shared
    by all slots), `arity` the number of trace slots, and `beta` the episode
    length bound.  `metric_columns` are the training CSV columns between
    ``episode`` and ``rho``.  A world with a hand-crafted comparison reward
    (``reward_mode = baseline``) defines `baseline_reward(prev_state,
    action, next_state)`.

    `step` validates a joint-action tuple the first time it sees it and
    remembers it in `valid_actions` (see `check_action`); an invalid tuple is
    never remembered, so it raises on every step that passes it.
    """

    kind = "abstract"
    file_key: str | None = None
    actions: tuple = ()
    arity: int = 0
    beta: int = 0
    metric_columns: tuple = ()

    def __init__(self):
        self.valid_actions: set = set()

    def reset(self, seed: int) -> JointState:
        raise NotImplementedError

    def step(self, state: JointState, action: JointAction) -> JointState:
        """The joint state one step after `state` under `action`; raises
        EpisodeExhaustedError at the episode bound `beta`."""
        if state.step_count >= self.beta:
            raise EpisodeExhaustedError(f"episode length bound {self.beta} reached")
        joint = action.per_trace
        if joint not in self.valid_actions:
            self.check_action(action)
        return JointState(self.transition(state.per_trace, joint), state.step_count + 1)

    def transition(self, per_trace: tuple, joint: tuple) -> tuple:
        """The dynamics: the slot states after the joint action `joint` (one
        action name per slot) from the slot states `per_trace`.  A pure
        function of its arguments; `joint` is already validated."""
        raise NotImplementedError

    def label_of(self, state: JointState) -> tuple:
        """One `Label` per slot, a function of `state.per_trace` alone."""
        raise NotImplementedError

    # Slot states double as tabular learning keys.
    def encode(self, state: JointState) -> tuple:
        return state.per_trace

    def trace_prefix(self, state: JointState):
        """Per-slot traces for the episode so far, or None when the trace is
        simply the per-step label sequence.  A function of `state.per_trace`
        alone, so a run scores each joint state of such a world once (see
        `StateTable`)."""
        return None

    def trace_delta(self, prev: JointState, state: JointState) -> tuple:
        """For a world with `trace_prefix`, the rewrite from `prev`, any
        earlier state of the same episode, to `state`: (lo, columns), where
        lo is the lowest position of the zipped prefix that changed on the
        way (at most `prev`'s prefix length) and columns are `state`'s
        zipped columns, one tuple of labels per position, from lo on."""
        raise NotImplementedError

    def episode_metrics(self, record: EpisodeRecord, previous: dict) -> dict:
        """Values of `metric_columns` for a finished episode; `previous` is the
        row of the episode before (empty for the first), for running totals."""
        return {}

    def check_action(self, action: JointAction):
        """Raise unless `action` is a joint action of this world; remember a
        valid one in `valid_actions`.  `step` calls this only for a tuple
        not already there."""
        if len(action.per_trace) != self.arity:
            raise ArityMismatchError(
                f"joint action has {len(action.per_trace)} slots, environment has {self.arity}")
        for a in action.per_trace:
            if a not in self.actions:
                raise InvalidActionError(f"unknown action {a!r}")
        self.valid_actions.add(action.per_trace)


@functools.lru_cache(maxsize=None)
def _joint_actions(actions: tuple, arity: int) -> tuple:
    """Every JointAction of `arity` slots over `actions`, in product order;
    made once per alphabet, since `eval` starts two tables."""
    return tuple(JointAction(a) for a in itertools.product(actions, repeat=arity))


class StateTable:
    """The joint states one run has seen, each under a small integer id.

    A state's id is its index in `states`, which holds its slot states
    (`per_trace`), and in `rows`, which holds what `make_row(state)` made of
    it on its first visit (the learner's Q row).  A world that labels its
    states (`labelled`) has the id's label column (`label_of`) in
    `columns`; a world with `trace_prefix` has the robustness of the id's
    prefix in `scores`, None until a run first scores it, since that prefix
    is a function of the joint state.  Scores hold for one formula and
    robustness config, those of the runs that share the table.
    `actions` are the world's joint actions, all combinations of `actions`
    over the slots, and `index` maps a joint-action tuple to its position.
    `successors[i * width + a]` is the id one step on from state i under
    joint action a, or -1 until a run has taken that step, always through
    `Environment.step`, so the episode bound and the action check stay
    there.  Since `transition`, `label_of` and `trace_prefix` read only
    `per_trace`, the table is a pure cache: `start` begins it afresh once it
    holds more than `limit` ids, and nothing a run computes changes.
    """

    limit = 2048

    def __init__(self, env: Environment, make_row=None):
        self.env = env
        self.make_row = make_row
        self.actions = _joint_actions(tuple(env.actions), env.arity)
        self.index = {a.per_trace: k for k, a in enumerate(self.actions)}
        self.width = len(self.actions)
        self.unknown = [-1] * self.width   # the successors of a new id
        self.ids: dict = {}
        self.states: list = []
        self.columns: list = []
        self.scores: list = []
        self.rows: list = []
        self.successors: list = []

    def clear(self):
        """Forget every id; the lists stay the same objects."""
        for part in (self.ids, self.states, self.columns, self.scores, self.rows,
                     self.successors):
            part.clear()

    def start(self, state: JointState) -> int:
        """The id of an episode's start state, after beginning the table
        afresh when it is full.  Beginning it gives `state` id 0 and finds
        out whether the world labels its states: `opening` is `state`'s
        `trace_prefix`, None for a world that labels them."""
        if not self.states or len(self.states) > self.limit:
            self.clear()
            self.opening = self.env.trace_prefix(state)
            self.labelled = self.opening is None
        return self.intern(state)

    def intern(self, state: JointState) -> int:
        """The id of `state`, given on its first visit."""
        i = self.ids.get(state.per_trace)
        if i is None:
            i = self.ids[state.per_trace] = len(self.states)
            self.states.append(state.per_trace)
            if self.labelled:
                self.columns.append(tuple(self.env.label_of(state)))
            else:
                self.scores.append(None)
            self.rows.append(self.make_row(state) if self.make_row else None)
            self.successors += self.unknown
        return i
