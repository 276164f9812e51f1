"""Black-box multi-trace environment interface.

An environment advances one opaque state per trace slot under a joint action
and exposes only reset/step/label observations; transition dynamics stay
hidden from learners.  A joint state is the tuple of its slot states.  All
bundled environments are deterministic given the reset seed, so
stochasticity enters only through exploration.  A run keeps what it has
observed of one in a `StateTable`, keyed on small integer ids of the joint
states it has seen: the world's `table` while a run trains on it.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from dataclasses import dataclass, field


class EpisodeExhaustedError(RuntimeError):
    pass


class InvalidActionError(ValueError):
    pass


class ArityMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class JointAction:
    per_trace: tuple


@dataclass
class EpisodeRecord:
    """Everything one episode produced: states, actions, traces, robustness."""

    states: list = field(default_factory=list)   # visited joint states, length steps+1
    actions: list = field(default_factory=list)  # joint action tuples, length steps
    traces: list = field(default_factory=list)   # one Trace per slot
    rhos: list = field(default_factory=list)     # robustness after each step
    terminal_rho: float = 0.0

    @property
    def steps(self) -> int:
        return len(self.actions)


class Environment:
    """Base class; a concrete world implements the hidden dynamics as
    `transition`, and the base `step` checks the joint action before it.

    A joint state is the tuple of its slot states, one per trace slot, and
    holds no step count: `transition`, `label_of` and `trace_prefix` are
    functions of it alone, since a run keeps one successor per joint state
    and joint action, and one label column or robustness value per joint
    state (see `StateTable`).  A stochastic world would draw the effective
    action before the lookup, so that `transition` stays a pure function.

    `kind` is the world's ``[environment] kind`` name and `file_key` the one
    other key it reads besides ``beta``: a map or domino file passed to the
    constructor, or None.  `actions` is the per-slot action alphabet (shared
    by all slots), `arity` the number of trace slots, and `beta` the episode
    length bound, which the episode loop keeps (`step` counts no steps).
    `metric_columns` are the training CSV columns between ``episode`` and
    ``rho``.  A world with a hand-crafted comparison reward (``reward_mode =
    baseline``) defines `baseline_reward(t, state)`, the reward of step t
    (counted from 0) that led to `state`.

    `step` validates a joint-action tuple the first time it sees it and
    remembers it in `valid_actions` (see `check_action`); an invalid tuple is
    never remembered, so it raises on every step that passes it.

    `table` is the `StateTable` that the `train` calls of one run share, so
    that a seed looks up what an earlier seed observed; None between runs.
    """

    kind = "abstract"
    file_key: str | None = None
    actions: tuple = ()
    arity: int = 0
    beta: int = 0
    metric_columns: tuple = ()
    table: StateTable | None = None

    def __init__(self):
        self.valid_actions: set = set()

    def reset(self, seed: int) -> tuple:
        """The start joint state."""
        raise NotImplementedError

    def step(self, state: tuple, action: JointAction) -> tuple:
        """The joint state one step after `state` under `action`."""
        joint = action.per_trace
        if joint not in self.valid_actions:
            self.check_action(action)
        return self.transition(state, joint)

    def transition(self, state: tuple, joint: tuple) -> tuple:
        """The dynamics: the joint state after the joint action `joint` (one
        action name per slot) from `state`.  A pure function of its
        arguments; `joint` is already validated."""
        raise NotImplementedError

    def label_of(self, state: tuple) -> tuple:
        """One `Label` per slot, a function of the joint state alone."""
        raise NotImplementedError

    # Joint states double as tabular learning keys.
    def encode(self, state: tuple) -> tuple:
        return state

    def trace_prefix(self, state: tuple):
        """Per-slot traces of one length for the episode so far, or None when
        the trace is simply the per-step label sequence.  A function of the
        joint state alone, so a run scores each joint state of such a world
        once (see `StateTable`).  A step may rewrite earlier positions: the
        episode loop finds the first one that changed by comparing columns."""
        return None

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

    A state's id is its index in `states`, which holds the joint state, and in
    `rows`, which holds what `make_row(state)` made of it (the Q row of the
    `train` call that holds the table, see `bind`).  A world that labels its
    states (`labelled`) has the id's label column (`label_of`) in `columns`.
    Runs under a flat plan (see `Plan.flat`) score its steps by monitor
    state: `monitors` gives each monitor state met a small id (the first of
    an episode is keyed on its start state's id), and `memo[m]` maps the id
    n of a state stepped into from monitor state m to the id of the monitor
    state reached and the step's robustness.  A world with `trace_prefix`
    has the robustness of the id's prefix in `scores`, None until a run
    first scores it, since that prefix is a function of the joint state.
    Scores and the memo hold for one formula and robustness config: `train`
    keeps them, and the skolemized body, in `formula`, `config` and `sk`.
    `actions` are the world's joint actions, all combinations of `actions`
    over the slots, and `index` maps a joint-action tuple to its position.
    `successors[i * width + a]` is the id one step on from state i under
    joint action a, or -1 until a run has taken that step, always through
    `Environment.step`, so the action check stays there.  Since `transition`,
    `label_of` and `trace_prefix` read only the joint state, the table is a
    pure cache: the seeds of a run share it, `start` begins it afresh once
    it holds more than `limit` ids or monitor states, and nothing a run
    computes changes.  It holds its world weakly, since the world holds it.
    """

    limit = 2048

    def __init__(self, env: Environment):
        self.env = weakref.proxy(env)
        self.make_row = None
        self.formula = self.config = self.sk = None
        self.actions = _joint_actions(tuple(env.actions), env.arity)
        self.index = {a.per_trace: k for k, a in enumerate(self.actions)}
        self.width = len(self.actions)
        self.unknown = [-1] * self.width   # the successors of a new id
        self.ids: dict = {}
        self.states: list = []
        self.columns: list = []
        self.scores: list = []
        self.monitors: dict = {}
        self.memo: list = []
        self.rows: list = []
        self.successors: list = []

    def clear(self):
        """Forget every id; the lists stay the same objects."""
        for part in (self.ids, self.states, self.columns, self.scores, self.monitors, self.memo,
                     self.rows, self.successors):
            part.clear()

    def bind(self, make_row=None):
        """Give every id, and each new id, the row `make_row` makes of its
        state; with None, release the rows."""
        self.make_row = make_row
        self.rows[:] = map(make_row, self.states) if make_row else ()

    def start(self, state: tuple) -> int:
        """The id of an episode's start state, after beginning the table
        afresh when it is full.  Beginning it gives `state` id 0 and finds
        out whether the world labels its states: `opening` is `state`'s
        `trace_prefix`, None for a world that labels them."""
        if not self.states or max(len(self.states), len(self.monitors)) > self.limit:
            self.clear()
            self.opening = self.env.trace_prefix(state)
            self.labelled = self.opening is None
        return self.intern(state)

    def intern(self, state: tuple) -> int:
        """The id of `state`, given on its first visit."""
        i = self.ids.get(state)
        if i is None:
            i = self.ids[state] = len(self.states)
            self.states.append(state)
            if self.labelled:
                self.columns.append(tuple(self.env.label_of(state)))
            else:
                self.scores.append(None)
            if self.make_row:
                self.rows.append(self.make_row(state))
            self.successors += self.unknown
        return i

    def monitor(self, key) -> int:
        """The id of the monitor state `key`, given on its first visit."""
        m = self.monitors.get(key)
        if m is None:
            m = self.monitors[key] = len(self.memo)
            self.memo.append({})
        return m
