"""Black-box multi-trace environment interface.

An environment advances one opaque state per trace slot under a joint action
and exposes only reset/step/label observations; transition dynamics stay
hidden from learners.  A joint state is the tuple of its slot states.  All
bundled environments are deterministic given the reset seed, so
stochasticity enters only through exploration.  Every episode on a world
keeps what it observes in the world's `table`, a `StateTable` for one
formula and robustness config, keyed on small integer ids of the joint
states it has seen.
"""

from __future__ import annotations

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

    `table` is the world's `StateTable` (see `StateTable.of`), which every
    rollout on it shares, so that a seed looks up what the set-up check and
    the seeds before it observed; None until the first rollout, and again
    once `hyperq train` has trained every seed.
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
        episode loop rescores a state's traces from position 0."""
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


class StateTable:
    """The joint states a world has met, each under a small integer id,
    with the rewards of one skolemized formula `sk` under one robustness
    config `config`.

    `StateTable.of` chooses the table of a rollout: the world's `table`
    while it was made for an equal `sk` and `config`, or a new one it puts
    there.  So training, the final greedy episode, `greedy_rollout` and the
    set-up check all score into the world's one table.

    A state's id is its index in `states`, which holds the joint state, and in
    `rows`, which holds what `make_row(state)` made of it (the Q row of the
    `train` call that holds the table, see `bind`).  A world that labels its
    states (`labelled`) has the id's label column (`label_of`) in `columns`.
    `inputs[i]` is the key under which the memo keeps a step into id i.
    Under a flat plan (see `Plan.flat`) a labelled world's key is the
    plan's root values at the id's column, `program.roots` of it packed by
    `program.pack` when the id is interned, so that a 0.0 and a -0.0 differ;
    `program` is the flat plan's program, derived once per table, whose
    `delta` scores a step the memo lacks.
    Otherwise the key is the id and `program` is None.

    `memo` is the table's reward machine: it maps a context key to the steps
    kept from that context, {step key: (next context key, robustness)}.  A
    world with `trace_prefix` has one context, keyed None, since its prefix
    is a function of the joint state, and a step's key is the id.  Under a
    flat plan a labelled world's context is its packed monitor state (see
    `robustness._delta_lines`); the first of an episode is keyed on its
    start's root values.  Then the memo names no id: equal root values make
    equal steps, whatever state they come from.  A hit names its next
    context by key, so the memo holds no reference cycle.  `keys` maps each packed key the
    table holds to one object of that value, which ids and hits share.

    `actions` are the world's joint actions, all combinations of `actions`
    over the slots, and `index` maps a joint-action tuple to its position.
    `successors[i * width + a]` is the id one step on from state i under
    joint action a, or -1 until a rollout has taken that step, always through
    `Environment.step`, so the action check stays there.  Since `transition`,
    `label_of` and `trace_prefix` read only the joint state, the table is a
    pure cache: every rollout on the world shares it, and nothing a run
    computes changes when `start` begins it afresh.  It does so once the
    table holds more than `limit` ids, keeping a labelled world's memo,
    which names no id.  It begins the memo afresh once that holds more than
    `limit` contexts, or more steps (`kept`) than `successors` has room for
    at `limit` ids, since root values need not repeat as ids do.  It holds
    its world weakly, since the world holds it.
    """

    limit = 2048

    def __init__(self, env: Environment, sk, config):
        self.env = weakref.proxy(env)
        self.sk, self.config = sk, config
        plan = sk.plan
        self.program = plan.program(sk.arity, config) if plan.flat else None
        self.make_row = None
        self.actions = tuple(JointAction(a)
                             for a in itertools.product(env.actions, repeat=env.arity))
        self.index = {a.per_trace: k for k, a in enumerate(self.actions)}
        self.width = len(self.actions)
        self.unknown = [-1] * self.width   # the successors of a new id
        self.ids: dict = {}
        self.states: list = []
        self.columns: list = []
        self.inputs: list = []
        self.keys: dict = {}
        self.memo: dict = {}
        self.kept = 0
        self.rows: list = []
        self.successors: list = []

    @classmethod
    def of(cls, env: Environment, sk, config) -> StateTable:
        """The world's table for `sk` and `config`: `env.table` when it was
        made for the same or equal ones, else a new table put there.
        Formulas compare by `repr`, since `==` takes a constant -0.0 for a
        0.0, whose margins differ in the sign of a zero."""
        table = env.table
        if table is None or not ((table.sk is sk or repr(table.sk) == repr(sk))
                                 and (table.config is config or table.config == config)):
            table = env.table = cls(env, sk, config)
        return table

    def clear(self):
        """Forget every id; the containers stay the same objects."""
        for part in (self.ids, self.states, self.columns, self.inputs, self.rows,
                     self.successors):
            part.clear()

    def bind(self, make_row=None):
        """Give every id, and each new id, the row `make_row` makes of its
        state; with None, release the rows."""
        self.make_row = make_row
        self.rows[:] = map(make_row, self.states) if make_row else ()

    def start(self, state: tuple) -> int:
        """The id of an episode's start state.  Beginning the table afresh
        gives `state` id 0, finds out whether the world labels its states
        (whether `state` has no `trace_prefix`) and, when it does not, drops
        the memo, whose steps are keyed on ids."""
        fresh = False
        if not self.states or len(self.states) > self.limit:
            self.clear()
            self.labelled = self.env.trace_prefix(state) is None
            fresh = not self.labelled
        if fresh or len(self.memo) > self.limit or self.kept > self.limit * self.width:
            self.memo.clear()
            self.keys.clear()
            self.kept = 0
        return self.intern(state)

    def intern(self, state: tuple) -> int:
        """The id of `state`, given on its first visit."""
        i = self.ids.get(state)
        if i is None:
            i = len(self.states)
            key = i
            if self.labelled:
                column = tuple(self.env.label_of(state))
                if self.program:
                    key = self.program.pack(*self.program.roots(column))
                    key = self.keys.setdefault(key, key)
                self.columns.append(column)
            self.ids[state] = i
            self.states.append(state)
            self.inputs.append(key)
            if self.make_row:
                self.rows.append(self.make_row(state))
            self.successors += self.unknown
        return i

    def keep(self, key, step, following, rho: float) -> tuple:
        """Keep, from context `key`, the step keyed `step` into the context
        keyed `following` with robustness `rho`; the (next key, rho) kept.
        A next context other than `key` (a labelled world's monitor state)
        is named by the object `keys` holds for its value."""
        memo = self.memo
        if following is not key:
            following = self.keys.setdefault(following, following)
            if following not in memo:
                memo[following] = {}
        hit = memo[key][step] = following, rho
        self.kept += 1
        return hit
