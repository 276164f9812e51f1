"""Joint Q-learning driven by specification robustness.

One action-value function is learned over the joint state/action space of all
trace slots; the per-step reward is the robustness of the episode prefix
evaluated against the skolemized body, so no hand-written reward function is
involved.  A run interns each joint state it meets in a `StateTable`: one
integer id per joint state, under which the table keeps its successors, its
label column and its Q row, so a step the run has taken before is a list
lookup, and each joint state is encoded and hashed once per id rather than
once per step.  The episode loop deals in these ids and in joint-action
indices into the table's `actions`, and it alone keeps the episode bound.
The episode's tracker keeps the zipped prefix of a world that appends a label
per step, and the episode loop scores it with a `PrefixEvaluator`, which
computes each appended column once and folds it into each subformula.  The
table's `memo` is a reward machine: per context met, it keeps the next
context and the reward of each step taken from it, keyed on the table's
`inputs` entry for the state stepped into, so a step seen before is a lookup
and only a new one updates the evaluator.  In a world with `trace_prefix` the
prefix is a function of the joint state, so there is one context, a step's
key is its id and each id is scored once: only a step into an unscored id
zips that id's prefix and rescores it from position 0.  A world that appends
a label per step is scored from the appended position.  When the body's plan
is flat (its G, F, X, U, G F and F G read atoms and their !, &, | and -> alone),
it is a finite-state monitor whose input is the plan's root values at the
appended column: those values are a step's key, and the monitor's state is
the context, the first of an episode keyed on the start's root values.  The
memo then names no id, so it outlives the table's ids, and a new step updates
the evaluator over every column appended since its last update.  A nested
plan (a temporal operator under another, other than G F and F G) updates it
at every step.  The terminal reward is the last step's.  Each `train` call
checks its final greedy episode's terminal reward against one from-scratch
evaluation of the world's traces.  Per-slot greedy policies and witness
tables for existential quantifiers are projected out of the trained function.

A world holds one table, for one skolemized formula and robustness config
(`StateTable.of`), and every rollout on it scores into that table: the
episodes of every seed of a run, their final greedy episodes,
`greedy_rollout` and the set-up check.  Only the Q rows are each `train`
call's own.

Exploration in episode e of seed s draws from numpy's `default_rng((s, e))`
stream, which `hyperq.rng.Stream` reproduces draw for draw without numpy.  A
`train` call hashes its seed's words once (`rng.streams`) and each episode
then hashes only its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .env import (ArityMismatchError, Environment, EpisodeExhaustedError, EpisodeRecord,
                  JointAction, StateTable)
from .formula import Formula, format_number
from .rng import streams
from .robustness import (LengthMismatchError, PrefixEvaluator, RobustnessConfig, Trace, _unchanged,
                         eval_hyper)
from .skolem import SkolemizedFormula, WitnessTable, skolemize, trace_text, witness_key
from .worlds import KindMismatchError


REWARD_MODES = ("prefix", "baseline")


class RewardMismatchError(RuntimeError):
    """An episode's terminal reward differs from a from-scratch evaluation of
    the world's traces, as when a world's `trace_prefix` is not a function
    of the joint state and a score the run kept for a state goes stale."""

    def __init__(self, tracked: float, from_scratch: float):
        super().__init__(f"terminal reward {tracked!r} differs from the from-scratch "
                         f"robustness {from_scratch!r} of the final episode")
        self.tracked = tracked
        self.from_scratch = from_scratch


@dataclass
class Hyperparams:
    gamma: float = 0.99
    learning_rate: float = 0.1
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_episodes: int | None = None  # default: first 80% of the episodes
    beta: int = 0                              # 0: use the environment's bound
    xi: int = 1000
    reward_mode: str = "prefix"
    rho_max: float = 100.0

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must lie in (0, 1]")
        if not 0.0 <= self.epsilon_end <= self.epsilon_start <= 1.0:
            raise ValueError("need 0 <= epsilon_end <= epsilon_start <= 1")
        if self.xi < 1 or self.beta < 0:
            raise ValueError("xi must be >= 1 and beta >= 0")
        if self.epsilon_decay_episodes is not None and self.epsilon_decay_episodes < 1:
            raise ValueError("epsilon_decay_episodes must be >= 1")
        if self.reward_mode not in REWARD_MODES:
            raise ValueError(f"unknown reward mode {self.reward_mode!r}")
        self.config()  # rejects a rho_max that is not positive and finite

    def epsilon(self, episode: int) -> float:
        horizon = self.epsilon_decay_episodes
        if horizon is None:
            horizon = max(1, int(0.8 * self.xi))
        frac = min(1.0, episode / horizon)
        return self.epsilon_start + (self.epsilon_end - self.epsilon_start) * frac

    def config(self) -> RobustnessConfig:
        return RobustnessConfig(self.rho_max)


class QRow(list):
    """One key's action values, a float per joint action, and `tried`: a
    bitmask with bit i set once action i has been updated."""

    __slots__ = ("tried",)


def greedy(row: QRow) -> int:
    """Greedy action index of a row, lowest index winning ties, for the
    final policy's rollout.

    Actions that have received at least one update are ranked ahead of the
    optimistic default, so one never-explored action cannot outrank a
    learned path.
    """
    if row.tried:
        return max((i for i in range(len(row)) if row.tried >> i & 1), key=row.__getitem__)
    return row.index(max(row))


class TabularQ:
    """Action values keyed on encoded joint states, every entry starting at 0.0.

    `table` maps a key to its `QRow`, made when `row` first asks for it.  A
    row holds plain floats, so greedy lookups are `max` and `index` over it;
    its `tried` bitmask lets extraction tell learned values from the default.
    """

    def __init__(self, n_actions: int):
        self.n_actions = n_actions
        self.table: dict = {}
        self.zeros = (0.0,) * n_actions   # the values of a key never updated

    def row(self, key) -> QRow:
        row = self.table.get(key)
        if row is None:
            row = self.table[key] = QRow(self.zeros)
            row.tried = 0
        return row


def _canon(value):
    """A slot state with every frozenset replaced by a tagged, sorted tuple,
    so that its key text does not depend on the hash seed."""
    if isinstance(value, frozenset):
        return ("frozenset", tuple(sorted(_canon(v) for v in value)))
    if isinstance(value, tuple):
        return tuple(_canon(v) for v in value)
    return value


def state_key(slot_state) -> str:
    """Canonical text key for one slot's observed state."""
    return repr(_canon(slot_state))


@dataclass
class PolicySet:
    """Per-quantifier greedy policies: observed slot state -> action name."""

    policies: dict = field(default_factory=dict)  # quantifier index -> {state key: action}

    def action_for(self, index: int, slot_state, default: str) -> str:
        return self.policies.get(index, {}).get(state_key(slot_state), default)


@dataclass
class TrainMetrics:
    columns: list
    rows: list = field(default_factory=list)

    def write_csv(self, fh):
        fh.write(",".join(self.columns) + "\n")
        for row in self.rows:
            fh.write(",".join(format_number(row[c]) for c in self.columns) + "\n")


@dataclass
class TrainResult:
    q: TabularQ
    policies: PolicySet
    witnesses: list
    metrics: TrainMetrics
    final_record: EpisodeRecord


def immediate_reward(traces, sk: SkolemizedFormula, cfg: RobustnessConfig) -> float:
    """Robustness of the zipped episode prefix; the minimum for empty prefixes."""
    traces = list(traces)
    if any(len(t) == 0 for t in traces):
        return cfg.rho_min
    return eval_hyper(traces, sk, cfg)


def q_update(row: QRow, action_idx: int, reward: float, next_row, h: Hyperparams,
             done: bool = False):
    """One Bellman backup of `row` toward reward + gamma * the largest value
    of `next_row`, the next state's action values.  Returns that largest
    value as it was before the backup, or None when `done` (no bootstrap)."""
    top = None if done else max(next_row)
    bootstrap = 0.0 if done else h.gamma * top
    old = row[action_idx]
    row[action_idx] = old + h.learning_rate * (reward + bootstrap - old)
    row.tried |= 1 << action_idx
    return top


def episode_bound(env: Environment, sk: SkolemizedFormula, h: Hyperparams) -> int:
    """Steps per episode: the hyperparameter bound, or the environment's when
    that is 0.  Raises a ValueError when formula, hyperparameters and
    environment do not fit together, before any episode runs."""
    if sk.arity != env.arity:
        raise ArityMismatchError(
            f"formula quantifies {sk.arity} traces, environment has {env.arity} slots")
    if h.beta > env.beta:
        raise ValueError(f"hyperparameter beta {h.beta} exceeds the environment's bound {env.beta}")
    if h.reward_mode == "baseline" and not hasattr(env, "baseline_reward"):
        raise KindMismatchError(f"a {env.kind} environment has no baseline reward")
    return h.beta or env.beta


def _zip(traces) -> list:
    """The columns of equally long traces, one tuple of labels per position."""
    lengths = {len(t) for t in traces}
    if len(lengths) > 1:
        raise LengthMismatchError(f"traces have differing lengths {sorted(lengths)}")
    return list(zip(*traces))


class _EpisodeTracker:
    """The zipped columns of one episode's prefix, one tuple of labels per
    position.

    A world without `trace_prefix` starts from `column`, the start state's
    label column, and the episode appends one column per step to `columns`.
    A world with it (the domino game) keeps no columns: its prefix is a
    function of the state, which `rollout` zips afresh for each state it
    scores.
    """

    def __init__(self, env: Environment, column: tuple | None = None):
        self.env = env
        self.labelled = column is not None
        self.columns = [column] if self.labelled else []

    def traces(self, state: tuple) -> list:
        """The episode's traces once it has reached `state`, its last state:
        the columns appended up to it, or the world's `trace_prefix` of it,
        which the tracker need not have moved on to."""
        if self.labelled:
            return [Trace(labels) for labels in zip(*self.columns)]
        return list(self.env.trace_prefix(state))


def rollout(env: Environment, sk: SkolemizedFormula, cfg: RobustnessConfig, choose,
            seed: int, beta: int, on_step=None) -> EpisodeRecord:
    """Run one episode of `beta` steps, scoring every prefix by its robustness.

    The episode's joint states are interned in the world's table for `sk`
    and `cfg` (`StateTable.of`), which every episode on the world shares,
    and a step the table has seen is looked up, not taken again.  `choose(t,
    i)` returns the index in `table.actions` of the joint action to take at
    step t (counted from 0) from the joint state with id i;
    `on_step(t, i, a, n, rho)` runs after it, with a that index and n the id
    of the state it led to.  An episode longer than the world's bound `beta`
    raises EpisodeExhaustedError before it starts.  A step is scored in one
    of two ways.  In a world with `trace_prefix`, or under a `flat` plan, a
    step into id n from context k (see `StateTable`) takes the next context
    and reward that `table.memo[k]` keeps under `table.inputs[n]`: n itself,
    or the plan's root values at n's column in a labelled world.  Only a
    step it lacks updates the episode's `PrefixEvaluator`, and keeps what
    comes out (`StateTable.keep`).  A `trace_prefix` world's update rescores
    the zipped `trace_prefix` of n from position 0; a labelled world's
    appends every column since the last update.  Under a nested plan each
    step updates the evaluator over the appended column.  The evaluator is
    made at its first update, so an episode whose every step is looked up
    makes none.  The terminal robustness is the last step's, which scores
    the whole episode; an episode without steps scores its traces.
    """
    if beta > env.beta:
        raise EpisodeExhaustedError(f"an episode of {beta} steps exceeds the world's bound "
                                    f"{env.beta}")
    table = StateTable.of(env, sk, cfg)
    record = EpisodeRecord()
    start = env.reset(seed)
    plan = sk.plan
    i = table.start(start)
    labelled = table.labelled
    lookup = not labelled or plan.flat
    # made at its first update: a step the memo lacks, every step of a
    # nested plan, or the score of an episode without steps
    evaluator = None if lookup else PrefixEvaluator(plan, sk.arity, cfg)
    tracker = _EpisodeTracker(env, table.columns[i] if labelled else None)
    prefix = tracker.columns
    states, columns, inputs, memo, successors, joint_actions, width = (
        table.states, table.columns, table.inputs, table.memo, table.successors, table.actions,
        table.width)
    if lookup:   # a flat plan's first context is keyed on the start's root values
        key = inputs[i] if labelled else None
        memo.setdefault(key, {})
    visited, actions, rhos = record.states, record.actions, record.rhos
    visited.append(start)
    for t in range(beta):
        a = choose(t, i)
        if (n := successors[i * width + a]) < 0:
            n = successors[i * width + a] = table.intern(env.step(states[i], joint_actions[a]))
        if labelled:
            prefix.append(columns[n])
        if lookup:
            if (hit := memo[key].get(inputs[n])) is None:
                if evaluator is None:
                    evaluator = PrefixEvaluator(plan, sk.arity, cfg)
                # over every column since the last update, or rescored from position 0
                rho = (evaluator.update(prefix, len(prefix) - 1) if labelled else
                       evaluator.update(_zip(env.trace_prefix(states[n])), 0))
                hit = table.keep(key, inputs[n], evaluator.monitor() if labelled else key, rho)
            key, rho = hit
        else:
            rho = evaluator.update(prefix, len(prefix) - 1)
        if on_step is not None:
            on_step(t, i, a, n, rho)
        visited.append(states[n])
        actions.append(joint_actions[a].per_trace)
        rhos.append(rho)
        i = n
    record.traces = tracker.traces(states[i])
    if not rhos and evaluator is None:
        evaluator = PrefixEvaluator(plan, sk.arity, cfg)
    record.terminal_rho = rhos[-1] if rhos else evaluator.update(_zip(record.traces))
    return record


def train(env: Environment, f: Formula, h: Hyperparams, seed: int) -> TrainResult:
    """Run xi episodes of epsilon-greedy learning and extract the artifacts.

    Deterministic: a fixed (environment, formula, hyperparameters, seed)
    reproduces the metrics exactly.  Calls on one world share its `table`
    (`StateTable.of`) while the skolemized formula and `rho_max` stay equal;
    the table is a pure cache, so what a call computes does not depend on
    the calls before it.  A call that `episode_bound` rejects leaves the
    world's table as it was, as does a negative seed.  The seed's words are
    hashed once per call (`rng.streams`).  Raises RewardMismatchError when the
    final greedy episode's terminal reward differs from a from-scratch
    evaluation, the sign of a zero included.
    """
    sk = skolemize(f)
    beta = episode_bound(env, sk, h)
    seeded = streams(seed)
    table = StateTable.of(env, sk, h.config())
    sk, cfg = table.sk, table.config   # so that each rollout finds the table by identity
    rows, n_actions = table.rows, table.width
    q = TabularQ(n_actions)
    # each joint state is encoded once per call, when it first needs its row
    table.bind(lambda state: q.row(env.encode(state)))
    baseline = h.reward_mode == "baseline"

    # explore and learn see the ep_rng and eps of the episode being run.
    # `top` is the largest value of the row that the next explore reads, as
    # learn's bootstrap took it, or None: at an episode's start, and after a
    # step into a state whose row is the one the backup just changed (the
    # state left, or another that `encode` maps to the same key)
    top = None

    def explore(t, i):
        if ep_rng.random() < eps:
            return ep_rng.integers(n_actions)
        row = rows[i]
        return row.index(max(row) if top is None else top)

    def learn(t, i, a, n, rho):
        nonlocal top
        if baseline:
            rho = env.baseline_reward(t, table.states[n])
        row, following = rows[i], rows[n]
        top = q_update(row, a, rho, following, h, done=t + 1 >= beta)
        if row is following:
            top = None

    metrics = TrainMetrics(["episode", *env.metric_columns, "rho"])
    previous: dict = {}
    for episode in range(h.xi):
        # per-episode stream: episode e explores identically whatever xi is
        ep_rng = seeded(episode)
        eps = h.epsilon(episode)
        record = rollout(env, sk, cfg, explore, seed, beta, learn)
        previous = {"episode": episode, **env.episode_metrics(record, previous),
                    "rho": record.terminal_rho}
        metrics.rows.append(previous)

    final = rollout(env, sk, cfg, lambda t, i: greedy(rows[i]), seed, beta)
    table.bind()   # so a world kept after the run pins no Q-function
    # the one from-scratch evaluation: of the world's own traces (a
    # `trace_prefix` world's of the last state, not of its step deltas)
    expected = immediate_reward(final.traces, sk, cfg)
    if not _unchanged(final.terminal_rho, expected):
        raise RewardMismatchError(final.terminal_rho, expected)
    policies, witnesses = extract_policies(env, sk, final)
    return TrainResult(q, policies, witnesses, metrics, final)


def extract_policies(env: Environment, sk: SkolemizedFormula, record: EpisodeRecord):
    """Project per-slot policies and witness tables out of a greedy episode.

    The policy of slot i maps the slot's observed state to the i-th component
    of the joint action taken there.  Witness tables record, for every step t,
    the texts of the dependency traces' prefixes mapped to the text of the
    existential trace prefix and the actions that produced it.
    """
    policies = PolicySet({i + 1: {} for i in range(env.arity)})
    witnesses = [WitnessTable(d.exist_index, d.deps) for d in sk.decls]
    for t, state in enumerate(record.states):
        traces = env.trace_prefix(state)
        if traces is None:
            traces = [trace.prefix(t + 1) for trace in record.traces]
        for table in witnesses:
            e = table.exist_index - 1
            key = witness_key(tuple(traces[j - 1] for j in table.deps))
            table.entries[key] = (trace_text(traces[e]), tuple(a[e] for a in record.actions[:t]))
        if t < record.steps:
            for i, slot in enumerate(state):
                policies.policies[i + 1][state_key(slot)] = record.actions[t][i]
    return policies, witnesses


def greedy_rollout(policies: PolicySet, env: Environment, sk: SkolemizedFormula,
                   cfg: RobustnessConfig, seed: int, beta: int) -> EpisodeRecord:
    """Deterministic episode of `beta` steps (see `episode_bound`) under the
    extracted per-slot policies.

    States never seen during extraction fall back to the first action.  The
    joint action reads the state alone, so it is chosen once per state id;
    one the world lacks raises InvalidActionError at the first step that
    picks it.  The episode scores into the world's table, as every `rollout` does.
    """
    table = StateTable.of(env, sk, cfg)
    chosen: dict = {}   # state id -> joint action index

    def choose(t, i):
        a = chosen.get(i)
        if a is None:
            joint = tuple(policies.action_for(k + 1, slot, env.actions[0])
                          for k, slot in enumerate(table.states[i]))
            a = chosen[i] = table.index.get(joint)
            if a is None:
                env.check_action(JointAction(joint))   # raises: `index` has every valid tuple
        return a

    return rollout(env, sk, cfg, choose, seed, beta)
