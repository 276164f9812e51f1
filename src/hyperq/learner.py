"""Joint Q-learning driven by specification robustness.

One action-value function is learned over the joint state/action space of all
trace slots; the per-step reward is the robustness of the episode prefix
evaluated against the skolemized body, so no hand-written reward function is
involved.  A run interns each joint state it meets in a `StateTable`: one
integer id per joint state, under which the table keeps its successors, its
label column and its Q row, so a step the run has taken before is a list
lookup, and each joint state is encoded and hashed once per id rather than
once per step.  The episode loop deals in these ids and in joint-action
indices into the table's `actions`, and it alone keeps the episode bound.  The
episode's tracker keeps the zipped prefix, and the episode loop scores it with
a `PrefixEvaluator`, which recomputes each subformula only from the lowest
position that changed since it last scored.  A world that appends a label per
step is scored from the appended position.  When the body's plan is flat (its
G, F and X read atoms and their !, &, | and -> alone), the prefix's values at
position 0 are a finite-state monitor, so the table keeps, per monitor state
met, the next monitor state and reward of a step from it into each id: a
step seen before is a lookup, and only a new one updates the evaluator,
over every column appended since its last update.  A nested plan (U, or a
temporal operator under another) updates it at every step.  In a world with
`trace_prefix` the prefix is a function of the joint state, so the table keeps
one robustness value per id: a step into a scored id takes it, and only a step
into an unscored id moves the tracker on to that id's prefix, where it finds
the first column that changed.  The terminal reward is the last step's.  Each
`train` call checks its final greedy episode's terminal reward against one
from-scratch evaluation of the world's traces.  Per-slot greedy policies and
witness tables for existential quantifiers are projected out of the trained
function.

The seeds of a run share its table, which the world holds while the run
lasts: only the Q rows are each seed's own.

Exploration in episode e of seed s draws from numpy's `default_rng((s, e))`
stream, which `hyperq.rng.Stream` reproduces draw for draw without numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .env import (ArityMismatchError, Environment, EpisodeExhaustedError, EpisodeRecord,
                  JointAction, StateTable)
from .formula import Formula
from .rng import Stream
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


def greedy(row: QRow, prefer_tried: bool = False) -> int:
    """Greedy action index of a row, lowest index winning ties.

    With prefer_tried, actions that have received at least one update are
    ranked ahead of the optimistic default; rollouts of the final policy
    use this so one never-explored action cannot outrank a learned path.
    """
    if prefer_tried and row.tried:
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
            fh.write(",".join(_format_cell(row[c]) for c in self.columns) + "\n")


def _format_cell(v) -> str:
    if isinstance(v, float):
        return str(int(v)) if v.is_integer() else repr(v)
    return str(v)


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
    of `next_row`, the next state's action values."""
    bootstrap = 0.0 if done else h.gamma * max(next_row)
    old = row[action_idx]
    row[action_idx] = old + h.learning_rate * (reward + bootstrap - old)
    row.tried |= 1 << action_idx


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
    A world with it (the domino game) starts from `traces`, the start
    state's `trace_prefix`, and may rewrite earlier positions: `advance`
    moves the tracker on to any later state of the episode and returns the
    first position whose column changed, from which `rollout` updates its
    evaluator.
    """

    def __init__(self, env: Environment, state: tuple, column: tuple | None = None,
                 traces=None):
        self.env = env
        if column is not None:
            self.columns = [column]
        else:
            self.columns = _zip(env.trace_prefix(state) if traces is None else traces)

    def advance(self, state: tuple) -> int:
        """Move on to `state`, a later state of the episode, in a world with
        `trace_prefix`; the first position whose column changed."""
        columns, new = self.columns, _zip(self.env.trace_prefix(state))
        lo = next((k for k, (old, column) in enumerate(zip(columns, new)) if old != column),
                  min(len(columns), len(new)))
        columns[lo:] = new[lo:]
        return lo

    def traces(self) -> list:
        if not self.columns:
            return [Trace() for _ in range(self.env.arity)]
        return [Trace(labels) for labels in zip(*self.columns)]


def rollout(env: Environment, sk: SkolemizedFormula, cfg: RobustnessConfig, choose,
            seed: int, beta: int, on_step=None, table: StateTable | None = None) -> EpisodeRecord:
    """Run one episode of `beta` steps, scoring every prefix by its robustness.

    The episode's joint states are interned in `table` (a fresh one when
    None), and a step the table has seen is looked up, not taken again.
    `choose(t, i)` returns the index in `table.actions` of the joint action
    to take at step t (counted from 0) from the joint state with id i;
    `on_step(t, i, a, n, rho)` runs after it, with a that index and n the id
    of the state it led to.  An episode longer than the world's bound `beta`
    raises EpisodeExhaustedError before it starts.  Each scored step updates
    the episode's `PrefixEvaluator` once, from the lowest position that
    changed.  In a labelled world that is the appended position, unless the
    body's plan is `flat`: then a step into id n from monitor state m (the
    first keyed on the start's id) takes the next monitor state and reward
    that `table.memo[m]` keeps for n, and only a step it lacks updates the
    evaluator, over every column appended since its last update, and keeps
    what comes out.  In a world with `trace_prefix` a step into an id the
    table has scored takes that score, and only a step into an unscored one
    moves the tracker on to that state's prefix, from the first column that
    changed.  The terminal robustness is the last step's, which scores the
    whole episode; an episode without steps scores its start prefix.
    """
    if beta > env.beta:
        raise EpisodeExhaustedError(f"an episode of {beta} steps exceeds the world's bound "
                                    f"{env.beta}")
    if table is None:
        table = StateTable(env)
    record = EpisodeRecord()
    start = env.reset(seed)
    i = table.start(start)
    labelled = table.labelled
    evaluator = PrefixEvaluator(sk.plan, sk.arity, cfg)
    if labelled:
        tracker = _EpisodeTracker(env, start, column=table.columns[i])
    else:   # the table has the traces of id 0, the start state it began with
        tracker = _EpisodeTracker(env, start, traces=table.opening if i == 0 else None)
    prefix = tracker.columns
    tracked = i   # the id of the tracker's state
    states, columns, scores, memo, successors, joint_actions, width = (
        table.states, table.columns, table.scores, table.memo, table.successors, table.actions,
        table.width)
    lookup = labelled and sk.plan.flat
    if lookup:   # the start prefix's monitor state, keyed on the start's id
        mon = table.monitor(i)
    visited, actions, rhos = record.states, record.actions, record.rhos
    visited.append(start)
    for t in range(beta):
        a = choose(t, i)
        if (n := successors[i * width + a]) < 0:
            n = successors[i * width + a] = table.intern(env.step(states[i], joint_actions[a]))
        if lookup:
            prefix.append(columns[n])
            if (hit := memo[mon].get(n)) is None:   # over every column since the last update
                rho = evaluator.update(prefix, len(prefix) - 1)
                hit = memo[mon][n] = (table.monitor(evaluator.monitor()), rho)
            mon, rho = hit
        elif labelled:
            prefix.append(columns[n])
            rho = evaluator.update(prefix, len(prefix) - 1)
        elif (rho := scores[n]) is None:   # a `trace_prefix` world scores each id once
            rho = scores[n] = evaluator.update(prefix, tracker.advance(states[n]))
            tracked = n
        if on_step is not None:
            on_step(t, i, a, n, rho)
        visited.append(states[n])
        actions.append(joint_actions[a].per_trace)
        rhos.append(rho)
        i = n
    if not labelled and tracked != i:   # catch the tracker up with the last state
        tracker.advance(states[i])
    record.traces = tracker.traces()
    record.terminal_rho = rhos[-1] if rhos else evaluator.update(prefix, 0)
    return record


def train(env: Environment, f: Formula, h: Hyperparams, seed: int) -> TrainResult:
    """Run xi episodes of epsilon-greedy learning and extract the artifacts.

    Deterministic: a fixed (environment, formula, hyperparameters, seed)
    reproduces the metrics exactly.  Calls on one world share its `table`
    and the formula skolemized once, while the formula and `rho_max` stay
    the same; the table is a pure cache, so what a call computes does not
    depend on the calls before it.  Raises RewardMismatchError when the
    final greedy episode's terminal reward differs from a from-scratch
    evaluation, the sign of a zero included.
    """
    cfg = h.config()
    table = env.table
    if table is None or table.formula is not f or table.config != cfg:
        table = StateTable(env)   # none yet, or its scores and memo are another formula's
        table.formula, table.config, table.sk = f, cfg, skolemize(f)
    sk = table.sk
    beta = episode_bound(env, sk, h)
    env.table = table
    rows, n_actions = table.rows, table.width
    q = TabularQ(n_actions)
    # each joint state is encoded once per call, when it first needs its row
    table.bind(lambda state: q.row(env.encode(state)))
    baseline = h.reward_mode == "baseline"

    # explore and learn see the ep_rng and eps of the episode being run
    def explore(t, i):
        if ep_rng.random() < eps:
            return ep_rng.integers(n_actions)
        row = rows[i]
        return row.index(max(row))

    def learn(t, i, a, n, rho):
        if baseline:
            rho = env.baseline_reward(t, table.states[n])
        q_update(rows[i], a, rho, rows[n], h, done=t + 1 >= beta)

    metrics = TrainMetrics(["episode", *env.metric_columns, "rho"])
    previous: dict = {}
    for episode in range(h.xi):
        # per-episode stream: episode e explores identically whatever xi is
        ep_rng = Stream((seed, episode))
        eps = h.epsilon(episode)
        record = rollout(env, sk, cfg, explore, seed, beta, learn, table)
        previous = {"episode": episode, **env.episode_metrics(record, previous),
                    "rho": record.terminal_rho}
        metrics.rows.append(previous)

    final = rollout(env, sk, cfg, lambda t, i: greedy(rows[i], prefer_tried=True), seed, beta,
                    table=table)
    table.bind()   # so a world kept after the run pins no Q-function
    # the one from-scratch evaluation: of the world's own traces (a
    # `trace_prefix` world's from the last state, not from its step deltas)
    traces = env.trace_prefix(final.states[-1])
    expected = immediate_reward(final.traces if traces is None else traces, sk, cfg)
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

    States never seen during extraction fall back to the first action.  A
    policy action the world lacks raises InvalidActionError.
    """
    default = env.actions[0]
    table = StateTable(env)
    states, index = table.states, table.index

    def choose(t, i):
        joint = tuple(policies.action_for(k + 1, slot, default)
                      for k, slot in enumerate(states[i]))
        a = index.get(joint)
        if a is None:
            env.check_action(JointAction(joint))   # raises: `index` has every valid tuple
        return a

    return rollout(env, sk, cfg, choose, seed, beta, table=table)
