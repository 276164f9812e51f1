"""Joint Q-learning driven by specification robustness.

One action-value function is learned over the joint state/action space of all
trace slots; the per-step reward is the robustness of the episode prefix
evaluated against the skolemized body, so no hand-written reward function is
involved.  The episode's tracker keeps the zipped prefix and scores it with
a `PrefixEvaluator`, which recomputes each subformula only from the lowest
position that changed since the previous step; the terminal reward is one
from-scratch evaluation of the whole episode.  Per-slot greedy
policies and witness tables for existential quantifiers are projected out
of the trained function.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .env import ArityMismatchError, Environment, EpisodeRecord, JointAction, JointState
from .formula import Formula
from .robustness import LengthMismatchError, PrefixEvaluator, RobustnessConfig, Trace, eval_hyper
from .skolem import SkolemizedFormula, WitnessTable, skolemize, witness_key
from .worlds import KindMismatchError


REWARD_MODES = ("prefix", "baseline")


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


class TabularQ:
    """Action values keyed on encoded joint states, default-initialized to 0.

    Entries start as None internally so extraction can tell updated values
    from the optimistic default; lookups still see 0 for untouched entries.
    """

    def __init__(self, n_actions: int):
        self.n_actions = n_actions
        self.table: dict = {}

    def values(self, key) -> list:
        row = self.table.get(key)
        if row is None:
            return [0.0] * self.n_actions
        return [0.0 if v is None else v for v in row]

    def row(self, key) -> list:
        row = self.table.get(key)
        if row is None:
            row = [None] * self.n_actions
            self.table[key] = row
        return row

    def best(self, key, prefer_tried: bool = False) -> int:
        """Greedy action index, lowest index winning ties.

        With prefer_tried, actions that have received at least one update are
        ranked ahead of the optimistic default; rollouts of the final policy
        use this so one never-explored action cannot outrank a learned path.
        """
        row = self.table.get(key)
        if row is None:
            return 0
        best = None
        best_val = 0.0
        if prefer_tried and any(v is not None for v in row):
            for i, v in enumerate(row):
                if v is not None and (best is None or v > best_val):
                    best, best_val = i, v
            return best
        for i, v in enumerate(row):
            v = 0.0 if v is None else v
            if best is None or v > best_val:
                best, best_val = i, v
        return best


def _canon(value):
    """Literal-eval-safe form of a slot state (frozensets become tagged tuples)."""
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


def q_update(q: TabularQ, s_key, action_idx: int, reward: float, s_next_key, h: Hyperparams,
             done: bool = False):
    """One Bellman backup toward reward + gamma * max value of the next state."""
    bootstrap = 0.0 if done else h.gamma * max(q.values(s_next_key))
    row = q.row(s_key)
    old = 0.0 if row[action_idx] is None else row[action_idx]
    row[action_idx] = old + h.learning_rate * (reward + bootstrap - old)
    return q


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


class _EpisodeTracker:
    """The zipped columns of one episode's prefix, one tuple of labels per
    position, scored incrementally.

    A world without `trace_prefix` appends the column `label_of` returns at
    each step.  A world with it (the domino game) may fill in earlier
    positions later, so each new zip is compared with the previous one to
    find the lowest position that changed.  `rho` re-scores the prefix from
    that position on with `evaluator`.
    """

    def __init__(self, env: Environment, state: JointState,
                 evaluator: PrefixEvaluator | None = None):
        self.env = env
        self.evaluator = evaluator
        self.columns = []
        self.changed = 0      # lowest position changed since the last `rho`
        slots = env.trace_prefix(state)
        self.hooked = slots is not None
        if self.hooked:
            self._rezip(slots)
        else:
            self.columns.append(tuple(env.label_of(state)))

    def advance(self, state: JointState):
        if self.hooked:
            self._rezip(self.env.trace_prefix(state))
        else:
            self.changed = min(self.changed, len(self.columns))
            self.columns.append(tuple(self.env.label_of(state)))

    def _rezip(self, slots):
        self.slots = tuple(slots)
        columns = list(zip(*self.slots))
        old, lo = self.columns, 0
        common = min(len(old), len(columns))
        while lo < common and old[lo] == columns[lo]:
            lo += 1
        self.changed = min(self.changed, lo)
        self.columns = columns

    def rho(self) -> float:
        """Robustness of the prefix; the minimum while some slot is empty."""
        if self.hooked:
            lengths = {len(t) for t in self.slots}
            if 0 in lengths:
                return self.evaluator.rho_min
            if len(lengths) > 1:
                raise LengthMismatchError(f"traces have differing lengths {sorted(lengths)}")
        rho = self.evaluator.update(self.columns, self.changed)
        self.changed = len(self.columns)
        return rho

    def traces(self) -> list:
        if self.hooked:
            return list(self.slots)
        return [Trace(labels) for labels in zip(*self.columns)]


def rollout(env: Environment, sk: SkolemizedFormula, cfg: RobustnessConfig, choose,
            seed: int, beta: int, on_step=None) -> EpisodeRecord:
    """Run one episode of `beta` steps, scoring every prefix by its robustness.

    `choose(state)` returns the JointAction to take; `on_step(state, action,
    next_state, rho)` runs after each step.  The terminal robustness is that
    of the whole episode, the start prefix for an episode without steps.
    """
    record = EpisodeRecord(seed=seed)
    state = env.reset(seed)
    record.states.append(state)
    tracker = _EpisodeTracker(env, state, PrefixEvaluator(sk.plan, sk.arity, cfg))
    for _ in range(beta):
        action = choose(state)
        nxt = env.step(state, action)
        tracker.advance(nxt)
        rho = tracker.rho()
        if on_step is not None:
            on_step(state, action, nxt, rho)
        record.states.append(nxt)
        record.actions.append(action.per_trace)
        record.rhos.append(rho)
        state = nxt
    record.traces = tracker.traces()
    record.terminal_rho = immediate_reward(record.traces, sk, cfg)
    return record


def train(env: Environment, f: Formula, h: Hyperparams, seed: int) -> TrainResult:
    """Run xi episodes of epsilon-greedy learning and extract the artifacts.

    Deterministic: a fixed (environment, formula, hyperparameters, seed)
    reproduces the metrics exactly.
    """
    sk = skolemize(f)
    beta = episode_bound(env, sk, h)
    cfg = h.config()
    joint_actions = [JointAction(a) for a in itertools.product(env.actions, repeat=env.arity)]
    action_index = {a.per_trace: i for i, a in enumerate(joint_actions)}
    q = TabularQ(len(joint_actions))
    baseline = h.reward_mode == "baseline"

    # a step's learn encodes its new state, which the next step's explore
    # (or learn) asks for again: keep the last key so each state is encoded once
    last_state = last_key = None

    def encode(state):
        nonlocal last_state, last_key
        if state is not last_state:
            last_state, last_key = state, env.encode(state)
        return last_key

    # explore and learn see the ep_rng and eps of the episode being run
    def explore(state):
        if ep_rng.random() < eps:
            return joint_actions[int(ep_rng.integers(len(joint_actions)))]
        return joint_actions[q.best(encode(state))]

    def learn(state, action, nxt, rho):
        reward = env.baseline_reward(state, action, nxt) if baseline else rho
        a_idx = action_index[action.per_trace]
        q_update(q, encode(state), a_idx, reward, encode(nxt), h,
                 done=nxt.step_count >= beta)

    metrics = TrainMetrics(["episode", *env.metric_columns, "rho"])
    previous: dict = {}
    for episode in range(h.xi):
        # per-episode stream: episode e explores identically whatever xi is
        ep_rng = np.random.default_rng((seed, episode))
        eps = h.epsilon(episode)
        record = rollout(env, sk, cfg, explore, seed, beta, learn)
        previous = {"episode": episode, **env.episode_metrics(record, previous),
                    "rho": record.terminal_rho}
        metrics.rows.append(previous)

    final = rollout(env, sk, cfg,
                    lambda s: joint_actions[q.best(encode(s), prefer_tried=True)], seed, beta)
    policies, witnesses = extract_policies(env, sk, final)
    return TrainResult(q, policies, witnesses, metrics, final)


def extract_policies(env: Environment, sk: SkolemizedFormula, record: EpisodeRecord):
    """Project per-slot policies and witness tables out of a greedy episode.

    The policy of slot i maps the slot's observed state to the i-th component
    of the joint action taken there.  Witness tables record, for every step t,
    the dependency traces' prefixes mapped to the existential trace prefix and
    the actions that produced it.
    """
    policies = PolicySet({i + 1: {} for i in range(env.arity)})
    witnesses = [WitnessTable(d.exist_index, d.deps) for d in sk.decls]
    tracker = _EpisodeTracker(env, record.states[0])
    for t, state in enumerate(record.states):
        if t:
            tracker.advance(state)
        traces = tracker.traces()
        for table in witnesses:
            e = table.exist_index - 1
            key = witness_key(tuple(traces[j - 1] for j in table.deps))
            table.record(key, traces[e], tuple(a[e] for a in record.actions[:t]))
        if t < record.steps:
            for i, slot in enumerate(state.per_trace):
                policies.policies[i + 1][state_key(slot)] = record.actions[t][i]
    return policies, witnesses


def greedy_rollout(policies: PolicySet, env: Environment, sk: SkolemizedFormula,
                   cfg: RobustnessConfig, seed: int, beta: int) -> EpisodeRecord:
    """Deterministic episode of `beta` steps (see `episode_bound`) under the
    extracted per-slot policies.

    States never seen during extraction fall back to the first action.
    """
    default = env.actions[0]

    def choose(state):
        return JointAction(tuple(policies.action_for(i + 1, slot, default)
                                 for i, slot in enumerate(state.per_trace)))

    return rollout(env, sk, cfg, choose, seed, beta)
