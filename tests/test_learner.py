import ast
import dataclasses
import functools
import gc
import hashlib
import itertools
import math
import random
import types
import weakref

import pytest

import hyperq as hq
import hyperq.learner as learner
import hyperq.robustness as robustness
from hyperq.env import (ArityMismatchError, EpisodeExhaustedError, Environment, InvalidActionError,
                        JointAction, StateTable)
from hyperq.formula import children_of
from hyperq.learner import (
    Hyperparams,
    PolicySet,
    RewardMismatchError,
    _EpisodeTracker,
    TabularQ,
    episode_bound,
    greedy,
    greedy_rollout,
    immediate_reward,
    q_update,
    rollout,
    state_key,
    train,
)
from hyperq.robustness import (
    Label,
    LengthMismatchError,
    Plan,
    PrefixEvaluator,
    RobustnessConfig,
    Trace,
    _unchanged,
    eval_hyper,
    zip_traces,
)
from hyperq.skolem import SkolemizedFormula, check_consistency, skolemize
from hyperq.harness import ExperimentConfig, write_artifacts
from hyperq.worlds import (GridWorldEnv, LazyTable, PcpEnv, ResourceEnv, WildfireEnv,
                           load_domino_file, load_map_file)

from oracles import naive_eval, random_formula, random_label, signed_eval, value_iteration

CFG = RobustnessConfig()


def rescue_formula():
    return hq.load_formula(hq.bundled("formulas/rescue.hltl"))


def _values(q, key):
    """The key's action values; zeros for a key without a row."""
    return list(q.table.get(key, q.zeros))


def _greedy(q, key):
    """`greedy` of the key's row; 0 for a key without one."""
    row = q.table.get(key)
    return 0 if row is None else greedy(row)


def test_q_update_degenerate_bellman():
    h = Hyperparams(gamma=0.0, learning_rate=1.0)
    q = TabularQ(2)
    q_update(q.row("s"), 0, 7.5, _values(q, "s2"), h)
    assert _values(q, "s")[0] == 7.5


def test_q_update_matches_value_iteration_on_chain():
    # two-state chain: advancing from state 0 pays 1, everything else 0
    def transition(s, a):
        return min(1, s + 1) if a == 0 else s

    def reward(s, a):
        return 1.0 if (s == 0 and a == 0) else 0.0

    oracle = value_iteration(2, 2, transition, reward, gamma=0.9)
    h = Hyperparams(gamma=0.9, learning_rate=1.0)
    q = TabularQ(2)
    for _ in range(200):
        for s in (1, 0):
            for a in (0, 1):
                q_update(q.row(s), a, reward(s, a), _values(q, transition(s, a)), h)
    for s in (0, 1):
        for a in (0, 1):
            assert abs(_values(q, s)[a] - oracle[s][a]) < 1e-6


class _NoneQ:
    """The Q-table that flat rows replaced, kept as the oracle: entries start
    as None, and lookups read an untried entry as 0.0."""

    def __init__(self, n_actions):
        self.n_actions = n_actions
        self.table = {}

    def values(self, key):
        row = self.table.get(key)
        if row is None:
            return [0.0] * self.n_actions
        return [0.0 if v is None else v for v in row]

    def row(self, key):
        return self.table.setdefault(key, [None] * self.n_actions)

    def best(self, key, prefer_tried=False):
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

    def update(self, s_key, action_idx, reward, s_next_key, h, done=False):
        bootstrap = 0.0 if done else h.gamma * max(self.values(s_next_key))
        row = self.row(s_key)
        old = 0.0 if row[action_idx] is None else row[action_idx]
        row[action_idx] = old + h.learning_rate * (reward + bootstrap - old)


def _bits(values):
    return [(v, math.copysign(1.0, v)) for v in values]


def test_tabular_q_agrees_with_the_none_based_table():
    rng = random.Random(14)
    entries = (None, None, 0.0, -0.0, 1.0, -1.0, 0.5)   # None: untried
    for _ in range(400):
        n = rng.randint(1, 6)
        q, oracle = TabularQ(n), _NoneQ(n)
        keys = list(range(rng.randint(1, 4)))
        for key in keys[1:]:       # key 0 is never updated
            entered = [rng.choice(entries) for _ in range(n)]
            row = q.row(key)
            for i, v in enumerate(entered):
                if v is not None:
                    row[i] = v
                    row.tried |= 1 << i
            oracle.table[key] = entered
        for key in keys:
            values = _values(q, key)    # explore's argmax
            assert values.index(max(values)) == oracle.best(key)
            assert _greedy(q, key) == oracle.best(key, prefer_tried=True)
            assert _bits(_values(q, key)) == _bits(oracle.values(key))
            assert _bits([max(_values(q, key))]) == _bits([max(oracle.values(key))])
        h = Hyperparams(gamma=rng.choice((0.0, 0.5, 1.0)), learning_rate=rng.choice((0.5, 1.0)))
        for _ in range(rng.randint(1, 8)):
            args = (rng.choice(keys), rng.randrange(n), rng.choice((0.0, -0.0, 1.0, -0.5)),
                    rng.choice(keys), h, rng.random() < 0.2)
            s_key, a, reward, s_next_key, *rest = args
            q_update(q.row(s_key), a, reward, _values(q, s_next_key), *rest)
            oracle.update(*args)
        for key in keys:
            assert _bits(_values(q, key)) == _bits(oracle.values(key))
            assert _greedy(q, key) == oracle.best(key, prefer_tried=True)


def test_greedy_policy_invariant_under_reward_scaling():
    def transition(s, a):
        return {(0, 0): 1, (0, 1): 2, (1, 0): 1, (1, 1): 1, (2, 0): 2, (2, 1): 2}[(s, a)]

    def reward(s, a):
        return {(0, 0): 0.5, (0, 1): 0.2, (1, 0): 1.0, (1, 1): 0.0,
                (2, 0): -0.3, (2, 1): 0.1}[(s, a)]

    base = value_iteration(3, 2, transition, reward, gamma=0.8)
    scaled = value_iteration(3, 2, transition, lambda s, a: 7.0 * reward(s, a), gamma=0.8)
    for s in range(3):
        assert max(range(2), key=lambda a: base[s][a]) == max(range(2), key=lambda a: scaled[s][a])
        for a in range(2):
            assert abs(scaled[s][a] - 7.0 * base[s][a]) < 1e-9


def test_q_values_bounded_during_training():
    f = rescue_formula()
    h = Hyperparams(xi=60, learning_rate=1.0, gamma=0.99)
    res = train(WildfireEnv(8), f, h, seed=5)
    bound = h.rho_max / (1.0 - h.gamma) + 1e-9
    for row in res.q.table.values():
        for v in row:
            assert abs(v) <= bound


def test_immediate_reward_empty_prefix_is_minimum():
    d = load_domino_file(hq.bundled("dominoes/k3_solvable.dom"))
    env = PcpEnv(d)
    sk = skolemize(hq.load_formula(hq.bundled("formulas/pcp_ab.hltl")))
    traces = env.trace_prefix(env.reset(0))
    assert immediate_reward(list(traces), sk, CFG) == CFG.rho_min


def test_immediate_reward_start_state_negative():
    env = WildfireEnv(8)
    sk = skolemize(rescue_formula())
    labels = env.label_of(env.reset(0))
    traces = [hq.Trace((lab,)) for lab in labels]
    assert immediate_reward(traces, sk, CFG) < 0


def test_immediate_reward_on_optimal_paths_positive():
    env = WildfireEnv(8)
    sk = skolemize(rescue_formula())
    p1 = env.path_trace(list("adefcfi"))
    p2 = env.path_trace(list("adghef") + ["f"])
    assert immediate_reward([p1, p2], sk, CFG) > 0


def test_explore_reuses_the_bootstraps_max_only_while_its_row_is_unchanged(monkeypatch):
    # a step's backup takes the next row's max, which the next greedy step
    # reads again.  In a world whose states all share one Q row, as states
    # that `encode` maps to one key do, every step leads into the row its
    # backup just changed, so the max is taken anew.  Training that takes
    # every max anew learns the same values and metrics, bit for bit
    class OneRow(_LabelCycle):
        def encode(self, state):
            return ()

    rng = random.Random(11)
    columns = [(_kernel_label(rng), _kernel_label(rng)) for _ in range(5)]
    f = hq.parse_formula("forall t1. forall t2. G a@t1 | F [ v@t2 > 0 ]")
    h = Hyperparams(xi=40, epsilon_start=0.3, epsilon_end=0.0)

    def learned():
        result = train(OneRow(columns, 12), f, h, seed=2)
        return [_bits(row) for row in result.q.table.values()], result.metrics.rows

    reused, update = learned(), learner.q_update

    def anew(*args, **kwargs):
        update(*args, **kwargs)

    monkeypatch.setattr(learner, "q_update", anew)
    assert learned() == reused


def test_train_rejects_arity_mismatch():
    # a call that `episode_bound` rejects leaves the world's table as it was
    env = WildfireEnv(4)
    train(env, rescue_formula(), Hyperparams(xi=1), seed=0)
    table = env.table
    f = hq.parse_formula("forall t1. F a@t1")
    with pytest.raises(ArityMismatchError):
        train(env, f, Hyperparams(xi=1), seed=0)
    with pytest.raises(ValueError):
        train(env, hq.parse_formula("forall t1. forall t2. F a@t2"),
              Hyperparams(xi=1, beta=env.beta + 1), seed=0)
    assert env.table is table


def test_train_metrics_deterministic():
    f = rescue_formula()
    h = Hyperparams(xi=40, learning_rate=1.0)
    first = train(WildfireEnv(6), f, h, seed=11)
    second = train(WildfireEnv(6), f, h, seed=11)
    assert first.metrics.rows == second.metrics.rows
    assert first.final_record.terminal_rho == second.final_record.terminal_rho


def test_prefix_reward_final_step_equals_full_episode_robustness():
    f = rescue_formula()
    h = Hyperparams(xi=5, learning_rate=1.0)
    res = train(WildfireEnv(6), f, h, seed=3)
    rec = res.final_record
    assert rec.rhos[-1] == rec.terminal_rho
    assert rec.terminal_rho == hq.eval_hyper(rec.traces, skolemize(f), h.config())
    # beta = 0: no steps, so the start prefix is the whole episode
    for env, formula in ((WildfireEnv(6), f), (_k3_world(4), _pcp_formula())):
        sk = skolemize(formula)
        start = rollout(env, sk, CFG, None, seed=3, beta=0)
        expected = immediate_reward(start.traces, sk, CFG)
        assert start.rhos == [] and (start.terminal_rho, math.copysign(1.0, start.terminal_rho)) \
            == (expected, math.copysign(1.0, expected)), env.kind
    # the domino start holds no position
    assert start.traces == [Trace(), Trace()] and start.terminal_rho == CFG.rho_min


def _k3_world(beta):
    return PcpEnv(load_domino_file(hq.bundled("dominoes/k3_solvable.dom")), beta=beta)


def _pcp_formula():
    return hq.load_formula(hq.bundled("formulas/pcp_ab.hltl"))


@pytest.mark.parametrize("xi", [1, 30])
def test_train_evaluates_from_scratch_once(monkeypatch, xi):
    # only the final greedy episode's check evaluates a whole episode anew
    calls = []
    monkeypatch.setattr(learner, "eval_hyper",
                        lambda *args: calls.append(args) or eval_hyper(*args))
    for env, f in ((WildfireEnv(6), rescue_formula()), (_k3_world(6), _pcp_formula())):
        calls.clear()
        res = train(env, f, Hyperparams(xi=xi), seed=2)
        assert len(calls) == 1, env.kind
        assert calls[0][0] == list(env.trace_prefix(res.final_record.states[-1])
                                   or res.final_record.traces)


def test_metric_columns_per_environment():
    f = rescue_formula()
    res = train(WildfireEnv(4), f, Hyperparams(xi=3), seed=1)
    assert res.metrics.columns == ["episode", "rho"]

    d = load_domino_file(hq.bundled("dominoes/k3_solvable.dom"))
    fp = hq.load_formula(hq.bundled("formulas/pcp_ab.hltl"))
    res = train(PcpEnv(d, beta=4), fp, Hyperparams(xi=3), seed=1)
    assert res.metrics.columns == ["episode", "tot_done", "rho"]
    done = [row["tot_done"] for row in res.metrics.rows]
    assert done == sorted(done)  # cumulative


def test_greedy_rollout_untrained_takes_first_action():
    env = WildfireEnv(5)
    sk = skolemize(rescue_formula())
    rec = greedy_rollout(PolicySet({}), env, sk, CFG, seed=0,
                         beta=episode_bound(env, sk, Hyperparams()))
    assert rec.steps == 5
    assert all(a == ("stay", "stay") for a in rec.actions)
    assert len(rec.rhos) == rec.steps


def test_extracted_witnesses_consistent_with_final_rollout():
    f = rescue_formula()
    h = Hyperparams(xi=150, learning_rate=1.0)
    env = WildfireEnv(6)
    res = train(env, f, h, seed=2)
    assert check_consistency(res.final_record.traces, res.witnesses) is True


def test_policy_rollout_reproduces_final_training_rollout():
    f = rescue_formula()
    h = Hyperparams(xi=120, learning_rate=1.0)
    env = WildfireEnv(6)
    res = train(env, f, h, seed=4)
    sk = skolemize(f)
    replay = greedy_rollout(res.policies, env, sk, h.config(), seed=4,
                            beta=episode_bound(env, sk, h))
    assert replay.actions == res.final_record.actions
    assert replay.terminal_rho == res.final_record.terminal_rho


def _outputs(tmp_path, name, result):
    """The bytes of the training CSV and the artifact file written for `result`."""
    with open(tmp_path / f"run_{name}.csv", "w", encoding="utf-8", newline="\n") as fh:
        result.metrics.write_csv(fh)
    write_artifacts(tmp_path / f"artifacts_{name}.txt", result)
    return [(tmp_path / f"{stem}_{name}.{ext}").read_bytes()
            for stem, ext in (("run", "csv"), ("artifacts", "txt"))]


def test_train_encodes_each_state_once(tmp_path):
    f = hq.load_formula(hq.bundled("formulas/fairness.hltl"))
    grid = load_map_file(hq.bundled("maps/fair4.map"))
    h = Hyperparams(xi=30, gamma=0.5, learning_rate=1.0, epsilon_decay_episodes=10)
    beta = 12
    counted = ResourceEnv(grid, beta)
    calls = []
    encode = counted.encode
    counted.encode = lambda state: calls.append(state) or encode(state)
    results = [train(env, f, h, seed=7) for env in (counted, ResourceEnv(grid, beta))]
    # every training episode plus the final greedy one visits beta + 1 states
    assert 0 < len(calls) <= (h.xi + 1) * (beta + 1)
    assert _outputs(tmp_path, 0, results[0]) == _outputs(tmp_path, 1, results[1])


# SHA-256 of run_<seed>.csv and artifacts_<seed>.txt for seeds 1 and 2 at
# xi = 200, for the bundled configs whose outputs perfbench/reference.json
# does not pin.  A change that keeps what training computes keeps these.
# ROADMAP items 6 (monitor-keyed Q rows), 7 (the domino spec) and 8 (the
# fairness spec) will change them by design, and must say so where they
# update them.
_OUTPUT_DIGESTS = {
    "wildfire": [
        ("b72ffa904f45ef214ce1894f775644d96fcdf2f8eb4040d39ea4079cb7c5d73c",
         "03565a2daf9185fc53eac15164a124c47c50649911a1e109dd47fccce2c4d2be"),
        ("b72ffa904f45ef214ce1894f775644d96fcdf2f8eb4040d39ea4079cb7c5d73c",
         "bb31f58cd23e4f6320a5677abbae5bb49a159865163e97c0e4f318342cca2110")],
    "safe-rl-4x4-baseline": [
        ("7e2f7c0b83804d3acb0cc842b8e13f76cbb784b675ac9646c320183067ec2b3b",
         "d844ebbe7db5e8514e822d5f7863ad44c7eba7f355935cb3424c28521eea30ff"),
        ("9e466fc8778951cf83c63927c331327433ac181b962b65ef753a13bbb4366c95",
         "cba6d59baf904976b6fda83a5161882bf79ee145419d2a1fce9e85612ca6c640")],
    "pcp-k5": [
        ("d048906461ca09938cb48ea22b2fc77408df4eb5d5bf30af0892e36e515ec95b",
         "1e8d09b076a018caa4d541ffbbf66a12cdc0b7e029fbc8de82765425acd6baf1"),
        ("d048906461ca09938cb48ea22b2fc77408df4eb5d5bf30af0892e36e515ec95b",
         "3fc0ab6f9a433c903eca931c4d9cd29b37ee3123c7f5989c08653a14489d5213")],
    "pcp-k6": [
        ("d048906461ca09938cb48ea22b2fc77408df4eb5d5bf30af0892e36e515ec95b",
         "7c05db7d20fed3199df84331a1dc4c123ad342f29a4e1d3059decd4bdba593f6"),
        ("d048906461ca09938cb48ea22b2fc77408df4eb5d5bf30af0892e36e515ec95b",
         "d9fe62f65f239ae36a5cf8008fdb8382ef8f0da1ee3072cb8b9425c8c3ce4c4e")],
}


@pytest.mark.parametrize("config", sorted(_OUTPUT_DIGESTS))
def test_bundled_outputs_keep_their_digests(tmp_path, config):
    cfg = ExperimentConfig.load(hq.bundled(f"configs/{config}.ini"))
    f, _, env, _ = cfg.setup()
    cfg.hyperparams.xi = 200
    for seed, digests in zip((1, 2), _OUTPUT_DIGESTS[config]):
        outputs = _outputs(tmp_path, seed, train(env, f, cfg.hyperparams, seed))
        assert tuple(hashlib.sha256(b).hexdigest() for b in outputs) == digests, seed


class _Still(Environment):
    """A world of one joint state, which every joint action keeps."""

    kind = "still"
    actions = ("go", "wait")
    arity = 2
    beta = 3

    def reset(self, seed):
        return ("here", "here")

    def transition(self, state, joint):
        return state

    def label_of(self, state):
        return (Label(frozenset({"p"}), {}),) * self.arity


def test_rollout_checks_the_bound_before_reset():
    # an episode of the world's bound runs; one step more raises before the
    # episode starts, on a fresh table and on one that knows every step
    # (whose steps no longer reach `env.step`)
    sk = skolemize(hq.parse_formula("forall t1. forall t2. G p@t1"))
    still = _Still()
    table = StateTable.of(still, sk, CFG)
    for a in range(table.width):
        record = rollout(still, sk, CFG, lambda t, i: a, 0, still.beta)
        assert record.steps == still.beta
    assert len(table.states) == 1 and -1 not in table.successors   # every step is known
    for env in (still, _Still(), WildfireEnv(4), _k3_world(3)):
        calls = []
        env.reset = lambda seed: calls.append("reset")
        env.step = lambda state, action: calls.append("step")
        with pytest.raises(EpisodeExhaustedError):
            rollout(env, sk, CFG, lambda t, i: calls.append("choose") or 0, 0, env.beta + 1,
                    on_step=lambda *args: calls.append("on_step"))
        assert calls == [], env.kind


def test_greedy_rollout_rejects_a_policy_action_the_world_lacks():
    # the action check of a joint action no `StateTable` holds; direct
    # `env.step` calls are checked in test_worlds
    env = WildfireEnv(5)
    sk = skolemize(rescue_formula())
    start = env.reset(0)
    for slot in (1, 2):
        policies = PolicySet({slot: {state_key(start[slot - 1]): "jump"}})
        with pytest.raises(InvalidActionError, match="unknown action 'jump'"):
            greedy_rollout(policies, env, sk, CFG, seed=0, beta=env.beta)


def _choosing_at_every_step(policies, env, sk, cfg, seed, beta):
    """The episode `greedy_rollout` replays, its joint action chosen afresh
    from the policies at every step."""
    table = StateTable.of(env, sk, cfg)

    def choose(t, i):
        joint = JointAction(tuple(policies.action_for(k + 1, slot, env.actions[0])
                                  for k, slot in enumerate(table.states[i])))
        env.check_action(joint)
        return table.index[joint.per_trace]

    return rollout(env, sk, cfg, choose, seed, beta)


_BUNDLED = sorted(p.stem for p in hq.bundled("configs").glob("*.ini"))


def _trained_and_drawn(config):
    """A bundled config's world set up and trained at xi = 20, with its
    trained policies and with policies that give each slot state the
    world's table holds a random action (whose replays move on every
    bundled config)."""
    cfg = ExperimentConfig.load(hq.bundled(f"configs/{config}.ini"))
    f, sk, env, beta = cfg.setup()
    h = dataclasses.replace(cfg.hyperparams, xi=20)
    trained = train(env, f, h, cfg.seeds[0]).policies
    rng = random.Random(3)
    drawn = PolicySet({k + 1: {key: rng.choice(env.actions)
                               for key in sorted({state_key(s[k]) for s in env.table.states})}
                       for k in range(env.arity)})
    return cfg, sk, env, beta, h.config(), trained, drawn


@pytest.mark.parametrize("config", _BUNDLED)
def test_greedy_rollout_replays_as_a_choice_made_at_every_step(config):
    # greedy_rollout chooses once per state id; the reference runs on a
    # fresh world, so neither reads the other's table
    cfg, sk, env, beta, rob, trained, drawn = _trained_and_drawn(config)
    seed = cfg.seeds[0]
    for policies in (PolicySet({}), trained, drawn):
        asked = []
        counted = PolicySet(policies.policies)
        counted.action_for = lambda *args: asked.append(args) or policies.action_for(*args)
        got = greedy_rollout(counted, env, sk, rob, seed, beta)
        want = _choosing_at_every_step(policies, cfg.make_env(), sk, rob, seed, beta)
        assert (got.states, got.actions, repr(got.rhos), repr(got.terminal_rho)) == \
            (want.states, want.actions, repr(want.rhos), repr(want.terminal_rho))
        # each slot of each state the episode chooses from, once
        assert len(asked) == env.arity * len(set(got.states[:beta]))


@pytest.mark.parametrize("config", _BUNDLED)
def test_greedy_rollout_raises_at_the_first_step_that_picks_an_action_the_world_lacks(
        config, monkeypatch):
    cfg, sk, env, beta, rob, _, drawn = _trained_and_drawn(config)
    seed = cfg.seeds[0]
    replay = greedy_rollout(drawn, env, sk, rob, seed, beta)
    # slot 1's state that the replay meets last for the first time, at step t
    keys = [state_key(state[0]) for state in replay.states[:beta]]
    t = max(keys.index(key) for key in keys)
    assert t > 0
    policies = PolicySet({**drawn.policies, 1: {**drawn.policies[1], keys[t]: "jump"}})
    steps = []
    monkeypatch.setattr(learner, "rollout", functools.partial(
        rollout, on_step=lambda step, *rest: steps.append(step)))
    for world in (env, cfg.make_env()):   # a warm table and a fresh one
        steps.clear()
        with pytest.raises(InvalidActionError, match="unknown action 'jump'"):
            greedy_rollout(policies, world, sk, rob, seed, beta)
        assert steps == list(range(t))
        with pytest.raises(InvalidActionError, match="unknown action 'jump'"):
            _choosing_at_every_step(policies, world, sk, rob, seed, beta)


def _counted_steps(env) -> list:
    """The list to which each `env.step` call appends its state."""
    steps = []
    step = env.step
    env.step = lambda state, action: steps.append(state) or step(state, action)
    return steps


@pytest.mark.parametrize("config, xi, shared", [
    ("safe-rl-4x4.ini", 150, True),   # a flat plan: rewards by lookup
    ("wildfire.ini", 100, True),      # U
    ("fairness-4x4.ini", 10, False),  # the table starts afresh inside every seed
    ("pcp-k3.ini", 60, False),        # scores per id
])
def test_a_runs_seeds_share_one_table_and_change_no_output(tmp_path, config, xi, shared):
    # seeds trained one after another on one world share its table: what
    # they write is what each writes on a fresh world, and on a table that
    # does not start afresh within a seed the later seeds take fewer steps
    cfg = ExperimentConfig.load(hq.bundled(f"configs/{config}"))
    cfg.hyperparams.xi = xi
    f, _, env, _ = cfg.setup()
    h, seeds = cfg.hyperparams, (1, 2, 3)
    fresh, fresh_steps = [], 0
    for seed in seeds:
        world = cfg.make_env()
        steps = _counted_steps(world)
        fresh.append(_outputs(tmp_path, f"fresh{seed}", train(world, f, h, seed)))
        fresh_steps += len(steps)
    steps = _counted_steps(env)
    assert [_outputs(tmp_path, f"shared{seed}", train(env, f, h, seed)) for seed in seeds] == fresh
    if shared:
        assert len(steps) < fresh_steps


@pytest.mark.parametrize("config, other", [
    ("safe-rl-4x4.ini", "forall t1. forall t2. G !collision@t1 & F goal1@t1"),
    ("pcp-k3.ini", "forall t1. forall t2. F (top_a@t1 & bot_b@t2)"),
    ("wildfire.ini", "forall t1. forall t2. F i@t1 & F g@t2"),
])
def test_a_table_kept_for_one_formula_is_begun_afresh_for_another(tmp_path, config, other):
    # between two seeds, the world is trained with another formula and with
    # another rho_max; their scores and memo are not the run's, and every
    # output equals a fresh world's
    cfg = ExperimentConfig.load(hq.bundled(f"configs/{config}"))
    cfg.hyperparams.xi = 60
    f, _, env, _ = cfg.setup()
    h = cfg.hyperparams
    runs = [(f, h, 1), (hq.parse_formula(other), h, 2),
            (f, dataclasses.replace(h, rho_max=0.5), 3), (f, h, 4)]
    expected = [_outputs(tmp_path, f"fresh{seed}", train(cfg.make_env(), g, k, seed))
                for g, k, seed in runs]
    tables = []
    for (g, k, seed), outputs in zip(runs, expected):
        assert _outputs(tmp_path, f"shared{seed}", train(env, g, k, seed)) == outputs, seed
        tables.append(env.table)
    assert len({id(table) for table in tables}) == len(runs)


def test_formulas_whose_constants_differ_in_the_sign_of_a_zero_keep_tables_of_their_own():
    # 0 and -0 compare equal, but a margin of 0 against them is 0.0 or -0.0
    formulas = [hq.parse_formula(f"forall t1. forall t2. G [ |loc@t1 - loc@t2| < {c} ]")
                for c in ("0", "-0")]
    assert formulas[0] == formulas[1]
    h = Hyperparams(xi=30)

    def rhos(env, f):
        return _bits(row["rho"] for row in train(env, f, h, 1).metrics.rows)

    fresh = [rhos(WildfireEnv(4), f) for f in formulas]
    assert fresh[0] != fresh[1]
    env = WildfireEnv(4)
    assert [rhos(env, f) for f in formulas] == fresh

def test_a_world_kept_after_training_pins_nothing():
    # the world holds the run's table, the table holds the world weakly and
    # no Q row once `train` returns: without the cycle collector, dropping
    # the world frees it, and a result holds no table or world
    gc.disable()
    try:
        fair, cross = (load_map_file(hq.bundled(f"maps/{m}.map")) for m in ("fair4", "cross4"))
        for make, f in ((lambda: WildfireEnv(6), rescue_formula()),
                        (lambda: _k3_world(5), _pcp_formula()),
                        (lambda: ResourceEnv(fair, 8),
                         hq.load_formula(hq.bundled("formulas/fairness.hltl"))),
                        (lambda: GridWorldEnv(cross, 8),
                         hq.load_formula(hq.bundled("formulas/safe_rl.hltl")))):
            env = make()
            result = train(env, f, Hyperparams(xi=20), seed=1)
            table = env.table
            assert table.states and table.rows == [] and table.make_row is None
            assert not _reaches(result, (StateTable, Environment))
            world = weakref.ref(env)
            del env, table
            assert world() is None
    finally:
        gc.enable()


def _reaches(obj, kinds) -> bool:
    """Whether an instance of `kinds` is reachable from `obj` through
    containers, instances and bound methods (not through classes, modules or
    functions, which reach everything)."""
    seen, todo = set(), [obj]
    while todo:
        o = todo.pop()
        if id(o) in seen or isinstance(o, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(o))
        if isinstance(o, kinds):
            return True
        todo += gc.get_referents(o)
    return False


@pytest.mark.parametrize("config, xi", [("fairness-4x4.ini", 12), ("safe-rl-4x4.ini", 80),
                                        ("pcp-k3.ini", 40)])
def test_restarting_the_state_table_changes_no_output(tmp_path, monkeypatch, config, xi):
    # two seeds on a table begun afresh every few ids, within a seed and
    # across the boundary between the two, write what they write on one that
    # is never full
    cfg = ExperimentConfig.load(hq.bundled(f"configs/{config}"))
    f, _, env, _ = cfg.setup()
    h = cfg.hyperparams
    h.xi = xi
    sk, rob = skolemize(f), h.config()
    seeds = (2, 3)
    unbounded = [_outputs(tmp_path, f"unbounded{seed}", train(env, f, h, seed)) for seed in seeds]
    checked, scored, looked_up, outlived = [], [], [], []

    class Checked(_Recorded):
        limit = 8

        def clear(self):
            # every id's successors and column are what the world computes
            # anew, and so is every memo entry's reward, bit for bit, the
            # sign of a zero included
            for i, state in enumerate(self.states):
                if self.labelled:
                    assert self.columns[i] == tuple(env.label_of(state))
                for a, n in enumerate(self.successors[i * self.width:(i + 1) * self.width]):
                    if n >= 0:
                        assert self.states[n] == env.transition(state, self.actions[a].per_trace)
            for (key, step), (following, rho), traces in _memo_prefixes(self):
                assert _unchanged(rho, eval_hyper(traces, sk, rob)), (key, step, rho)
                if not self.labelled:
                    assert key is following is None
                    scored.append(step)
            looked_up.append(_memo_entries(self))
            checked.append(len(self.states))
            memo = dict(self.memo)
            super().clear()
            assert not self.states
            outlived.append(self.memo == memo)

    monkeypatch.setattr(learner, "StateTable", Checked)
    env = cfg.make_env()   # a world without a table, so that train makes a Checked one
    bounded = [_outputs(tmp_path, f"bounded{seed}", train(env, f, h, seed)) for seed in seeds]
    assert bounded == unbounded
    assert type(env.table) is Checked
    assert len(checked) > len(seeds) * xi // 2 and max(checked) > Checked.limit
    assert bool(scored) == (env.trace_prefix(env.reset(2)) is not None)
    # the domino world, and a labelled world under a flat plan (safe_rl,
    # fairness), kept steps in the memo; `clear` forgets ids alone
    assert (max(looked_up) > 0) == bool(scored or sk.plan.flat)
    assert all(outlived)


@pytest.mark.parametrize("config", ["pcp-k3.ini", "safe-rl-4x4.ini"])
def test_restarting_a_world_cache_changes_no_output(tmp_path, monkeypatch, config):
    # the domino world's words and the grid's shared cells are pure caches
    # bounded by the state table's limit: starting them afresh at almost
    # every episode keeps every output byte
    cfg = ExperimentConfig.load(hq.bundled(f"configs/{config}"))
    h = cfg.hyperparams
    h.xi = 60
    f, _, env, _ = cfg.setup()
    default = _outputs(tmp_path, "default", train(env, f, h, seed=2))
    cleared = []
    clear = LazyTable.clear
    monkeypatch.setattr(LazyTable, "clear", lambda self: cleared.append(len(self)) or clear(self))
    monkeypatch.setattr(StateTable, "limit", 6)
    f, _, env, _ = cfg.setup()
    assert _outputs(tmp_path, "bounded", train(env, f, h, seed=2)) == default
    assert len(cleared) > h.xi // 2 and min(cleared) > StateTable.limit


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        Hyperparams(gamma=1.5)
    with pytest.raises(ValueError):
        Hyperparams(epsilon_start=0.2, epsilon_end=0.5)
    for start, end in ((-1, -3), (1.0, -0.5), (0.5, -1e-9)):
        with pytest.raises(ValueError):
            Hyperparams(epsilon_start=start, epsilon_end=end)
    with pytest.raises(ValueError):
        Hyperparams(reward_mode="bogus")
    with pytest.raises(ValueError):
        Hyperparams(xi=0)
    for decay in (0, -5):
        with pytest.raises(ValueError):
            Hyperparams(epsilon_decay_episodes=decay)


# ---------------------------------------------------------------------------
# Per-step rewards of rollout against the naive oracle

class _LabelScript(Environment):
    """Append-only world: after t steps the prefix is columns[0..t].  Each
    slot state is the step count, so that `label_of` and `trace_prefix` read
    the slot states alone."""

    kind = "label-script"
    actions = ("go",)

    def __init__(self, columns):
        super().__init__()
        self.columns = columns
        self.arity = len(columns[0])
        self.beta = len(columns) - 1

    def reset(self, seed):
        return (0,) * self.arity

    def transition(self, state, joint):
        return tuple(t + 1 for t in state)

    def label_of(self, state):
        return self.columns[state[0]]

    def prefix(self, t):
        return [Trace(labels) for labels in zip(*self.columns[:t + 1])]


class _PrefixScript(_LabelScript):
    """A `trace_prefix` world: after t steps the zipped prefix is
    prefixes[t], a list of columns of `arity` labels each; a script may
    give a column of other arity, which `prefix` unzips as it is."""

    kind = "prefix-script"

    def __init__(self, prefixes, arity):
        Environment.__init__(self)
        self.prefixes = prefixes
        self.arity = arity
        self.beta = len(prefixes) - 1

    def trace_prefix(self, state):
        return tuple(self.prefix(state[0]))

    def prefix(self, t):
        columns = self.prefixes[t]
        width = max(map(len, columns), default=self.arity)
        return [Trace(tuple(column[i] for column in columns if i < len(column)))
                for i in range(width)]


def _rewrite_script(rng, arity, steps, make_label=lambda rng: random_label(rng, True)):
    """A `_PrefixScript` of columns per step; each step rewrites every
    position from a random index on and grows by zero to three positions."""
    cols = []
    script = []
    for _ in range(steps + 1):
        keep = rng.randint(0, len(cols))
        grow = rng.choice([0, 1, 1, 2, 3])
        cols = cols[:keep] + [tuple(make_label(rng) for _ in range(arity))
                              for _ in range(len(cols) - keep + grow)]
        script.append(cols)
    return _PrefixScript(script, arity)


def _assert_rewards_match_oracle(env, sk):
    record = rollout(env, sk, CFG, lambda t, i: 0, 0, env.beta)
    assert len(record.rhos) == env.beta
    for t, rho in enumerate(record.rhos, start=1):
        traces = env.prefix(t)
        if any(len(tr) == 0 for tr in traces):
            expected = CFG.rho_min
        else:
            z = zip_traces(traces)
            expected = naive_eval(z, 0, len(z), sk.body, CFG)
        assert rho == expected, (t, rho, expected)
    assert record.terminal_rho == record.rhos[-1]


def test_rollout_rewards_match_naive_oracle_append_only():
    rng = random.Random(101)
    for _ in range(150):
        sk = skolemize(random_formula(rng, max_depth=3, max_vars=2))
        steps = rng.randint(1, 40)
        columns = [tuple(random_label(rng, True) for _ in range(sk.arity))
                   for _ in range(steps + 1)]
        _assert_rewards_match_oracle(_LabelScript(columns), sk)


def test_rollout_rewards_match_naive_oracle_rewritten_prefix():
    rng = random.Random(202)
    for _ in range(150):
        sk = skolemize(random_formula(rng, max_depth=4, max_vars=2))
        _assert_rewards_match_oracle(_rewrite_script(rng, sk.arity, rng.randint(1, 16)), sk)


# Boolean bodies over a small alphabet of shared labels, whose columns the
# kernel scores once each.  Two labels have equal props in distinct
# frozensets, which must key one column.
_ALPHABET = (Label(frozenset({"p", "r"})), Label(frozenset({"q"})), Label(frozenset({"r", "p"})))


def _shared_label(rng):
    return rng.choice(_ALPHABET)


def _unread(columns, fresh):
    """`columns` with a prop that no formula reads, one per label, added to
    every label: no column repeats, so a kernel scores every one anew."""
    return [tuple(Label(label.props | {f"unread{next(fresh)}"}) for label in column)
            for column in columns]


def test_boolean_columns_scored_once_match_oracle_and_memo_less_evaluation():
    rng = random.Random(303)
    fresh = itertools.count()
    misses = steps = 0
    for case in range(200):
        sk = skolemize(random_formula(rng, max_depth=4, max_vars=2, boolean_only=True))
        if case % 2:
            env = _rewrite_script(rng, sk.arity, rng.randint(1, 16), _shared_label)
        else:
            env = _LabelScript([tuple(_shared_label(rng) for _ in range(sk.arity))
                                for _ in range(rng.randint(2, 41))])
        record = rollout(env, sk, CFG, lambda t, i: 0, 0, env.beta)
        memo_less = Plan(sk.body)   # a program of its own, which never meets a column twice
        for t, rho in enumerate(record.rhos, start=1):
            traces = env.prefix(t)
            columns = list(zip(*traces))
            if not columns:
                assert rho == CFG.rho_min
                continue
            z = zip_traces(traces)
            assert rho == naive_eval(z, 0, len(z), sk.body, CFG), (case, t)
            expected = PrefixEvaluator(memo_less, sk.arity, CFG).update(_unread(columns, fresh))
            assert _unchanged(rho, expected), (case, t)
        # the alphabet's two props sets give each slot read two columns at
        # most, fewer than the memo's bound, so it never starts afresh and
        # holds one entry per miss
        misses += len(getattr(sk.plan.program(sk.arity, CFG), "memo", ()))
        steps += len(record.rhos)
    assert 0 < misses < steps / 4


# Per-step rewards of rollout against a from-scratch evaluation, zero signs
# included.  Where v = 1, `c` is +0.0 if p holds and -0.0 if not (as in
# test_signed_zero_ties_follow_scalar_folds); where v is 0 or 2 it is +-1.

_ZERO = "[ v@t1 < 1 ]"
_C = f"((p@t1 & {_ZERO}) | (!p@t1 & !{_ZERO}))"
_SIGNED_ZERO_BODIES = ["G {c}", "F {c}", "X G {c}", "X F {c}", "X (true U {c})",
                       "F X G {c}", "G F {c}", "F G {c}", "X ({c} U X {c})",
                       "!X G !{c} & X F {c}", "{c} U !{c}", "(p@t1 -> {c}) U ({c} & !p@t1)",
                       "G F {c} & F G !{c}", "X G F {c} | {c} U F G {c}"]


def _zero_label(rng):
    props = frozenset({"p"}) if rng.random() < 0.5 else frozenset()
    return Label(props, {"v": float(rng.choice([0, 1, 1, 1, 2]))})


def _signed_zero_formula(body):
    return skolemize(hq.parse_formula("forall t1. " + body.format(c=_C)))


def _assert_rewards_match_from_scratch(env, sk):
    record = rollout(env, sk, CFG, lambda t, i: 0, 0, env.beta)
    for t, rho in enumerate(record.rhos, start=1):
        traces = env.prefix(t)
        if any(len(tr) == 0 for tr in traces):
            expected = CFG.rho_min
        else:
            expected = eval_hyper(traces, sk, CFG)
        assert (rho, math.copysign(1.0, rho)) == (expected, math.copysign(1.0, expected)), \
            (t, rho, expected)


@pytest.mark.parametrize("body", _SIGNED_ZERO_BODIES)
def test_rollout_rewards_keep_zero_signs_append_only(body):
    sk = _signed_zero_formula(body)
    rng = random.Random(body)
    for _ in range(40):
        columns = [(_zero_label(rng),) for _ in range(rng.randint(2, 30))]
        _assert_rewards_match_from_scratch(_LabelScript(columns), sk)


@pytest.mark.parametrize("body", _SIGNED_ZERO_BODIES)
def test_rollout_rewards_keep_zero_signs_rewritten_prefix(body):
    sk = _signed_zero_formula(body)
    rng = random.Random(body)
    for _ in range(40):
        env = _rewrite_script(rng, 1, rng.randint(2, 16), _zero_label)
        _assert_rewards_match_from_scratch(env, sk)


def test_rollout_rewards_keep_zero_signs_when_a_rewrite_flips_one():
    # a rewrite that only flips the sign of a zero valuation changes the
    # margin's sign, so the rewritten prefix must be rescored
    def label(v):
        return Label(frozenset(), {"v": v})

    assert _bits([label(0.0).valuations["v"]]) != _bits([label(-0.0).valuations["v"]])
    for first, second in ((0.0, -0.0), (-0.0, 0.0)):
        env = _PrefixScript([[], [(label(first),)], [(label(second),), (label(1.0),)]], 1)
        for body in ("[ v@t1 > 0 ]", "G [ v@t1 < 0 ]", "X (G [ v@t1 > 0 ] & X [ v@t1 > 0 ])"):
            _assert_rewards_match_from_scratch(env, _signed_zero_formula(body))


def _memo_entries(table) -> int:
    """The steps a table keeps by (context, id)."""
    return sum(map(len, table.memo.values()))


class _Recorded(StateTable):
    """A table that keeps in `seen` a label column for each step key it has
    interned, also after its ids restart."""

    def __init__(self, env, sk, config):
        super().__init__(env, sk, config)
        self.seen = {}

    def intern(self, state):
        i = super().intern(state)
        if self.labelled:
            self.seen.setdefault(self.inputs[i], self.columns[i])
        return i


def _memo_prefixes(table):
    """Each memo entry ((key, step key), (next key, reward)) with the traces
    of a prefix that the step reaches.  A `trace_prefix` world's is the
    id's prefix.  A flat plan's context is reached from a start context,
    keyed on the root values of a column that `table` (a `_Recorded`) has
    seen, through the entries before it, each a column with the entry's
    root values.  A monitor state reached by two prefixes is a function of
    either, so the first one found stands for it; so is a step's result of
    the column that stands for its root values."""
    if not table.memo:
        return
    if not table.labelled:
        for n, hit in table.memo.get(None, {}).items():
            yield (None, n), hit, table.env.trace_prefix(table.states[n])
        return
    seen = table.seen
    todo = [(key, [seen[key]]) for key in table.memo if key in seen]
    reached = {key for key, _ in todo}
    while todo:
        key, prefix = todo.pop()
        for step, (following, rho) in table.memo[key].items():
            longer = prefix + [seen[step]]
            yield (key, step), (following, rho), [Trace(labels) for labels in zip(*longer)]
            if following not in reached:
                reached.add(following)
                todo.append((following, longer))
    assert reached == set(table.memo)


def _counted_updates(monkeypatch) -> list:
    """The list to which each `PrefixEvaluator.update` call appends its
    evaluator."""
    updates = []
    update = PrefixEvaluator.update
    monkeypatch.setattr(PrefixEvaluator, "update",
                        lambda self, *args: updates.append(self) or update(self, *args))
    return updates


def _counted_evaluators(monkeypatch) -> list:
    """The list to which each `PrefixEvaluator` that `rollout` makes
    appends itself."""
    made = []

    class Counted(PrefixEvaluator):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(learner, "PrefixEvaluator", Counted)
    return made


def _lazy_worlds():
    """(name, world, skolemized formula): a labelled world under a flat plan,
    a `trace_prefix` world and a labelled world under a nested plan."""
    rng = random.Random(11)
    columns = [tuple(_kernel_label(rng) for _ in range(2)) for _ in range(7)]
    nested = skolemize(hq.parse_formula("forall t1. forall t2. F (a@t1 & X F b@t2)"))
    assert not nested.plan.flat
    return [("flat", WildfireEnv(6), skolemize(rescue_formula())),
            ("domino", _k3_world(4), skolemize(_pcp_formula())),
            ("nested", _LabelScript(columns), nested)]


@pytest.mark.parametrize("world", ["flat", "domino"])
def test_a_rollout_whose_every_step_is_looked_up_makes_no_evaluator(monkeypatch, world):
    # the evaluator is made at the first step the memo lacks: the second run
    # of one episode through one table looks every step up and makes none
    [(_, env, sk)] = [w for w in _lazy_worlds() if w[0] == world]
    made, updates = _counted_evaluators(monkeypatch), _counted_updates(monkeypatch)
    first = rollout(env, sk, CFG, lambda t, i: 0, 0, env.beta)
    assert len(made) == 1 and 0 < len(updates) <= env.beta
    made.clear()
    updates.clear()
    second = rollout(env, sk, CFG, lambda t, i: 0, 0, env.beta)
    assert made == [] and updates == []
    assert _bits(second.rhos + [second.terminal_rho]) == _bits(first.rhos + [first.terminal_rho])


def test_a_nested_plan_still_updates_its_evaluator_at_every_step(monkeypatch):
    [(_, env, sk)] = [w for w in _lazy_worlds() if w[0] == "nested"]
    made, updates = _counted_evaluators(monkeypatch), _counted_updates(monkeypatch)
    for _ in range(2):
        made.clear()
        updates.clear()
        record = rollout(env, sk, CFG, lambda t, i: 0, 0, env.beta)
        assert len(made) == 1 and updates == made * env.beta
        for t, rho in enumerate(record.rhos, start=1):
            expected = eval_hyper(env.prefix(t), sk, CFG)
            assert _bits([rho]) == _bits([expected]), t


@pytest.mark.parametrize("warm", [False, True])
def test_an_episode_without_steps_still_scores_its_traces(monkeypatch, warm):
    # on a fresh table and on one whose every step is kept, each world makes
    # one evaluator, for the start's traces
    for name, env, sk in _lazy_worlds():
        if warm:
            rollout(env, sk, CFG, lambda t, i: 0, 0, env.beta)
        made = _counted_evaluators(monkeypatch)
        record = rollout(env, sk, CFG, None, 0, 0)
        expected = immediate_reward(record.traces, sk, CFG)
        assert len(made) == 1 and record.rhos == [], name
        assert _bits([record.terminal_rho]) == _bits([expected]), name


def test_train_takes_the_skolemized_formula_that_setup_compiled(monkeypatch):
    # every seed of a run gets back the object `setup` skolemized, which the
    # world's table holds, so `StateTable.of` finds the table by identity
    # and prints no formula; a formula of another parse is skolemized anew
    cfg = ExperimentConfig.load(hq.bundled("configs/pcp-k3.ini"))
    f, sk, env, _ = cfg.setup()
    table, made, printed = env.table, [], []
    monkeypatch.setattr(learner, "skolemize", lambda g: made.append(skolemize(g)) or made[-1])
    monkeypatch.setattr(SkolemizedFormula, "__repr__", lambda self: printed.append(self) or "")
    h = dataclasses.replace(cfg.hyperparams, xi=3)
    for seed in (1, 2):
        train(env, f, h, seed)
    assert [id(x) for x in made] == [id(sk)] * 2
    assert printed == [] and env.table is table and table.sk is sk
    other = hq.load_formula(cfg.formula_path)
    assert skolemize(other) is not sk and skolemize(other) is skolemize(other)


def test_train_rejects_a_negative_seed_before_any_episode():
    env = WildfireEnv(4)
    resets = []
    env.reset = lambda seed: resets.append(seed)
    with pytest.raises(ValueError, match="non-negative"):
        train(env, rescue_formula(), Hyperparams(xi=2), seed=-1)
    assert resets == [] and env.table is None


def test_rollout_reuses_rho_once_both_domino_sequences_terminated(monkeypatch):
    env = PcpEnv(load_domino_file(hq.bundled("dominoes/k3_solvable.dom")), beta=8)
    sk = skolemize(hq.load_formula(hq.bundled("formulas/pcp_ab.hltl")))
    script = [("dom_2", "dom_2"), ("dom_#", "dom_1"), ("dom_1", "dom_3"), ("dom_1", "dom_#")]
    updates = _counted_updates(monkeypatch)
    actions = iter(script + [("dom_2", "dom_1")] * (env.beta - len(script)))
    index = StateTable.of(env, sk, CFG).index
    record = rollout(env, sk, CFG, lambda t, i: index[next(actions)], 0, env.beta)
    assert record.states[len(script)] == (((2,), True), ((2, 1, 3), True))
    # the tracker's evaluator scores the steps up to both terminations only
    assert updates.count(updates[0]) == len(script)
    for t, rho in enumerate(record.rhos, start=1):
        expected = eval_hyper(env.trace_prefix(record.states[t]), sk, CFG)
        assert (rho, math.copysign(1.0, rho)) == (expected, math.copysign(1.0, expected)), t


def test_rollout_on_a_warm_domino_table_catches_the_tracker_up_once(monkeypatch):
    # the second run of one action script through one table looks every
    # step up and takes every score from the table: only the end-of-episode
    # catch-up moves the tracker, to the last state's traces
    env, sk = _k3_world(4), skolemize(_pcp_formula())
    script = [("dom_1", "dom_2"), ("dom_2", "dom_3"), ("dom_3", "dom_1"), ("dom_1", "dom_1")]
    table = StateTable.of(env, sk, CFG)

    def run():
        return rollout(env, sk, CFG, lambda t, i: table.index[script[t]], 0, env.beta)

    first = run()
    updates, prefixes = _counted_updates(monkeypatch), []
    prefix = PcpEnv.trace_prefix
    monkeypatch.setattr(PcpEnv, "trace_prefix",
                        lambda self, state: prefixes.append(state) or prefix(self, state))
    second = run()
    assert updates == [] and prefixes == [second.states[-1]]
    assert second.traces == list(env.trace_prefix(second.states[-1]))
    assert second.traces != list(env.trace_prefix(second.states[0]))
    assert _bits(second.rhos + [second.terminal_rho]) == _bits(first.rhos + [first.terminal_rho])
    assert second.traces == first.traces


def test_train_scores_each_domino_state_once(monkeypatch):
    # a `trace_prefix` world is scored once per id: training updates the
    # evaluator at most once per interned joint state, while a world that
    # appends a label per step still updates once per step
    updates, prefixes, tables = _counted_updates(monkeypatch), [], []
    prefix = PcpEnv.trace_prefix
    monkeypatch.setattr(PcpEnv, "trace_prefix",
                        lambda self, state: prefixes.append(state) or prefix(self, state))

    class Kept(StateTable):
        def clear(self):
            tables.append(self)
            super().clear()

    monkeypatch.setattr(learner, "StateTable", Kept)
    beta, h = 10, Hyperparams(xi=300)
    train(_k3_world(beta), _pcp_formula(), h, seed=1)
    [table] = tables    # begun once, never afresh
    ids = len(table.states)
    assert ids < (h.xi + 1) * beta // 2
    # one update per scored id and one for the final check from scratch;
    # the start state is never scored
    assert 0 < len(updates) <= ids
    # one prefix per scored id and at most one per episode to catch up with
    # its last state, plus the table's start, the final check and the
    # extraction's beta + 1 states
    assert len(prefixes) <= ids + (h.xi + 1) + (beta + 3)

    # a labelled world under a flat plan updates once per step it has not
    # looked up, from a monitor state into an id, plus the final check; under
    # a nested plan, once per step
    rng = random.Random(5)
    columns = [tuple(_kernel_label(rng) for _ in range(2)) for _ in range(9)]
    grid = load_map_file(hq.bundled("maps/fair4.map"))
    labelled = [(_LabelScript(columns), hq.parse_formula("forall t1. forall t2. G a@t1 | F b@t2")),
                (ResourceEnv(grid, 12), hq.load_formula(hq.bundled("formulas/fairness.hltl")))]
    for env, f in labelled:
        updates.clear()
        tables.clear()
        train(env, f, Hyperparams(xi=30), seed=7)
        [table] = tables
        looked_up = _memo_entries(table)
        if skolemize(f).plan.flat:
            assert 0 < looked_up == len(updates) - 1 <= env.beta, env.kind
        else:
            assert looked_up == 0 and len(updates) == (30 + 1) * env.beta + 1, env.kind


def test_rollout_rewards_keep_zero_signs_300_steps_nested():
    sk = _signed_zero_formula("(G F {c} | X F G {c}) & X ({c} U (F G {c} U X G F {c}))")
    rng = random.Random(300)
    columns = [(_zero_label(rng),) for _ in range(301)]
    _assert_rewards_match_from_scratch(_LabelScript(columns), sk)


# Rewards over bodies whose pointwise steps the plan's program computes in
# each of its three ways: in `roots` over atoms, at position 0 alone, and
# per position over temporal operands.  Each reward is compared bit for bit with a from-scratch `eval_hyper` and with
# `signed_eval`, and by value with `naive_eval` (whose min and max keep the
# left operand of a tie, so its zero signs differ).  v is one of -1, -0.0,
# 0.0 and 1, so the predicates' margins include both zeros.

_KERNEL_BODIES = [
    # all pointwise
    "[ v@t1 > 0 ] -> ![ v@t2 < 0 ] | a@t1 & [ v@t2 > 0 ]",
    # a root read at position 0 only
    "([ v@t1 > 0 ] & ![ v@t2 < 0 ]) & G b@t2",
    # a root read by F and by |
    "F ([ v@t1 > 0 ] & ![ v@t2 > 0 ]) | ([ v@t1 > 0 ] & ![ v@t2 > 0 ])",
    # abs-diff predicates under ->
    "G (a@t1 -> ![ |v@t1 - v@t2| > 0 ]) & ([ v@t1 > 0 ] -> [ |v@t1 - v@t2| < 1 ])",
    # &, | and -> per position over temporal operands, read by X
    "X (G [ v@t1 > 0 ] & X [ v@t2 > 0 ])",
    "X (F [ v@t1 > 0 ] | X [ v@t2 < 0 ])",
    "X (X [ v@t1 > 0 ] -> G [ v@t2 > 0 ])",
]

# G F and F G, which read their operand's newest value, and U over fused
# operands, which folds forward: at position 0 alone, and kept per position
# under X or as an operand of U
_MONITOR_BODIES = [
    "G F [ v@t1 > 0 ] & F G ![ v@t2 > 0 ] | a@t1",
    "!(([ v@t1 > 0 ] | a@t1) U ![ v@t2 > 0 ]) & G F b@t1",
    "(b@t2 -> [ v@t2 < 0 ]) U [ v@t1 > 0 ] | F G ([ |v@t1 - v@t2| > 0 ] & a@t2)",
    "X G F [ v@t1 > 0 ] | X ([ v@t2 > 0 ] U a@t1)",
    "[ v@t1 > 0 ] U F G ![ v@t2 > 0 ]",
]


def _kernel_label(rng):
    props = frozenset(p for p in ("a", "b") if rng.random() < 0.5)
    return Label(props, {"v": rng.choice([-1.0, -0.0, 0.0, 0.0, 1.0])})


def _assert_rewards_match_all(env, sk):
    record = rollout(env, sk, CFG, lambda t, i: 0, 0, env.beta)
    for t, rho in enumerate(record.rhos, start=1):
        traces = env.prefix(t)
        if any(len(tr) == 0 for tr in traces):
            expected = [CFG.rho_min] * 3
        else:
            z = zip_traces(traces)
            expected = [eval_hyper(traces, sk, CFG), signed_eval(z, 0, len(z), sk.body, CFG),
                        naive_eval(z, 0, len(z), sk.body, CFG)]
        signed = [(x, math.copysign(1.0, x)) for x in expected[:2]]
        assert signed == [(rho, math.copysign(1.0, rho))] * 2 and rho == expected[2], \
            (t, rho, expected)


@pytest.mark.parametrize("body", _KERNEL_BODIES + _MONITOR_BODIES)
def test_kernel_rewards_bit_identical_append_only(body):
    sk = skolemize(hq.parse_formula("forall t1. forall t2. " + body))
    rng = random.Random(body)
    for _ in range(40):
        columns = [(_kernel_label(rng), _kernel_label(rng)) for _ in range(rng.randint(2, 30))]
        _assert_rewards_match_all(_LabelScript(columns), sk)


@pytest.mark.parametrize("body", _KERNEL_BODIES + _MONITOR_BODIES)
def test_kernel_rewards_bit_identical_rewritten_prefix(body):
    sk = skolemize(hq.parse_formula("forall t1. forall t2. " + body))
    rng = random.Random(body + "rewrite")
    for _ in range(40):
        _assert_rewards_match_all(_rewrite_script(rng, 2, rng.randint(2, 16), _kernel_label), sk)


def _pointwise_text(rng, depth=2):
    """A random !, &, | and -> combination of atoms over a, b and v, whose
    predicates' margins include both zeros under `_kernel_label`."""
    if depth == 0 or rng.random() < 0.4:
        t = rng.choice(("t1", "t2"))
        return rng.choice([f"a@{t}", f"b@{t}", f"[ v@{t} > 0 ]", f"[ v@{t} < 0 ]",
                           f"[ v@{t} = 0 ]", "[ |v@t1 - v@t2| > 0 ]"])
    op = rng.choice(["!", "&", "|", "->"])
    if op == "!":
        return f"!({_pointwise_text(rng, depth - 1)})"
    return f"({_pointwise_text(rng, depth - 1)} {op} {_pointwise_text(rng, depth - 1)})"


def _monitor_text(rng, depth=2):
    """A random body of G F, F G, U, G and F over pointwise operands under
    !, &, | and ->, and now and then under X or as the right operand of U."""
    p = _pointwise_text(rng)
    roll = rng.random()
    if depth == 0 or roll < 0.5:
        return rng.choice([f"G F {p}", f"F G {p}", f"({p} U {_pointwise_text(rng)})", f"G {p}",
                           f"F {p}", p])
    if roll < 0.6:
        return f"X {_monitor_text(rng, depth - 1)}"
    if roll < 0.7:
        return f"({p} U {_monitor_text(rng, depth - 1)})"
    op = rng.choice(["!", "&", "|", "->"])
    if op == "!":
        return f"!{_monitor_text(rng, depth - 1)}"
    return f"({_monitor_text(rng, depth - 1)} {op} {_monitor_text(rng, depth - 1)})"


def test_monitor_shapes_match_the_oracles_on_fresh_and_warm_tables(monkeypatch):
    # random bodies of G F, F G and U over pointwise operands, most of them
    # flat: every reward equals `signed_eval` bit for bit and `naive_eval`
    # by value, scored afresh along one path and looked up on a table whose
    # episodes repeat their steps
    rng = random.Random(2828)
    flat = updated = steps = 0
    for case in range(80):
        sk = skolemize(hq.parse_formula("forall t1. forall t2. " + _monitor_text(rng)))
        columns = [(_kernel_label(rng), _kernel_label(rng)) for _ in range(rng.randint(2, 24))]
        _assert_rewards_match_all(_LabelScript(columns), sk)
        env = _LabelCycle([(_kernel_label(rng), _kernel_label(rng)) for _ in range(5)], 12)
        updates = _counted_updates(monkeypatch)
        records = _warm_table_episodes(env, sk, 12, 3, rng)
        monkeypatch.undo()
        for record in records:
            labels = [env.label_of(state) for state in record.states]
            for t, rho in enumerate(record.rhos, start=1):
                z = zip_traces([Trace(column) for column in zip(*labels[:t + 1])])
                expected = signed_eval(z, 0, len(z), sk.body, CFG)
                assert _bits([rho]) == _bits([expected]), (case, t)
                assert rho == naive_eval(z, 0, len(z), sk.body, CFG), (case, t)
        if sk.plan.flat:
            flat += 1
            updated += len(updates)
            steps += sum(record.steps for record in records)
    assert flat > 40 and 0 < updated < steps // 3


def test_kernel_bodies_cover_their_shapes():
    # the cases above reach what they are named for: a body the kernel
    # computes alone, a root read at position 0 alone (by the body's &), a
    # root read by a temporal and a head step, an abs-diff predicate under
    # ->, and an &, | and -> kept per position over temporal operands.
    # Every root keeps one value per position
    plans = [skolemize(hq.parse_formula("forall t1. forall t2. " + b)).plan
             for b in _KERNEL_BODIES]
    assert all(plans[0].fused) and plans[0].roots == (len(plans[0]) - 1,)
    assert all(plan.whole[i] for plan in plans for i in plan.roots)
    left = plans[1].steps[-1][1][0]
    readers = [type(node).__name__ for node, kids in plans[1].steps if left in kids]
    assert type(plans[1].steps[left][0]).__name__ == "And" and left in plans[1].roots
    assert readers == ["And"] and not plans[1].whole[-1]
    shared = plans[2].steps[-1][1][1]          # the right operand of |
    assert shared in plans[2].roots and plans[2].whole[shared]
    assert {type(plans[2].steps[i][0]).__name__ for i, (_, kids) in enumerate(plans[2].steps)
            if shared in kids} == {"Eventually", "Or"}
    assert sum(getattr(node, "abs_diff", False) for node, _ in plans[3].steps) == 2
    for plan, name in zip(plans[4:], ("And", "Or", "Implies")):
        assert name in [type(node).__name__ for (node, _), whole, fused
                        in zip(plan.steps, plan.whole, plan.fused) if whole and not fused]


_BUNDLED_PROPS = ("goal1 goal2 i f c g resource "
                  "top_a bot_a top_b bot_b top_hash bot_hash").split()


def _bundled_label(rng):
    """A label that every bundled formula can read."""
    return Label(frozenset(p for p in _BUNDLED_PROPS if rng.random() < 0.3),
                 {k: rng.choice([-1.0, -0.0, 0.0, 1.0, 2.0, 3.0])
                  for k in ("cell", "loc", "energy")})


def _roots_cases():
    """(name, skolemized formula, label maker) per kernel, monitor and
    bundled body."""
    for body in _KERNEL_BODIES + _MONITOR_BODIES:
        yield body, skolemize(hq.parse_formula("forall t1. forall t2. " + body)), _kernel_label
    for name in ("pcp_ab", "safe_rl", "fairness", "rescue"):
        yield name, skolemize(hq.load_formula(hq.bundled(f"formulas/{name}.hltl"))), _bundled_label


def test_each_fused_step_is_computed_once_in_the_source():
    # the program's `roots` is the only code that computes a fused step:
    # its source assigns x{i} from an expression that does not read x{i}
    # once per fused step, and the steps of a predicate's margin each
    # rebind that x{i} from itself
    for name, sk, _ in _roots_cases():
        plan = sk.plan
        tree = ast.parse(robustness._kernel_source(plan, sk.arity))
        defined = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                target = node.targets[0].id
                reads = {n.id for n in ast.walk(node.value) if isinstance(n, ast.Name)}
                if target.startswith("x") and target not in reads:
                    defined.append(int(target[1:]))
        assert sorted(defined) == [i for i, fused in enumerate(plan.fused) if fused], name


def test_roots_give_what_the_program_appends_at_each_column():
    # `program.roots(column)` is the roots' values at one column, in
    # `plan.roots` order, bit for bit what an update stores for that
    # column, whether the prefix was appended to or rescored from 0
    for name, sk, make_label in _roots_cases():
        plan, rng = sk.plan, random.Random(name)
        roots = plan.program(sk.arity, CFG).roots
        evaluator = PrefixEvaluator(plan, sk.arity, CFG)
        columns = []
        for lo in range(12):
            columns.append(tuple(make_label(rng) for _ in range(sk.arity)))
            evaluator.update(columns, lo)
        for rescore in (False, True):
            if rescore:
                columns = [tuple(make_label(rng) for _ in range(sk.arity)) for _ in range(9)]
                evaluator.update(columns, 0)
            stored = [[evaluator._vals[i][j] for i in plan.roots] for j in range(len(columns))]
            assert [_bits(values) for values in stored] == [
                _bits(roots(column)) for column in columns], (name, rescore)


def test_plan_is_flat_when_its_temporal_steps_read_fused_roots_alone():
    # flat: G, F, X, U and G F / F G over atoms and their !, &, | and ->
    # alone, read by those alone; an &, | or -> kept per position for a
    # temporal reader is not, nor is a temporal step under another, other
    # than G F and F G
    plans = [skolemize(hq.parse_formula("forall t1. forall t2. " + b)).plan
             for b in _KERNEL_BODIES + _MONITOR_BODIES]
    assert [plan.flat for plan in plans] == [True] * 4 + [False] * 3 + [True] * 3 + [False] * 2

    def monitor(plan):
        return [(type(plan.steps[i][0]).__name__, j) for i, j in plan.monitor]

    # the monitor state holds the roots' values at position 0 and the G, F,
    # X and U steps' states, a U's two values; not the body, the pointwise
    # steps over these, or a G F, which reads the newest column
    assert monitor(plans[1]) == [("And", 0), ("BoolProp", 0), ("Always", 0)]
    assert monitor(plans[7]) == [("Predicate", 0), ("Not", 0), ("BoolProp", 0)]
    assert monitor(plans[8]) == [("Or", 0), ("Not", 0), ("Until", 0), ("Until", 1),
                                 ("BoolProp", 0)]
    # under X, or as an operand of U, G F, F G and U keep one value per
    # position; G F and F G are `last` steps wherever they are
    assert [[(type(plan.steps[i][0]).__name__, plan.last[i]) for i in plan.temporal
             if plan.whole[i]] for plan in plans[10:]] == [
        [("Always", True), ("Until", False)], [("Eventually", True), ("Until", False)]]
    assert [sum(plan.last) for plan in plans[7:]] == [2, 1, 1, 1, 1]


class _LabelCycle(Environment):
    """A labelled world whose states repeat: every slot state is one index
    into a cycle of columns, which a joint action advances by one or by two
    (by its first slot's action); seed s starts at index s."""

    kind = "label-cycle"
    actions = ("one", "two")

    def __init__(self, columns, beta):
        super().__init__()
        self.columns, self.arity, self.beta = columns, len(columns[0]), beta

    def reset(self, seed):
        return (seed % len(self.columns),) * self.arity

    def transition(self, state, joint):
        return ((state[0] + 1 + (joint[0] == "two")) % len(self.columns),) * self.arity

    def label_of(self, state):
        return self.columns[state[0]]


def _warm_table_episodes(env, sk, episodes, starts, rng):
    """Records of `episodes` random episodes from `starts` start states,
    all through the world's table."""
    table = StateTable.of(env, sk, CFG)
    return [rollout(env, sk, CFG, lambda t, i: rng.randrange(table.width), e % starts,
                    env.beta) for e in range(episodes)]


@pytest.mark.parametrize("body", ["G {c}", "F {c}", "X {c}", _KERNEL_BODIES[1],
                                  "G a@t1 | F b@t2",
                                  # X of a false atom is the value of a prefix
                                  # of one position
                                  "X b@t1 & G a@t2",
                                  # a root read at position 0 and by F
                                  "(G b@t1 | ([ v@t1 > 0 ] & ![ v@t2 > 0 ]))"
                                  " & F ([ v@t1 > 0 ] & ![ v@t2 > 0 ])",
                                  # U folded forward, G F and F G read as
                                  # their operand's newest value
                                  "{c} U !{c}", "G F {c} | F G !{c}",
                                  *_MONITOR_BODIES[:3]])
def test_rollout_rewards_on_a_warm_table_match_from_scratch(monkeypatch, body):
    # a flat plan's steps are looked up by (monitor state, id) in one table
    # that episodes from several start states share, so most steps cost no
    # evaluator update; every reward still equals a from-scratch evaluation
    # bit for bit, the sign of a zero included
    if "{c}" in body:
        sk, make_label = _signed_zero_formula(body), _zero_label
    else:
        sk = skolemize(hq.parse_formula("forall t1. forall t2. " + body))
        make_label = _kernel_label
    assert sk.plan.flat
    rng = random.Random(body)
    worlds = [_LabelCycle([tuple(make_label(rng) for _ in range(sk.arity)) for _ in range(5)], 12)
              for _ in range(10)]
    updates = _counted_updates(monkeypatch)
    runs = [(env, _warm_table_episodes(env, sk, 30, 3, rng)) for env in worlds]
    steps = sum(record.steps for _, records in runs for record in records)
    assert 0 < len(updates) < steps // 4
    monkeypatch.undo()
    for env, records in runs:
        for record in records:
            labels = [env.label_of(state) for state in record.states]
            expected = [eval_hyper([Trace(column) for column in zip(*labels[:t + 1])], sk, CFG)
                        for t in range(1, len(labels))]
            assert _bits(record.rhos) == _bits(expected)
            assert _bits([record.terminal_rho]) == _bits(expected[-1:])


@pytest.mark.parametrize("name, flat", [("safe_rl", True), ("rescue", True),
                                        ("fairness", True), ("pcp_ab", False)])
def test_bundled_formulas_take_the_lookup_by_their_plans(monkeypatch, name, flat):
    # safe_rl.hltl, rescue's U over atoms and fairness's G F look their
    # steps up; pcp_ab's nested U keeps one evaluator update per step in a
    # labelled world, even on a warm table whose steps repeat.  A formula
    # edit that leaves the lookup fails here
    sk = skolemize(hq.load_formula(hq.bundled(f"formulas/{name}.hltl")))
    assert sk.plan.flat == flat
    rng = random.Random(name)

    def label():
        return Label(frozenset(p for p in _BUNDLED_PROPS if rng.random() < 0.3),
                     {k: float(rng.randrange(4)) for k in ("cell", "loc", "energy")})

    env = _LabelCycle([(label(), label()) for _ in range(5)], 12)
    updates = _counted_updates(monkeypatch)
    steps = sum(record.steps for record in _warm_table_episodes(env, sk, 20, 2, rng))
    assert len(updates) < steps // 4 if flat else len(updates) == steps


def test_a_flat_formula_over_growing_energies_keeps_the_memo_bounded(monkeypatch):
    # the resource grid's energies grow without bound, so its ids rarely
    # repeat and the monitor states of a numeric formula over them take
    # many values.  The table forgets its ids once it holds more than
    # `limit`; the memo, which names no id, outlives that and starts afresh
    # once it holds more than `limit` contexts or `limit * width` steps
    starts = []

    class Kept(StateTable):
        limit = 32

        def start(self, state):
            before = len(self.states), len(self.memo), self.kept
            i = super().start(state)
            starts.append((before, (len(self.states), len(self.memo), self.kept)))
            return i

    monkeypatch.setattr(learner, "StateTable", Kept)
    f = hq.parse_formula("forall t1. forall t2. G [ energy@t1 < 50 ] & G [ energy@t2 < 50 ]"
                         " & G [ |energy@t1 - energy@t2| < 10 ]")
    assert skolemize(f).plan.flat
    env = ResourceEnv(load_map_file(hq.bundled("maps/fair4.map")), 40)
    train(env, f, Hyperparams(xi=40, epsilon_end=1.0), seed=3)
    width = env.table.width
    bound = Kept.limit + env.beta   # the table is checked at episode starts
    for (ids, contexts, kept), _ in starts:
        assert ids <= bound and contexts <= bound and kept <= Kept.limit * width + env.beta
    # ids restart with the memo kept, and the memo restarts on its own bound
    restarts = [(before[1:] == after[1:], after[1] <= 1) for before, after in starts[1:]
                if after[0] == 1]
    assert (True, False) in restarts
    assert any(after[1] <= 1 < before[1] for before, after in starts)
    # memo contexts or steps past their bounds start the memo afresh
    table = Kept(env, skolemize(f), CFG)
    start = env.reset(0)
    table.start(start)
    table.memo.update((bytes([k]), {}) for k in range(Kept.limit))
    assert table.start(start) == 0 and len(table.memo) == Kept.limit
    table.memo[b"past"] = {}
    assert table.start(start) == 0 and not table.memo
    table.memo[b"steps"] = {}
    table.kept = Kept.limit * table.width
    assert table.start(start) == 0 and len(table.memo) == 1
    table.kept += 1
    assert table.start(start) == 0 and not table.memo and table.kept == 0


def test_a_fairness_memo_outlives_the_restart_of_its_ids(monkeypatch):
    # the resource world's energies grow, so a fairness run forgets its ids
    # again and again; its memo names no id, so it is kept and most steps
    # stay lookups, and every entry is a from-scratch evaluation bit for bit
    cfg = ExperimentConfig.load(hq.bundled("configs/fairness-4x4.ini"))
    f, sk, _, beta = cfg.setup()
    h = cfg.hyperparams
    h.xi = 60
    kept = []

    class Small(_Recorded):
        limit = 64

        def clear(self):
            if self.states:
                kept.append(len(self.memo))
            super().clear()

    monkeypatch.setattr(learner, "StateTable", Small)
    env = cfg.make_env()
    updates = _counted_updates(monkeypatch)
    train(env, f, h, seed=1)
    assert sk.plan.flat and len(kept) > 3 and min(kept) > 0
    assert len(updates) < (h.xi + 1) * beta // 20
    entries = list(_memo_prefixes(env.table))
    assert len(entries) == _memo_entries(env.table) > 0
    for (key, step), (following, rho), traces in entries:
        assert _unchanged(rho, eval_hyper(traces, sk, h.config())), (key, step, rho)


def test_train_rejects_traces_that_are_not_a_function_of_the_state():
    def label(v):
        return Label(frozenset(), {"v": v})

    # step 2 rewrites position 0 from v = 1 to v = -1 and appends v = 1
    script = [[], [(label(1.0),)], [(label(-1.0),), (label(1.0),)]]
    f = hq.parse_formula("forall t1. [ v@t1 > 0 ]")
    h = Hyperparams(xi=3)
    assert train(_PrefixScript(script, 1), f, h, seed=0).final_record.terminal_rho == -1.0
    # a world that gives a state it has given before the prefix of the
    # step before: the run scores each state once, on its first prefix,
    # so the final check sees the drift
    env = _PrefixScript(script, 1)
    given = set()

    def drifting(state):
        t = state[0] - (state in given)
        given.add(state)
        return tuple(env.prefix(t))

    env.trace_prefix = drifting
    with pytest.raises(RewardMismatchError) as caught:
        train(env, f, h, seed=0)
    assert (caught.value.tracked, caught.value.from_scratch) == (-1.0, 1.0)
    assert str(caught.value) == ("terminal reward -1.0 differs from the from-scratch "
                                 "robustness 1.0 of the final episode")


def test_rollout_rejects_unequal_slot_lengths():
    # a world whose output does not zip into columns of one label per slot:
    # a column of the wrong arity, first or later
    sk = skolemize(hq.parse_formula("forall t1. forall t2. F p@t1 & F p@t2"))
    label = random_label(random.Random(1))
    for columns in ([(label,) * 3], [(label,) * 2, (label,) * 2, (label,)]):
        env = _PrefixScript([[], columns], 2)
        with pytest.raises(LengthMismatchError):
            rollout(env, sk, CFG, lambda t, i: 0, 0, 1)
    # unequal slots at every state: an episode without steps scores them at
    # its end, one with a step when it scores that step
    env = _PrefixScript([[], []], 2)
    env.trace_prefix = lambda state: (Trace((label,) * 2), Trace((label,)))
    for beta in (0, 1):
        with pytest.raises(LengthMismatchError):
            rollout(env, sk, CFG, lambda t, i: 0, 0, beta)


def test_rollout_empty_slot_scores_minimum():
    sk = skolemize(hq.parse_formula("forall t1. forall t2. F true | G true"))
    full = [(random_label(random.Random(3)),) * 2] * 2
    env = _PrefixScript([[], [], full], 2)
    record = rollout(env, sk, CFG, lambda t, i: 0, 0, 2)
    assert record.rhos == [CFG.rho_min, CFG.rho_max]
    assert record.traces == env.prefix(2)
    start = env.reset(0)
    assert _EpisodeTracker(env).traces(start) == [Trace(), Trace()]


def test_an_episode_without_steps_scores_a_nonempty_start_prefix():
    # a `trace_prefix` world's tracker starts empty, so an episode without
    # steps scores the start's traces themselves
    def label(props, v):
        return Label(frozenset(props.split()), {"v": v})

    start = [(label("p", 3.5), label("", 2.0)), (label("", 1.25), label("q", -0.0))]
    env = _PrefixScript([start, start + start], 2)
    sk = skolemize(hq.parse_formula("forall t1. forall t2. G [ v@t1 > 1 ] & F q@t2"))
    record = rollout(env, sk, CFG, lambda t, i: 0, 0, 0)
    assert record.rhos == [] and record.traces == env.prefix(0)
    assert _bits([record.terminal_rho, eval_hyper(env.prefix(0), sk, CFG)]) == _bits([0.25] * 2)


def test_plan_has_one_step_per_distinct_subformula():
    sk = skolemize(hq.load_formula(hq.bundled("formulas/pcp_ab.hltl")))
    distinct = set()
    stack = [sk.body]
    while stack:
        node = stack.pop()
        distinct.add(node)
        stack.extend(children_of(node))
    assert len(sk.plan) == len(distinct) == 54
    assert sk.plan.steps[-1][0] == sk.body
    assert sk.plan is sk.plan


def test_plan_keeps_one_value_for_steps_read_at_position_zero_alone():
    # a step that only !, &, | and -> read on the way to the body is needed
    # at position 0 alone; atoms, U and whatever a temporal operator reads
    # keep one value per position
    def heads(text):
        plan = skolemize(hq.parse_formula(text)).plan
        return [type(node).__name__ for (node, _), whole in zip(plan.steps, plan.whole)
                if not whole]

    assert heads("forall t1. G F p@t1 & !X q@t1") == ["Always", "Next", "Not", "And"]
    assert heads("forall t1. p@t1 U G q@t1") == []
    assert heads("forall t1. X !(p@t1 & q@t1)") == ["Next"]
    for name, count in (("fairness", 5), ("safe_rl", 5), ("pcp_ab", 0)):
        sk = skolemize(hq.load_formula(hq.bundled(f"formulas/{name}.hltl")))
        assert sum(not whole for whole in sk.plan.whole) == count
