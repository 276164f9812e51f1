import itertools

import pytest

import hyperq as hq
from hyperq.env import ArityMismatchError
from hyperq.learner import (
    Hyperparams,
    TabularQ,
    extract_policies,
    greedy_rollout,
    immediate_reward,
    q_update,
    train,
)
from hyperq.robustness import RobustnessConfig
from hyperq.skolem import check_consistency, skolemize
from hyperq.worlds import load_domino_file, pcp_env, wildfire_env

from oracles import value_iteration

CFG = RobustnessConfig()


def rescue_formula():
    return hq.load_formula(hq.bundled("formulas/rescue.hltl"))


def test_q_update_degenerate_bellman():
    h = Hyperparams(gamma=0.0, learning_rate=1.0)
    q = TabularQ(2)
    q_update(q, "s", 0, 7.5, "s2", h)
    assert q.values("s")[0] == 7.5


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
                q_update(q, s, a, reward(s, a), transition(s, a), h)
    for s in (0, 1):
        for a in (0, 1):
            assert abs(q.values(s)[a] - oracle[s][a]) < 1e-6


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
    res = train(wildfire_env(8), f, h, seed=5)
    bound = h.rho_max / (1.0 - h.gamma) + 1e-9
    for row in res.q.table.values():
        for v in row:
            if v is not None:
                assert abs(v) <= bound


def test_immediate_reward_empty_prefix_is_minimum():
    d = load_domino_file(hq.bundled("dominoes/k3_solvable.dom"))
    env = pcp_env(d)
    sk = skolemize(hq.load_formula(hq.bundled("formulas/pcp_ab.hltl")))
    traces = env.trace_prefix(env.reset(0))
    assert immediate_reward(list(traces), sk, CFG) == CFG.rho_min


def test_immediate_reward_start_state_negative():
    env = wildfire_env(8)
    sk = skolemize(rescue_formula())
    labels = env.label_of(env.reset(0))
    traces = [hq.Trace((lab,)) for lab in labels]
    assert immediate_reward(traces, sk, CFG) < 0


def test_immediate_reward_on_optimal_paths_positive():
    env = wildfire_env(8)
    sk = skolemize(rescue_formula())
    p1 = env.path_trace(list("adefcfi"))
    p2 = env.path_trace(list("adghef") + ["f"])
    assert immediate_reward([p1, p2], sk, CFG) > 0


def test_train_rejects_arity_mismatch():
    f = hq.parse_formula("forall t1. F a@t1")
    with pytest.raises(ArityMismatchError):
        train(wildfire_env(4), f, Hyperparams(xi=1), seed=0)


def test_train_metrics_deterministic():
    f = rescue_formula()
    h = Hyperparams(xi=40, learning_rate=1.0)
    first = train(wildfire_env(6), f, h, seed=11)
    second = train(wildfire_env(6), f, h, seed=11)
    assert first.metrics.rows == second.metrics.rows
    assert first.final_record.terminal_rho == second.final_record.terminal_rho


def test_prefix_reward_final_step_equals_full_episode_robustness():
    f = rescue_formula()
    h = Hyperparams(xi=5, learning_rate=1.0)
    res = train(wildfire_env(6), f, h, seed=3)
    rec = res.final_record
    assert rec.rhos[-1] == rec.terminal_rho
    assert rec.terminal_rho == hq.eval_hyper(rec.traces, skolemize(f), h.config())


def test_metric_columns_per_environment():
    f = rescue_formula()
    res = train(wildfire_env(4), f, Hyperparams(xi=3), seed=1)
    assert res.metrics.columns == ["episode", "rho"]

    d = load_domino_file(hq.bundled("dominoes/k3_solvable.dom"))
    fp = hq.load_formula(hq.bundled("formulas/pcp_ab.hltl"))
    res = train(pcp_env(d, beta=4), fp, Hyperparams(xi=3), seed=1)
    assert res.metrics.columns == ["episode", "tot_done", "rho"]
    done = [row["tot_done"] for row in res.metrics.rows]
    assert done == sorted(done)  # cumulative


def test_greedy_rollout_untrained_takes_first_action():
    from hyperq.learner import PolicySet

    env = wildfire_env(5)
    sk = skolemize(rescue_formula())
    rec = greedy_rollout(PolicySet({}), env, sk, CFG, seed=0)
    assert rec.steps == 5
    assert all(a == ("stay", "stay") for a in rec.actions)
    assert len(rec.rhos) == rec.steps


def test_extracted_witnesses_consistent_with_final_rollout():
    f = rescue_formula()
    h = Hyperparams(xi=150, learning_rate=1.0)
    env = wildfire_env(6)
    res = train(env, f, h, seed=2)
    rec = res.final_record
    assignment = {q.var: t for q, t in zip(f.prefix, rec.traces)}
    assert check_consistency(assignment, res.witnesses) is True


def test_policy_rollout_reproduces_final_training_rollout():
    f = rescue_formula()
    h = Hyperparams(xi=120, learning_rate=1.0)
    env = wildfire_env(6)
    res = train(env, f, h, seed=4)
    replay = greedy_rollout(res.policies, env, skolemize(f), h.config(), seed=4)
    assert replay.actions == res.final_record.actions
    assert replay.terminal_rho == res.final_record.terminal_rho


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        Hyperparams(gamma=1.5)
    with pytest.raises(ValueError):
        Hyperparams(epsilon_start=0.2, epsilon_end=0.5)
    with pytest.raises(ValueError):
        Hyperparams(reward_mode="bogus")
    with pytest.raises(ValueError):
        Hyperparams(xi=0)
    for decay in (0, -5):
        with pytest.raises(ValueError):
            Hyperparams(epsilon_decay_episodes=decay)
