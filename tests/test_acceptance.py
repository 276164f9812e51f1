"""End-to-end acceptance suite.

Each test prints one PASS line when its criterion holds; training-based
criteria load the bundled experiment configs so the suite exercises exactly
what ships.  The full module takes roughly ten minutes of CPU time.
"""

import itertools
import random
import time

import pytest

import hyperq as hq
from hyperq.formula import And, BoolProp, Eventually, Formula, Not, Or, Quantifier, TraceVar
from hyperq.harness import ExperimentConfig, cmd_train
from hyperq.learner import Hyperparams, train
from hyperq.robustness import RobustnessConfig, boolean_holds, boolean_sat, eval_hyper, eval_ltl, zip_traces
from hyperq.skolem import skolemize
from hyperq.worlds import concat_words, load_domino_file, pcp_env, pcp_oracle

from oracles import random_boolean_body, random_formula, random_propositional, random_trace

CFG = RobustnessConfig()


def _quantified_value(traces, f, sk):
    def go(level, chosen):
        if level == len(f.prefix):
            return eval_hyper(chosen, sk, CFG)
        vals = (go(level + 1, chosen + [t]) for t in traces)
        return max(vals) if f.prefix[level].kind == "exists" else min(vals)

    return go(0, [])


def test_criterion_1_boolean_equivalence():
    started = time.perf_counter()
    rng = random.Random(109)
    checked = 0
    while checked < 1000:
        f = random_formula(rng, max_depth=4, max_vars=2, boolean_only=True)
        length = rng.randint(1, 5)
        traces = [random_trace(rng, length) for _ in range(rng.randint(1, 3))]
        sk = skolemize(f)
        robust = _quantified_value(traces, f, sk) == CFG.rho_max
        assert boolean_sat(traces, f) == robust
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"\ncriterion 1 (boolean equivalence): PASS - {checked} instances agree exactly "
          f"({elapsed:.1f}s)")


def test_criterion_2_robustness_algebra():
    started = time.perf_counter()
    rng = random.Random(211)
    var = [TraceVar("t1", 1)]
    for _ in range(500):
        z = zip_traces([random_trace(rng, rng.randint(1, 6))])
        win = (0, len(z))
        a = random_boolean_body(rng, 3, var)
        b = random_boolean_body(rng, 3, var)
        va, vb = eval_ltl(z, win, a, CFG), eval_ltl(z, win, b, CFG)
        assert eval_ltl(z, win, Not(a), CFG) == -va
        assert eval_ltl(z, win, And(a, b), CFG) == min(va, vb)
        assert eval_ltl(z, win, Or(a, b), CFG) == max(va, vb)
        assert CFG.rho_min <= va <= CFG.rho_max
    for _ in range(500):
        z = zip_traces([random_trace(rng, 6)])
        child = random_propositional(rng, 2, var)
        vals = [eval_ltl(z, (0, k), Eventually(child), CFG) for k in range(1, 7)]
        assert all(x <= y for x, y in zip(vals, vals[1:]))
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"criterion 2 (robustness algebra): PASS - antisymmetry, min/max, monotonicity, "
          f"bounds on 500 cases each ({elapsed:.1f}s)")


def test_criterion_3_skolemization():
    from hyperq.formula import SkolemRef, atoms_of, parse_formula
    from hyperq.skolem import dependency_sets

    for kinds in itertools.product(["forall", "exists"], repeat=4):
        prefix = " ".join(f"{k} t{i + 1}." for i, k in enumerate(kinds))
        body = " & ".join(f"p@t{i + 1}" for i in range(4))
        f = parse_formula(f"{prefix} {body}")
        expected = {i + 1: [j + 1 for j in range(i) if kinds[j] == "forall"]
                    for i in range(4) if kinds[i] == "exists"}
        assert dependency_sets(f) == expected

    rescue = hq.load_formula(hq.bundled("formulas/rescue.hltl"))
    sk = skolemize(rescue)
    assert [(d.exist_index, d.deps) for d in sk.decls] == [(2, (1,))]
    assert [v.index for v in sk.universal_vars] == [1]
    for atom in atoms_of(sk.body):
        for target in (atom.trace,) if isinstance(atom, BoolProp) else atom.args:
            assert isinstance(target, SkolemRef) == (target.index == 2)
    print("criterion 3 (skolemization): PASS - 16 prefixes exhaustively checked, "
          "rescue formula produces one witness declaration over the universal trace")


def test_criterion_4_wildfire_end_to_end():
    started = time.perf_counter()
    cfg = ExperimentConfig.load(hq.bundled("configs/wildfire.ini"))
    assert cfg.hyperparams.xi <= 5000 and cfg.hyperparams.gamma == 0.99
    f = cfg.load_formula()
    sk = skolemize(f)

    env = cfg.make_env()
    p1 = env.path_trace(list("adefcfi"))
    p2 = env.path_trace(list("adghef") + ["f"])
    assert hq.sat_verdict(eval_hyper([p1, p2], sk, cfg.hyperparams.config()),
                          cfg.hyperparams.config()) is hq.Verdict.SATISFIED

    satisfied = 0
    for seed in cfg.seeds:
        result = train(cfg.make_env(), f, cfg.hyperparams, seed)
        verdict = hq.sat_verdict(result.final_record.terminal_rho, cfg.hyperparams.config())
        satisfied += verdict is hq.Verdict.SATISFIED
    elapsed = time.perf_counter() - started
    assert satisfied >= 8, f"only {satisfied}/10 seeds satisfied"
    assert elapsed < 300.0
    print(f"criterion 4 (wildfire end-to-end): PASS - {satisfied}/10 seeds satisfied, "
          f"fixed optimal-path case satisfied ({elapsed:.0f}s)")


def test_criterion_5_safe_rl_desk_scale():
    started = time.perf_counter()
    cfg = ExperimentConfig.load(hq.bundled("configs/safe-rl-4x4.ini"))
    base_cfg = ExperimentConfig.load(hq.bundled("configs/safe-rl-4x4-baseline.ini"))
    f = cfg.load_formula()

    good = 0
    robust_tail = 0
    tail = max(1, cfg.hyperparams.xi // 10)
    for seed in cfg.seeds:
        env = cfg.make_env()
        result = train(env, f, cfg.hyperparams, seed)
        stats = env.episode_stats(result.final_record)
        if stats["done"] and stats["collisions"] == 0:
            good += 1
        rows = result.metrics.rows
        robust_tail += rows[-1]["total_done"] - rows[-tail - 1]["total_done"]

    baseline_tail = 0
    for seed in base_cfg.seeds:
        env = base_cfg.make_env()
        result = train(env, f, base_cfg.hyperparams, seed)
        rows = result.metrics.rows
        baseline_tail += rows[-1]["total_done"] - rows[-tail - 1]["total_done"]

    elapsed = time.perf_counter() - started
    assert good >= 8, f"only {good}/10 seeds reached both goals without collisions"
    assert baseline_tail <= robust_tail, (baseline_tail, robust_tail)
    assert elapsed < 600.0
    print(f"criterion 5 (safe grid desk scale): PASS - {good}/10 seeds, final-10% successes "
          f"{robust_tail} vs baseline {baseline_tail} ({elapsed:.0f}s)")


def test_criterion_6_pcp():
    started = time.perf_counter()
    cfg = ExperimentConfig.load(hq.bundled("configs/pcp-k3.ini"))
    dominoes = load_domino_file(hq.bundled("dominoes/k3_solvable.dom"))
    solution = pcp_oracle(dominoes, 5)
    assert solution is not None and len(solution) <= 5
    top, bot = concat_words(dominoes, solution)
    assert top == bot

    f = cfg.load_formula()
    assert cfg.hyperparams.xi == 1000
    found = 0
    for seed in cfg.seeds:
        env = cfg.make_env()
        result = train(env, f, cfg.hyperparams, seed)
        matched = result.metrics.rows[-1]["tot_done"]
        if matched > 0:
            found += 1

    unsolvable = load_domino_file(hq.bundled("dominoes/k3_unsolvable.dom"))
    assert pcp_oracle(unsolvable, 8) is None
    false_matches = 0
    h = Hyperparams(xi=150, learning_rate=cfg.hyperparams.learning_rate,
                    epsilon_decay_episodes=100, epsilon_end=0.2, beta=10)
    for seed in cfg.seeds[:5]:
        env = pcp_env(unsolvable, beta=10)
        result = train(env, f, h, seed)
        false_matches += result.metrics.rows[-1]["tot_done"]

    elapsed = time.perf_counter() - started
    assert found >= 8, f"only {found}/10 seeds found a verified match"
    assert false_matches == 0
    assert elapsed < 600.0
    print(f"criterion 6 (domino matching): PASS - {found}/10 seeds found certified matches, "
          f"0 false matches on the unsolvable set ({elapsed:.0f}s)")


def test_criterion_7_fairness():
    started = time.perf_counter()
    cfg = ExperimentConfig.load(hq.bundled("configs/fairness-4x4.ini"))
    f = cfg.load_formula()
    need = 0.6 * (cfg.make_env().beta / 2)

    ok = 0
    for seed in cfg.seeds:
        env = cfg.make_env()
        result = train(env, f, cfg.hyperparams, seed)
        tail = result.metrics.rows[-10:]
        mean_min = sum(r["min"] for r in tail) / len(tail)
        mean_max = sum(r["max"] for r in tail) / len(tail)
        if mean_max - mean_min < 10.0 and mean_min >= need:
            ok += 1

    elapsed = time.perf_counter() - started
    assert ok >= 8, f"only {ok}/10 seeds allocate fairly"
    assert elapsed < 600.0
    print(f"criterion 7 (fair allocation): PASS - {ok}/10 seeds with balanced allocations "
          f">= {need:.0f} each ({elapsed:.0f}s)")


def test_criterion_8_skolemized_optimum_is_original_optimum():
    started = time.perf_counter()
    # three-state world: action 0 moves start -> p-state, action 1 -> q-state
    transitions = {(0, 0): 1, (0, 1): 2, (1, 0): 1, (1, 1): 1, (2, 0): 2, (2, 1): 2}
    labels = {0: frozenset(), 1: frozenset({"p"}), 2: frozenset({"q"})}

    def rollout(policy, steps=3):
        s, out = 0, [labels[0]]
        for _ in range(steps):
            s = transitions[(s, policy[s])]
            out.append(labels[s])
        return hq.Trace(tuple(hq.Label(props, {}) for props in out))

    policies = list(itertools.product((0, 1), repeat=3))  # one action per state
    t1, t2 = TraceVar("t1", 1), TraceVar("t2", 2)
    formulas = [
        Formula((Quantifier("forall", t1), Quantifier("exists", t2)),
                And(Eventually(BoolProp("p", t1)), Eventually(BoolProp("q", t2)))),
        Formula((Quantifier("forall", t1), Quantifier("exists", t2)),
                And(Eventually(BoolProp("p", t1)), Not(Eventually(BoolProp("p", t2))))),
    ]
    for f in formulas:
        sk = skolemize(f)
        sk_winners = set()
        orig_winners = set()
        for pol1, pol2 in itertools.product(policies, repeat=2):
            traces = [rollout(dict(enumerate(pol1))), rollout(dict(enumerate(pol2)))]
            if eval_hyper(traces, sk, CFG) == CFG.rho_max:
                sk_winners.add((pol1, pol2))
            if boolean_holds(traces, f.body):
                orig_winners.add((pol1, pol2))
        assert sk_winners == orig_winners
        assert sk_winners  # the optimum is attainable
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"criterion 8 (rewriting preserves optima): PASS - argmax sets identical over "
          f"{len(policies) ** 2} policy tuples for 2 formulas ({elapsed:.1f}s)")


def test_criterion_9_training_determinism(tmp_path):
    formulas = hq.bundled("formulas")
    config = tmp_path / "repeat.ini"
    config.write_text(f"""
[experiment]
formula = {formulas}/rescue.hltl
repetitions = 2
base_seed = 17
output_dir = {tmp_path / "first"}

[environment]
kind = wildfire
beta = 6

[hyperparams]
xi = 40
learning_rate = 0.7
epsilon_decay_episodes = 20
""")
    assert cmd_train(config) == 0
    first = {p.name: p.read_bytes() for p in sorted((tmp_path / "first").glob("*.csv"))}
    assert cmd_train(config, out=str(tmp_path / "second")) == 0
    second = {p.name: p.read_bytes() for p in sorted((tmp_path / "second").glob("*.csv"))}
    assert first and first == second
    print("criterion 9 (determinism): PASS - repeated runs produce byte-identical CSVs")
