import math
import random

import pytest

import hyperq as hq
import hyperq.robustness as robustness
from hyperq.formula import parse_formula
from hyperq.robustness import (
    EmptyInputError,
    Label,
    LengthMismatchError,
    Plan,
    PrefixEvaluator,
    RobustnessConfig,
    Trace,
    UnknownValuationError,
    Verdict,
    WindowOutOfRangeError,
    boolean_sat,
    eval_hyper,
    eval_ltl,
    sat_verdict,
    zip_traces,
)
from hyperq.skolem import skolemize

from oracles import naive_eval, random_boolean_body, random_formula, random_trace

CFG = RobustnessConfig()


def labels(*prop_sets):
    return Trace(tuple(Label(frozenset(ps), {}) for ps in prop_sets))


def val_trace(name, values):
    return Trace(tuple(Label(frozenset(), {name: float(v)}) for v in values))


def body_of(text):
    return parse_formula(text).body


# ---------------------------------------------------------------------------
# zip / ordered union

def test_zip_pointwise():
    z = zip_traces([labels({"p"}), labels({"q"})])
    assert z.arity == 2
    assert z.columns[0][0].props == {"p"}
    assert z.columns[0][1].props == {"q"}


def test_zip_single_trace():
    t = labels({"p"}, {"q"})
    z = zip_traces([t])
    assert [c[0] for c in z.columns] == list(t)


def test_zip_rejects_ragged():
    with pytest.raises(LengthMismatchError):
        zip_traces([labels({"p"}, set(), set()), labels({"q"}, set())])


def test_zip_rejects_empty():
    with pytest.raises(EmptyInputError):
        zip_traces([labels()])


def test_zip_projection_recovers_traces():
    rng = random.Random(7)
    ts = [random_trace(rng, 4) for _ in range(3)]
    z = zip_traces(ts)
    for k, t in enumerate(ts):
        assert [c[k] for c in z.columns] == list(t)


# ---------------------------------------------------------------------------
# eval_ltl basics

def test_eventually_at_first_position():
    z = zip_traces([labels({"p"}, set())])
    assert eval_ltl(z, (0, 2), body_of("forall t1. F p@t1"), CFG) == CFG.rho_max


def test_always_numeric_margin():
    z = zip_traces([val_trace("loc", [2, 4, 1])])
    rho = eval_ltl(z, (0, 3), body_of("forall t1. G [ loc@t1 < 5 ]"), CFG)
    assert rho == 1.0  # min(3, 1, 4)


def test_until_boolean_satisfaction():
    z = zip_traces([labels({"p"}, {"p"}, {"q"})])
    rho = eval_ltl(z, (0, 3), body_of("forall t1. p@t1 U q@t1"), CFG)
    assert rho == CFG.rho_max


def test_empty_window_is_minimum():
    z = zip_traces([labels({"p"})])
    assert eval_ltl(z, (1, 1), body_of("forall t1. p@t1"), CFG) == CFG.rho_min


def test_next_beyond_window_is_minimum():
    z = zip_traces([labels({"p"}, {"p"})])
    assert eval_ltl(z, (0, 2), body_of("forall t1. X X p@t1"), CFG) == CFG.rho_min


def test_window_out_of_range():
    z = zip_traces([labels({"p"})])
    with pytest.raises(WindowOutOfRangeError):
        eval_ltl(z, (0, 2), body_of("forall t1. p@t1"), CFG)


def test_unknown_valuation():
    z = zip_traces([labels({"p"})])
    with pytest.raises(UnknownValuationError):
        eval_ltl(z, (0, 1), body_of("forall t1. [ loc@t1 < 5 ]"), CFG)


@pytest.mark.parametrize("text", ["forall t1. [ loc@t1 < 5 ]",
                                  "forall t1. forall t2. G [ |loc@t1 - loc@t2| < 5 ]"])
def test_kernel_raises_unknown_valuation(text):
    # the generated kernel turns a missing valuation into the package's
    # error, in a first update and in a later one alike
    f = parse_formula(text)
    arity = len(f.prefix)
    with pytest.raises(UnknownValuationError) as first:
        eval_ltl(zip_traces([labels({"p"})] * arity), (0, 1), f.body, CFG)
    assert first.type is UnknownValuationError and first.value.args == ("loc",)
    evaluator = PrefixEvaluator(Plan(f.body), arity, CFG)
    good = tuple(Label(frozenset(), {"loc": 1.0}) for _ in range(arity))
    evaluator.update([good])
    with pytest.raises(UnknownValuationError) as later:
        evaluator.update([good, (Label(),) * arity], 1)
    assert later.type is UnknownValuationError and later.value.args == ("loc",)


@pytest.mark.parametrize("text", ["forall t1. F G [ loc@t1 < 5 ]",
                                  "forall t1. forall t2. p@t1 U [ |loc@t1 - loc@t2| < 5 ]"])
def test_roots_raise_unknown_valuation(text):
    # a labelled world's step keys are the roots' values at each column,
    # computed when its state is first met: a valuation the labels lack is
    # the package's error there too, so `train` and `eval` exit 2
    f = parse_formula(text)
    arity = len(f.prefix)
    roots = Plan(f.body).program(arity, CFG).roots
    good = tuple(Label(frozenset(), {"loc": 1.0}) for _ in range(arity))
    assert len(roots(good)) == len(Plan(f.body).roots)
    with pytest.raises(UnknownValuationError) as caught:
        roots((Label(),) * arity)
    assert caught.type is UnknownValuationError and caught.value.args == ("loc",)


def test_plans_of_one_formula_share_one_compiled_kernel():
    # eval skolemizes anew, so its plan must not compile the kernel again
    path = hq.bundled("formulas/pcp_ab.hltl")
    first, second = (skolemize(hq.load_formula(path)).plan for _ in range(2))
    assert first is not second
    programs = [plan.program(2, CFG) for plan in (first, second)]
    assert programs[0] is not programs[1]
    assert programs[0].__code__ is programs[1].__code__


def test_a_plan_of_a_shape_met_before_generates_no_source(monkeypatch):
    # the compiled program is found by the plan's shape (step types,
    # operands, and each atom's slots and predicate form) before any source
    # is generated; the props, valuations and constants are each plan's own
    monkeypatch.setattr(robustness, "_MAKES", {})   # no shape met yet
    first = Plan(body_of("forall t1. forall t2. G [ v@t1 < 3 ] & F p@t2"))
    first.program(2, CFG)
    sources = []
    source = robustness._kernel_source
    monkeypatch.setattr(robustness, "_kernel_source",
                        lambda *args: sources.append(args) or source(*args))
    second = Plan(body_of("forall t1. forall t2. G [ w@t1 < 7 ] & F q@t2"))
    assert second.shape == first.shape
    assert second.program(2, CFG).__code__ is first.program(2, CFG).__code__ and not sources
    column = (Label(frozenset({"p"}), {"v": 1.0, "w": 5.0}), Label(frozenset({"q"}), {}))
    assert [PrefixEvaluator(plan, 2, CFG).update([column]) for plan in (first, second)] == [
        -100.0, 2.0]
    Plan(body_of("forall t1. forall t2. G [ v@t1 > 3 ] & F p@t2")).program(2, CFG)
    assert len(sources) == 1    # another comparator is another shape


def test_memo_of_boolean_columns_stays_within_its_bound():
    # every column carries a prop the formula never reads, so no column
    # repeats: the memo starts afresh at 2 ** 2 entries, the columns that
    # p and q tell apart
    f = parse_formula("forall t1. forall t2. p@t1 U q@t2")
    plan = Plan(f.body)
    evaluator = PrefixEvaluator(plan, 2, CFG)
    memo = plan.program(2, CFG).memo
    rng = random.Random(9)
    columns = []
    for k in range(40):
        columns.append(tuple(Label(frozenset(rng.sample(["p", "q"], rng.randint(0, 2)))
                                   | {f"unread{k}"}) for _ in range(2)))
        rho = evaluator.update(columns, len(columns) - 1)
        assert rho == naive_eval(zip_traces(zip(*columns)), 0, len(columns), f.body, CFG)
        assert 0 < len(memo) <= 4


def test_programs_of_one_shape_keep_their_own_memo():
    # the two formulas differ in their props alone, so their programs share
    # one compiled code object, but each keeps the values of its own props
    first, second = (Plan(body_of(f"forall t1. {a}@t1 U {b}@t1")) for a, b in (("p", "q"),
                                                                                ("q", "p")))
    programs = [plan.program(1, CFG) for plan in (first, second)]
    assert programs[0].__code__ is programs[1].__code__
    assert programs[0].memo is not programs[1].memo
    column = [(Label(frozenset({"p"})),)]
    for _ in range(2):
        assert PrefixEvaluator(first, 1, CFG).update(column) == CFG.rho_min
        assert PrefixEvaluator(second, 1, CFG).update(column) == CFG.rho_max


def test_only_plans_reading_boolean_atoms_alone_keep_a_memo():
    # safe_rl, fairness and rescue read predicates, whose margins may be
    # -0.0 and whose valuations no props key holds
    for name in ("pcp_ab", "safe_rl", "fairness", "rescue"):
        sk = skolemize(hq.load_formula(hq.bundled(f"formulas/{name}.hltl")))
        assert hasattr(sk.plan.program(sk.arity, CFG), "memo") == (name == "pcp_ab"), name


def test_pcp_program_is_one_kernel_and_five_operator_steps():
    plan = skolemize(hq.load_formula(hq.bundled("formulas/pcp_ab.hltl"))).plan
    program = plan.program(2, CFG)
    # the four temporal steps are the program's step functions, & is inline
    assert callable(program) and program is plan.program(2, CFG)
    assert sorted(name for name in program.__code__.co_freevars
                  if name.startswith("t")) == ["t0", "t1", "t2", "t3"]
    assert sorted(type(node).__name__ for (node, _), fused in zip(plan.steps, plan.fused)
                  if not fused) == ["Always", "And", "Until", "Until", "Until"]


def test_equality_predicate_is_boolean_valued():
    z = zip_traces([val_trace("c", [3, 4])])
    assert eval_ltl(z, (0, 2), body_of("forall t1. [ c@t1 = 3 ]"), CFG) == CFG.rho_max
    assert eval_ltl(z, (0, 2), body_of("forall t1. X [ c@t1 = 3 ]"), CFG) == CFG.rho_min


def test_margins_clamp_to_bounds():
    z = zip_traces([val_trace("v", [0])])
    assert eval_ltl(z, (0, 1), body_of("forall t1. [ v@t1 < 1000 ]"), CFG) == CFG.rho_max
    assert eval_ltl(z, (0, 1), body_of("forall t1. [ v@t1 > 1000 ]"), CFG) == CFG.rho_min


# ---------------------------------------------------------------------------
# algebra properties

def _random_cases(n, length=5, arity=1, depth=4, seed=13):
    rng = random.Random(seed)
    for _ in range(n):
        traces = [random_trace(rng, length) for _ in range(arity)]
        f = random_formula(rng, max_depth=depth, max_vars=arity, boolean_only=True)
        yield zip_traces(traces), f.body


def test_negation_antisymmetry_exact():
    from hyperq.formula import Not

    for z, body in _random_cases(500):
        assert eval_ltl(z, (0, len(z)), Not(body), CFG) == -eval_ltl(z, (0, len(z)), body, CFG)


def test_conjunction_is_min_disjunction_is_max():
    from hyperq.formula import And, Or

    rng = random.Random(5)
    for _ in range(500):
        z = zip_traces([random_trace(rng, 4)])
        a = random_boolean_body(rng, 3, [hq.TraceVar("t1", 1)])
        b = random_boolean_body(rng, 3, [hq.TraceVar("t1", 1)])
        win = (0, len(z))
        va, vb = eval_ltl(z, win, a, CFG), eval_ltl(z, win, b, CFG)
        assert eval_ltl(z, win, And(a, b), CFG) == min(va, vb)
        assert eval_ltl(z, win, Or(a, b), CFG) == max(va, vb)


def test_eventually_monotone_always_antitone_in_window():
    # window monotonicity holds for propositional operands; a nested temporal
    # operand can change value as the window end moves
    from hyperq.formula import Always, Eventually

    from oracles import random_propositional

    rng = random.Random(11)
    for _ in range(500):
        z = zip_traces([random_trace(rng, 6)])
        child = random_propositional(rng, 2, [hq.TraceVar("t1", 1)])
        f_vals = [eval_ltl(z, (0, k), Eventually(child), CFG) for k in range(1, 7)]
        g_vals = [eval_ltl(z, (0, k), Always(child), CFG) for k in range(1, 7)]
        assert all(a <= b for a, b in zip(f_vals, f_vals[1:]))
        assert all(a >= b for a, b in zip(g_vals, g_vals[1:]))


def test_outputs_bounded():
    rng = random.Random(3)
    for z, body in _random_cases(300, seed=3):
        rho = eval_ltl(z, (0, len(z)), body, CFG)
        assert CFG.rho_min <= rho <= CFG.rho_max


def test_boolean_bodies_saturate():
    for z, body in _random_cases(300, seed=17):
        rho = eval_ltl(z, (0, len(z)), body, CFG)
        assert rho in (CFG.rho_min, CFG.rho_max)


def test_matches_naive_recursive_evaluator():
    rng = random.Random(23)
    for _ in range(300):
        arity = rng.randint(1, 2)
        length = rng.randint(1, 5)
        traces = [random_trace(rng, length, with_valuations=True) for _ in range(arity)]
        f = random_formula(rng, max_depth=4, max_vars=arity)
        z = zip_traces(traces)
        lo = rng.randint(0, length)
        assert eval_ltl(z, (lo, length), f.body, CFG) == naive_eval(z, lo, length, f.body, CFG)


def test_signed_zero_ties_follow_scalar_folds():
    # a zero margin and its negation tie; the kept zero's sign is that of a
    # scalar fold: & | keep the right operand, -> the negated left one, and
    # G F U the later position (a right-to-left fold replaces only on a strict
    # improvement)
    z = zip_traces([Trace((Label(frozenset({"p"}), {"v": 1.0}), Label(frozenset(), {"v": 1.0})))])
    zero = "[ v@t1 < 1 ]"                                  # +0.0 at both positions
    c = f"((p@t1 & {zero}) | (!p@t1 & !{zero}))"           # +0.0, then -0.0

    def sign(text):
        rho = eval_ltl(z, (0, 2), body_of(f"forall t1. {text}"), CFG)
        assert rho == 0.0
        return math.copysign(1.0, rho)

    assert sign(f"{zero} & !{zero}") == -1.0
    assert sign(f"!{zero} & {zero}") == 1.0
    assert sign(f"{zero} | !{zero}") == -1.0
    assert sign(f"!{zero} -> !{zero}") == 1.0
    assert sign(f"{zero} -> {zero}") == -1.0
    assert sign(f"G {c}") == -1.0
    assert sign(f"F {c}") == -1.0
    assert sign(f"true U {c}") == -1.0
    assert sign(f"X {c}") == -1.0
    assert sign(c) == 1.0


# ---------------------------------------------------------------------------
# hyper-level evaluation

def test_eval_hyper_universal_pair():
    f = parse_formula("forall t1. forall t2. F p@t1 & F q@t2")
    rho = eval_hyper([labels({"p"}, set()), labels(set(), {"q"})], skolemize(f), CFG)
    assert rho == CFG.rho_max


def test_eval_hyper_routes_witness_atoms_by_slot():
    f = parse_formula("forall t1. exists t2. G q@t2")
    sk = skolemize(f)
    assert eval_hyper([labels({"q"}), labels({"q"})], sk, CFG) == CFG.rho_max
    assert eval_hyper([labels({"q"}), labels(set())], sk, CFG) == CFG.rho_min


def test_eval_hyper_rejects_wrong_arity():
    f = parse_formula("forall t1. exists t2. F p@t1 & F p@t2")
    with pytest.raises(LengthMismatchError):
        eval_hyper([labels({"p"})], skolemize(f), CFG)


# ---------------------------------------------------------------------------
# Boolean oracle

def test_boolean_sat_exists():
    f = parse_formula("exists t1. p@t1")
    assert boolean_sat([labels({"p"})], f) is True


def test_boolean_sat_forall_fails_on_mixed_set():
    f = parse_formula("forall t1. p@t1")
    assert boolean_sat([labels({"p"}), labels(set())], f) is False


def test_boolean_sat_alternation():
    f = parse_formula("forall t1. exists t2. F p@t1 -> F q@t2")
    good = [labels({"p"}, set()), labels(set(), {"q"})]
    assert boolean_sat(good, f) is True
    bad = [labels({"p"}, set()), labels(set(), set())]
    assert boolean_sat(bad, f) is False


def test_boolean_matches_robustness_sign_small_fuzz():
    rng = random.Random(31)
    for _ in range(200):
        f = random_formula(rng, max_depth=4, max_vars=2, boolean_only=True)
        length = rng.randint(1, 5)
        traces = [random_trace(rng, length) for _ in range(rng.randint(1, 3))]
        assert boolean_sat(traces, f) == (_quantified_robustness(traces, f) == CFG.rho_max)
    # with predicates over valuations (<, >, = and |a - b|): wherever the
    # robustness is not zero, its sign is the Boolean verdict
    signed = 0
    for _ in range(3000):
        f = random_formula(rng, max_depth=4, max_vars=2)
        length = rng.randint(1, 5)
        traces = [random_trace(rng, length, with_valuations=True)
                  for _ in range(rng.randint(1, 3))]
        value = _quantified_robustness(traces, f)
        if value != 0:
            assert boolean_sat(traces, f) == (value > 0), (f, traces)
            signed += 1
    assert signed > 2900


def _quantified_robustness(traces, f):
    sk = skolemize(f)

    def go(level, chosen):
        if level == len(f.prefix):
            return eval_hyper(chosen, sk, CFG)
        vals = (go(level + 1, chosen + [t]) for t in traces)
        return max(vals) if f.prefix[level].kind == "exists" else min(vals)

    return go(0, [])


# ---------------------------------------------------------------------------
# verdicts and serialization

def test_sat_verdict_thresholds():
    assert sat_verdict(CFG.rho_max, CFG) is Verdict.SATISFIED
    assert sat_verdict(-CFG.rho_max, CFG) is Verdict.VIOLATED
    assert sat_verdict(0.0, CFG) is Verdict.BORDERLINE


def test_trace_text_round_trip():
    rng = random.Random(41)
    for _ in range(50):
        t = random_trace(rng, rng.randint(0, 5), with_valuations=True)
        assert Trace.from_text(t.to_text()) == t


def test_config_requires_positive_bound():
    with pytest.raises(ValueError):
        RobustnessConfig(0.0)
