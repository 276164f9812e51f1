"""Independent reference implementations and random generators for tests.

The evaluator here is a direct recursive transcription of the semantic rules,
deliberately unshared with the package's dynamic-programming evaluator.
"""

from __future__ import annotations

import random

from hyperq.formula import (
    And,
    Always,
    BoolProp,
    Eventually,
    FalseNode,
    Formula,
    Implies,
    Next,
    Not,
    Or,
    Predicate,
    Quantifier,
    TraceVar,
    TrueNode,
    Until,
    children_of,
)
from hyperq.robustness import Label, Trace
from hyperq.worlds import GridWorldEnv, ResourceEnv, WildfireEnv


def naive_eval(z, lo, hi, node, cfg):
    """Plain recursion over the evaluation rules, no sharing or memoization."""
    rmax, rmin = cfg.rho_max, cfg.rho_min
    if lo >= hi:
        return rmin
    if isinstance(node, TrueNode):
        return rmax
    if isinstance(node, FalseNode):
        return rmin
    if isinstance(node, BoolProp):
        lab = z.columns[lo][node.trace.index - 1]
        return rmax if node.prop in lab.props else rmin
    if isinstance(node, Predicate):
        col = z.columns[lo]
        if node.abs_diff:
            v = abs(col[node.args[0].index - 1].value(node.valuation)
                    - col[node.args[1].index - 1].value(node.valuation))
        else:
            v = col[node.args[0].index - 1].value(node.valuation)
        if node.comparator == "=":
            return rmax if v == node.constant else rmin
        margin = node.constant - v if node.comparator == "<" else v - node.constant
        return min(rmax, max(rmin, margin))
    if isinstance(node, Not):
        return -naive_eval(z, lo, hi, node.child, cfg)
    if isinstance(node, And):
        return min(naive_eval(z, lo, hi, node.left, cfg), naive_eval(z, lo, hi, node.right, cfg))
    if isinstance(node, Or):
        return max(naive_eval(z, lo, hi, node.left, cfg), naive_eval(z, lo, hi, node.right, cfg))
    if isinstance(node, Implies):
        return max(-naive_eval(z, lo, hi, node.left, cfg), naive_eval(z, lo, hi, node.right, cfg))
    if isinstance(node, Next):
        return naive_eval(z, lo + 1, hi, node.child, cfg)
    if isinstance(node, Always):
        return min(naive_eval(z, i, hi, node.child, cfg) for i in range(lo, hi))
    if isinstance(node, Eventually):
        return max(naive_eval(z, i, hi, node.child, cfg) for i in range(lo, hi))
    if isinstance(node, Until):
        best = rmin
        for i in range(lo, hi):
            hold = naive_eval(z, i, hi, node.right, cfg)
            for j in range(lo, i):
                hold = min(hold, naive_eval(z, j, hi, node.left, cfg))
            best = max(best, hold)
        return best
    raise TypeError(node)


def signed_eval(z, lo, hi, node, cfg):
    """`naive_eval`'s rules, with each tie of 0.0 and -0.0 kept as the
    package's scalar folds keep it: & and | the right operand, -> the negated
    left one, and G, F and U the later position."""
    if lo >= hi:
        return cfg.rho_min
    if not children_of(node):
        return naive_eval(z, lo, hi, node, cfg)

    def at(child, i=lo):
        return signed_eval(z, i, hi, child, cfg)

    if isinstance(node, Not):
        return -at(node.child)
    if isinstance(node, And):
        x, y = at(node.left), at(node.right)
        return x if x < y else y
    if isinstance(node, Or):
        x, y = at(node.left), at(node.right)
        return x if x > y else y
    if isinstance(node, Implies):
        x, y = -at(node.left), at(node.right)
        return y if y > x else x
    if isinstance(node, Next):
        return at(node.child, lo + 1)
    if isinstance(node, (Always, Eventually)):
        acc = at(node.child, hi - 1)
        for i in range(hi - 2, lo - 1, -1):
            x = at(node.child, i)
            if (x < acc) if isinstance(node, Always) else (x > acc):
                acc = x
        return acc
    if isinstance(node, Until):
        acc = cfg.rho_min
        for i in range(hi - 1, lo - 1, -1):
            x = at(node.left, i)
            carry = x if x < acc else acc
            y = at(node.right, i)
            acc = y if y > carry else carry
        return acc
    raise TypeError(node)


def value_iteration(n_states, n_actions, transition, reward, gamma, sweeps=10000, tol=1e-12):
    """Tabular optimal action values for a known deterministic MDP."""
    q = [[0.0] * n_actions for _ in range(n_states)]
    for _ in range(sweeps):
        delta = 0.0
        for s in range(n_states):
            for a in range(n_actions):
                nxt = transition(s, a)
                target = reward(s, a) + gamma * max(q[nxt])
                delta = max(delta, abs(target - q[s][a]))
                q[s][a] = target
        if delta < tol:
            break
    return q


# ---------------------------------------------------------------------------
# Random instances

PROPS = ("p", "q", "r")
VALUATIONS = ("v", "w")


def random_boolean_body(rng: random.Random, depth: int, vars_: list):
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.1:
            return TrueNode()
        if roll < 0.15:
            return FalseNode()
        return BoolProp(rng.choice(PROPS), rng.choice(vars_))
    op = rng.choice(["not", "and", "or", "implies", "next", "eventually", "always", "until"])
    if op == "not":
        return Not(random_boolean_body(rng, depth - 1, vars_))
    if op == "next":
        return Next(random_boolean_body(rng, depth - 1, vars_))
    if op == "eventually":
        return Eventually(random_boolean_body(rng, depth - 1, vars_))
    if op == "always":
        return Always(random_boolean_body(rng, depth - 1, vars_))
    left = random_boolean_body(rng, depth - 1, vars_)
    right = random_boolean_body(rng, depth - 1, vars_)
    return {"and": And, "or": Or, "implies": Implies, "until": Until}[op](left, right)


def random_propositional(rng: random.Random, depth: int, vars_: list):
    """Boolean combinations of atoms only, no temporal operators."""
    if depth <= 0 or rng.random() < 0.4:
        return BoolProp(rng.choice(PROPS), rng.choice(vars_))
    op = rng.choice(["not", "and", "or", "implies"])
    if op == "not":
        return Not(random_propositional(rng, depth - 1, vars_))
    left = random_propositional(rng, depth - 1, vars_)
    right = random_propositional(rng, depth - 1, vars_)
    return {"and": And, "or": Or, "implies": Implies}[op](left, right)


def random_body(rng: random.Random, depth: int, vars_: list):
    """Like random_boolean_body but may also emit numeric predicates."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.3:
            name = rng.choice(VALUATIONS)
            comparator = rng.choice(["<", ">", "="])
            constant = float(rng.choice([-3, -1, 0, 1, 2, 5]))
            if rng.random() < 0.4 and len(vars_) >= 2:
                args = tuple(rng.sample(vars_, 2))
                return Predicate(name, args, comparator, abs(constant), abs_diff=True)
            return Predicate(name, (rng.choice(vars_),), comparator, constant)
        return random_boolean_body(rng, 0, vars_)
    return random_boolean_body(rng, depth, vars_) if rng.random() < 0.5 else {
        0: lambda: Not(random_body(rng, depth - 1, vars_)),
        1: lambda: And(random_body(rng, depth - 1, vars_), random_body(rng, depth - 1, vars_)),
        2: lambda: Until(random_body(rng, depth - 1, vars_), random_body(rng, depth - 1, vars_)),
        3: lambda: Eventually(random_body(rng, depth - 1, vars_)),
    }[rng.randrange(4)]()


def random_formula(rng: random.Random, max_depth=6, max_vars=4, boolean_only=False) -> Formula:
    n = rng.randint(1, max_vars)
    prefix = tuple(
        Quantifier(rng.choice(["forall", "exists"]), TraceVar(f"t{i + 1}", i + 1))
        for i in range(n))
    vars_ = [q.var for q in prefix]
    make = random_boolean_body if boolean_only else random_body
    return Formula(prefix, make(rng, rng.randint(1, max_depth), vars_))


def random_label(rng: random.Random, with_valuations=False) -> Label:
    props = frozenset(p for p in PROPS if rng.random() < 0.4)
    vals = {}
    if with_valuations:
        vals = {name: float(rng.randint(-4, 6)) for name in VALUATIONS}
    return Label(props, vals)


def random_trace(rng: random.Random, length: int, with_valuations=False) -> Trace:
    return Trace(tuple(random_label(rng, with_valuations) for _ in range(length)))


def reference_labels(env, state) -> tuple:
    """The labels of a grid world's state, built field by field from the
    state and the map alone, one fresh `Label` per slot."""
    cells = [(slot[0], slot[1]) for slot in state]
    labels = []
    for i, (slot, cell) in enumerate(zip(state, cells)):
        x, y = cell
        if isinstance(env, GridWorldEnv):
            props = {f"goal{k + 1}" for k, g in enumerate(env.grid.goals) if g == cell}
            if cells.count(cell) > 1:
                props.add("collision")
            gx, gy = env.grid.goals[i]
            vals = {"x": float(x), "y": float(y), "cell": float(x * env.grid.height + y),
                    "dist": float(abs(x - gx) + abs(y - gy))}
        elif isinstance(env, ResourceEnv):
            props = {"resource"} if slot[3] else set()
            vals = {"energy": float(slot[2]), "x": float(x), "y": float(y),
                    "cell": float(x * env.grid.height + y)}
        elif isinstance(env, WildfireEnv):
            name = env.cell_names[cell]
            props = {name, "fire"} if name in state[0][2] else {name}
            vals = {"loc": float(x * env.grid.height + y), "x": float(x), "y": float(y)}
        else:
            raise TypeError(f"no reference labels for {type(env).__name__}")
        labels.append(Label(frozenset(props), vals))
    return tuple(labels)
