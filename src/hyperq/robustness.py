"""Quantitative and Boolean semantics of temporal bodies over finite traces.

The quantitative evaluator assigns a bounded real robustness value to a
bundled (zipped) trace: Boolean atoms saturate at +/-rho_max, numeric
predicates contribute their clamped margin, negation flips sign, conjunction
and disjunction take min and max, and the temporal operators fold min/max
over trace positions.  Evaluating past the end of a window yields rho_min.

A body is compiled once into a `Plan`, one step per distinct subformula in
post-order.  A `PrefixEvaluator` runs the plan over float64 arrays, one value
per position and subformula, as online robust monitors keep per-subformula
signals (Donze, Ferrere and Maler, CAV 2013).  It keeps each atom's values
between calls, so an episode's growing prefix is scored after every step by
recomputing atoms only from the lowest position that changed; operators are
recomputed over the whole prefix.  `eval_ltl` and `eval_hyper` are one-shot
uses of the same evaluator.

A separate Boolean evaluator implements the positional satisfaction relation
directly (with explicit quantifier enumeration over a finite trace set) and
serves as an independent oracle: for formulas whose atoms are all Boolean,
robustness equals rho_max exactly when the Boolean relation holds.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .formula import (
    EXISTS,
    And,
    Always,
    BoolProp,
    Eventually,
    FalseNode,
    Formula,
    Implies,
    LtlNode,
    Next,
    Not,
    Or,
    Predicate,
    TrueNode,
    Until,
    children_of,
)


class LengthMismatchError(ValueError):
    pass


class EmptyInputError(ValueError):
    pass


class WindowOutOfRangeError(ValueError):
    pass


class UnknownValuationError(KeyError):
    pass


# ---------------------------------------------------------------------------
# Labels and traces

@dataclass
class Label:
    """Observation of one trace position: propositions plus numeric valuations."""

    props: frozenset = frozenset()
    valuations: dict = field(default_factory=dict)

    def value(self, name: str) -> float:
        try:
            return self.valuations[name]
        except KeyError:
            raise UnknownValuationError(name) from None


def _format_value(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


@dataclass
class Trace:
    """A finite sequence of labels; the empty trace is permitted."""

    labels: tuple = ()

    def __post_init__(self):
        self.labels = tuple(self.labels)

    def __len__(self):
        return len(self.labels)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Trace(self.labels[i])
        return self.labels[i]

    def __iter__(self):
        return iter(self.labels)

    def prefix(self, length: int) -> "Trace":
        return Trace(self.labels[:length])

    def to_text(self) -> str:
        """One position per line: `props | key=value,...`."""
        lines = []
        for lab in self.labels:
            props = " ".join(sorted(lab.props))
            vals = ",".join(f"{k}={_format_value(v)}" for k, v in sorted(lab.valuations.items()))
            lines.append(f"{props} | {vals}".strip())
        return "\n".join(lines)

    @staticmethod
    def from_text(text: str) -> "Trace":
        labels = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            props_part, _, vals_part = line.partition("|")
            props = frozenset(props_part.split())
            vals = {}
            for item in vals_part.strip().split(","):
                if item:
                    k, _, v = item.partition("=")
                    vals[k.strip()] = float(v)
            labels.append(Label(props, vals))
        return Trace(tuple(labels))


@dataclass
class ZippedTrace:
    """Point-wise bundle of equally long traces: one tuple of labels per position."""

    columns: tuple
    arity: int

    def __len__(self):
        return len(self.columns)


def zip_traces(traces) -> ZippedTrace:
    """Bundle traces position-wise; they must be nonempty and equally long."""
    traces = list(traces)
    if not traces or any(len(t) == 0 for t in traces):
        raise EmptyInputError("zip requires at least one nonempty trace per slot")
    lengths = {len(t) for t in traces}
    if len(lengths) != 1:
        raise LengthMismatchError(f"traces have differing lengths {sorted(lengths)}")
    return ZippedTrace(tuple(zip(*traces)), arity=len(traces))


# ---------------------------------------------------------------------------
# Robustness configuration and verdicts

@dataclass(frozen=True)
class RobustnessConfig:
    rho_max: float = 100.0

    def __post_init__(self):
        if not (self.rho_max > 0 and math.isfinite(self.rho_max)):
            raise ValueError(f"rho_max must be positive and finite, got {self.rho_max}")

    @property
    def rho_min(self) -> float:
        return -self.rho_max


class Verdict(enum.Enum):
    SATISFIED = "satisfied"
    VIOLATED = "violated"
    BORDERLINE = "borderline"


def sat_verdict(rho: float, cfg: RobustnessConfig) -> Verdict:
    """Sign-based verdict.

    For purely Boolean bodies robustness is exactly +/-rho_max, so a positive
    value coincides with reaching absolute robustness; for numeric predicates
    the sign of the margin decides.
    """
    if rho > 0:
        return Verdict.SATISFIED
    if rho < 0:
        return Verdict.VIOLATED
    return Verdict.BORDERLINE


# ---------------------------------------------------------------------------
# Quantitative evaluation

def _slot_of(target, arity: int) -> int:
    idx = target.index
    if not 1 <= idx <= arity:
        raise WindowOutOfRangeError(f"atom target index {idx} outside bundle of arity {arity}")
    return idx - 1


def _atom_function(node, arity: int, cfg: RobustnessConfig):
    """Function from a run of columns to the atom's robustness at each."""
    rmax, rmin = cfg.rho_max, cfg.rho_min
    if isinstance(node, TrueNode):
        return lambda cols: [rmax] * len(cols)
    if isinstance(node, FalseNode):
        return lambda cols: [rmin] * len(cols)
    if isinstance(node, BoolProp):
        slot, prop = _slot_of(node.trace, arity), node.prop
        return lambda cols: [rmax if prop in col[slot].props else rmin for col in cols]
    slots = [_slot_of(a, arity) for a in node.args]
    name, constant, comparator = node.valuation, node.constant, node.comparator
    abs_diff = node.abs_diff

    def values(cols):
        out = []
        for col in cols:
            if abs_diff:
                v = abs(col[slots[0]].value(name) - col[slots[1]].value(name))
            else:
                v = col[slots[0]].value(name)
            if comparator == "=":
                out.append(rmax if v == constant else rmin)
            else:
                margin = constant - v if comparator == "<" else v - constant
                out.append(min(rmax, max(rmin, margin)))
        return out

    return values


def _suffix(ufunc, c):
    """Suffix minimum or maximum of `c`.

    Among equal values the later position's wins, as in a right-to-left fold
    that replaces its accumulator only on a strict improvement; that decides
    the sign when 0.0 and -0.0 tie.  The result is monotone, so a zero can
    only occur when its two ends do not share a strict sign.
    """
    out = ufunc.accumulate(c[::-1])[::-1]
    if out[0] * out[-1] <= 0.0:
        zero = out == 0.0
        if zero.any():
            out[zero] = c[np.flatnonzero(c == 0.0)[-1]]
    return out


def _until(lvals, rvals, rmin: float):
    out = lvals.tolist()
    rs = rvals.tolist()
    acc = rmin  # no witness position yet
    for i in range(len(out) - 1, -1, -1):
        lv = out[i]
        carry = lv if lv < acc else acc
        rv = rs[i]
        acc = rv if rv > carry else carry
        out[i] = acc
    return np.array(out)


def _next(cvals, rmin: float):
    out = np.empty_like(cvals)
    out[:-1] = cvals[1:]
    out[-1] = rmin
    return out


def _operator(node, kids):
    """Function from the list of step arrays and rho_min to this operator's
    array.

    On a tie of 0.0 and -0.0, numpy's minimum and maximum return their
    second argument, so & and | keep the right operand and -> the negated
    left one, as a scalar `a if a < b else b` does.
    """
    a = kids[0]
    if isinstance(node, Not):
        return lambda v, rmin: np.negative(v[a])
    if isinstance(node, Next):
        return lambda v, rmin: _next(v[a], rmin)
    if isinstance(node, Always):
        return lambda v, rmin: _suffix(np.minimum, v[a])
    if isinstance(node, Eventually):
        return lambda v, rmin: _suffix(np.maximum, v[a])
    b = kids[1]
    if isinstance(node, And):
        return lambda v, rmin: np.minimum(v[a], v[b])
    if isinstance(node, Or):
        return lambda v, rmin: np.maximum(v[a], v[b])
    if isinstance(node, Implies):
        return lambda v, rmin: np.maximum(v[b], np.negative(v[a]))
    if isinstance(node, Until):
        return lambda v, rmin: _until(v[a], v[b], rmin)
    raise TypeError(f"cannot evaluate node {node!r}")


class Plan:
    """Post-order evaluation plan of one quantifier-free body.

    Structurally equal subformulas share one step: an atom is keyed by its
    node (a frozen dataclass), an operator by its type and the steps of its
    children, so no key hashes a whole subtree.  `steps` lists the distinct
    nodes, each after its children, with the step indices of those
    children; the body is the last step.  `atoms` are the (step, node) pairs
    of the leaves and `ops` the (step, operator function) pairs of the
    other steps.
    """

    def __init__(self, body: LtlNode):
        steps = []
        index = {}

        def visit(node) -> int:
            kids = tuple(visit(c) for c in children_of(node))
            key = (type(node), kids) if kids else node
            known = index.get(key)
            if known is None:
                known = index[key] = len(steps)
                steps.append((node, kids))
            return known

        visit(body)
        self.steps = tuple(steps)
        self.atoms = tuple((i, node) for i, (node, kids) in enumerate(steps) if not kids)
        self.ops = tuple((i, _operator(node, kids)) for i, (node, kids) in enumerate(steps) if kids)

    def __len__(self):
        return len(self.steps)


class PrefixEvaluator:
    """Robustness at position 0 of a zipped prefix that grows or is rewritten.

    Each atom's values are kept per position in a float64 array.  `update`
    recomputes them only from the lowest position that changed since the
    previous update; the operators then run over whole arrays, since a
    temporal operator's value at a position depends on every later one.
    Min, max, negation and shifts are exact in float64, so the result equals
    a from-scratch evaluation bit for bit.
    """

    def __init__(self, plan: Plan, arity: int, cfg: RobustnessConfig):
        self.arity = arity
        self.rho_min = cfg.rho_min
        self._ops = plan.ops
        self._atom_steps = [step for step, _ in plan.atoms]
        self._values = [_atom_function(node, arity, cfg) for _, node in plan.atoms]
        self._store = np.empty((len(self._values), 16))   # one row per atom
        self._vals = [None] * len(plan)
        self._n = 0            # positions the atom store holds

    def update(self, columns, lo: int = 0) -> float:
        """Robustness of `columns` (one tuple of labels per position) when
        positions before `lo` are unchanged since the previous update; the
        minimum for an empty prefix."""
        n = len(columns)
        if n == 0:
            return self.rho_min
        if len(columns[0]) != self.arity:
            raise LengthMismatchError(f"expected {self.arity} traces, got {len(columns[0])}")
        lo = self._n = min(lo, self._n)
        store = self._store
        if n > store.shape[1]:
            store = np.empty((len(self._values), max(n, 2 * store.shape[1])))
            store[:, :lo] = self._store[:, :lo]
            self._store = store
        if lo < n:
            tail = columns[lo:]
            store[:, lo:n] = [values(tail) for values in self._values]
        self._n = n
        v = self._vals
        for step, row in zip(self._atom_steps, store[:, :n]):
            v[step] = row
        rmin = self.rho_min
        for step, op in self._ops:
            v[step] = op(v, rmin)
        return float(v[-1][0])


def eval_ltl(z: ZippedTrace, window, body: LtlNode, cfg: RobustnessConfig) -> float:
    """Robustness of `body` on positions [lo, hi) of a zipped trace.

    An empty window evaluates to rho_min.
    """
    lo, hi = window
    if not (0 <= lo <= hi <= len(z)):
        raise WindowOutOfRangeError(f"window {window} outside trace of length {len(z)}")
    if lo >= hi:
        return cfg.rho_min
    return PrefixEvaluator(Plan(body), z.arity, cfg).update(z.columns[lo:hi])


def eval_hyper(assignment, sk, cfg: RobustnessConfig) -> float:
    """Robustness of a skolemized body for one trace per quantifier slot.

    `assignment` lists traces in quantifier-prefix order; witness-tagged atoms
    read the slot of their original prefix position.
    """
    traces = list(assignment)
    if len(traces) != sk.arity:
        raise LengthMismatchError(f"expected {sk.arity} traces, got {len(traces)}")
    z = zip_traces(traces)
    return PrefixEvaluator(sk.plan, z.arity, cfg).update(z.columns)


# ---------------------------------------------------------------------------
# Boolean oracle

def boolean_holds(assignment, body: LtlNode, at: int = 0) -> bool:
    """Positional satisfaction of a quantifier-free body under a fixed assignment.

    `assignment` lists one trace per quantifier slot.  Temporal operators are
    bounded by the shortest assigned trace; a next without a following
    position is false, and atoms read past a trace's end are false.
    """
    traces = list(assignment)
    horizon = min((len(t) for t in traces), default=0)

    def atom_holds(node, i: int) -> bool:
        if isinstance(node, BoolProp):
            t = traces[node.trace.index - 1]
            return i < len(t) and node.prop in t[i].props
        slots = [a.index - 1 for a in node.args]
        if any(i >= len(traces[s]) for s in slots):
            return False
        if node.abs_diff:
            v = abs(traces[slots[0]][i].value(node.valuation)
                    - traces[slots[1]][i].value(node.valuation))
        else:
            v = traces[slots[0]][i].value(node.valuation)
        if node.comparator == "<":
            return v < node.constant
        if node.comparator == ">":
            return v > node.constant
        return v == node.constant

    def sat(node, i: int) -> bool:
        if isinstance(node, TrueNode):
            return True
        if isinstance(node, FalseNode):
            return False
        if isinstance(node, (BoolProp, Predicate)):
            return atom_holds(node, i)
        if isinstance(node, Not):
            return not sat(node.child, i)
        if isinstance(node, And):
            return sat(node.left, i) and sat(node.right, i)
        if isinstance(node, Or):
            return sat(node.left, i) or sat(node.right, i)
        if isinstance(node, Implies):
            return (not sat(node.left, i)) or sat(node.right, i)
        if isinstance(node, Next):
            return i + 1 < horizon and sat(node.child, i + 1)
        if isinstance(node, Eventually):
            return any(sat(node.child, j) for j in range(i, horizon))
        if isinstance(node, Always):
            return all(sat(node.child, j) for j in range(i, horizon))
        if isinstance(node, Until):
            for j in range(i, horizon):
                if sat(node.right, j) and all(sat(node.left, k) for k in range(i, j)):
                    return True
            return False
        raise TypeError(f"cannot evaluate node {node!r}")

    if at >= horizon:
        return False
    return sat(body, at)


def boolean_sat(trace_set, f: Formula) -> bool:
    """Satisfaction of a closed quantified formula by a finite trace set.

    Enumerates trace assignments explicitly (existential: some trace in the
    set; universal: every trace), so it is only meant for small inputs and
    cross-validation.
    """
    traces = list(trace_set)

    def go(level: int, chosen: list) -> bool:
        if level == len(f.prefix):
            return boolean_holds(chosen, f.body)
        kind = f.prefix[level].kind
        results = (go(level + 1, chosen + [t]) for t in traces)
        return any(results) if kind == EXISTS else all(results)

    return go(0, [])
