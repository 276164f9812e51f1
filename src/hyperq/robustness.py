"""Quantitative and Boolean semantics of temporal bodies over finite traces.

The quantitative evaluator assigns a bounded real robustness value to a
bundled (zipped) trace: Boolean atoms saturate at +/-rho_max, numeric
predicates contribute their clamped margin, negation flips sign, conjunction
and disjunction take min and max, and the temporal operators fold min/max
over trace positions.  Evaluating past the end of a window yields rho_min.

A body is compiled once into a `Plan`, one step per distinct subformula in
post-order.  The atoms and the !, &, | and -> steps above atoms alone are
the plan's pointwise region.  As online robust monitors do (Donze, Ferrere
and Maler, CAV 2013), that region is computed once per new column, by one
piece of code, with no signal per subformula.  The plan generates the source
of one program: `roots(column)`, which computes every such step in a local
and returns the values that other steps read, and `run`, which appends
`roots` of each new column and then runs every other step in plan order, a
pointwise one written out from the same expression (`_POINTWISE` states
each operator and its tie rule once) and a temporal one as a call of its
step function, or as one statement where it is needed at position 0 alone.
The source is compiled once per process for each shape of
plan, and found by that shape before any source is generated.  When `roots`
reads Boolean atoms alone, its values at a position are a function of the
props it reads there, so each program keeps them per distinct column and
computes a column it has met before by one dict lookup.  A
`PrefixEvaluator` runs the program over Python floats: a list with one
value per position for each remaining step that needs them, one value for
a step read only at position 0.  It keeps these between calls, so a
growing prefix is scored after every appended column: G F and F G over a
pointwise operand read its newest value (the finite-trace identities of
LTLf, De Giacomo and Vardi, IJCAI 2013), and the backward recurrences of G,
F, U and X stop below the change as soon as a value comes out unchanged.
A prefix whose earlier positions were rewritten is rescored from position
0.  `eval_ltl` and `eval_hyper` are one-shot uses of the evaluator.

A plan whose temporal steps read pointwise operands alone is a
finite-state monitor (`Plan.flat`).  Its program also has a pure monitor
step `delta(u, x) -> (u', rho)`: x is the roots' values at an appended
column, u the state of the prefix before it, and G, F and U fold x in
forward while X keeps the value at position 1.  The training loop scores a
flat plan's steps by `delta` alone and keeps what it returns.

A separate Boolean evaluator implements the positional satisfaction relation
directly (with explicit quantifier enumeration over a finite trace set) and
serves as an independent oracle: for formulas whose atoms are all Boolean,
robustness equals rho_max exactly when the Boolean relation holds.
"""

from __future__ import annotations

import enum
import math
import struct
from dataclasses import dataclass, field

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
    format_number,
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
    """Observation of one trace position: propositions plus numeric valuations.

    Labels compare by the dataclass's equality, under which a 0.0 and a -0.0
    valuation are equal, although they give a predicate margins of opposite
    sign; scoring never compares labels.
    """

    props: frozenset = frozenset()
    valuations: dict = field(default_factory=dict)

    def value(self, name: str) -> float:
        try:
            return self.valuations[name]
        except KeyError:
            raise UnknownValuationError(name) from None


class Trace(tuple):
    """A finite sequence of labels; the empty trace is permitted."""

    __slots__ = ()

    def prefix(self, length: int) -> "Trace":
        return Trace(self[:length])

    def to_text(self) -> str:
        """One position per line: `props | key=value,...`."""
        lines = []
        for lab in self:
            props = " ".join(sorted(lab.props))
            vals = ",".join(f"{k}={format_number(v)}" for k, v in sorted(lab.valuations.items()))
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
        return Trace(labels)


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

def _slot(index: int, arity: int) -> int:
    """The slot that an atom target of quantifier index `index` reads."""
    if not 1 <= index <= arity:
        raise WindowOutOfRangeError(f"atom target index {index} outside bundle of arity {arity}")
    return index - 1


def _unchanged(old: float, new: float) -> bool:
    """Whether `new` equals `old` bit for bit, the sign of a zero included."""
    return old == new and (new != 0.0 or math.copysign(1.0, old) == math.copysign(1.0, new))


def _row_step(plan, i: int, rmin: float):
    """Function (values, lows, n) that brings temporal step `i`'s
    per-position list up to date and sets `lows[i]` to the lowest position
    it changed (n when none did).  `values[k]` is step k's list (one value
    per position, or one value for a step needed at position 0 alone),
    `lows[k]` the lowest position at which step k changed in this update
    and `n` the prefix length.

    A `last` step is φ's newest value at every position.  Every other one
    is a backward recurrence v[j] = f(children[j], v[j + 1]): recomputed
    from the end down to the children's lowest change, and below it only
    until a value comes out unchanged, since every lower one then is.
    """
    node, kids = plan.steps[i]
    a = kids[0]
    if plan.last[i]:
        def step(v, low, n):
            k = low[a]
            if k < n:
                x, out = v[a][-1], v[i]
                k = min(len(out), n) if out and _unchanged(out[0], x) else 0
                out[k:] = [x] * (n - k)
            low[i] = k
        return step
    if isinstance(node, Next):
        def step(v, low, n):
            k = low[a]
            if k < n:
                k = k - 1 if k else 0
                out = v[i]
                out[k:] = v[a][k + 1:]
                out.append(rmin)
            low[i] = k
        return step
    if isinstance(node, (Always, Eventually)):
        least = isinstance(node, Always)

        def step(v, low, n):
            k = low[a]
            c, out = v[a], v[i]
            out[k:] = c[k:]
            acc = out[-1]
            for j in range(n - 2, k - 1, -1):
                x = out[j]
                if (x < acc) if least else (x > acc):
                    acc = x
                else:
                    out[j] = acc
            j = k - 1
            while j >= 0:
                x = c[j]
                if (x < acc) if least else (x > acc):
                    acc = x
                if _unchanged(out[j], acc):
                    break
                out[j] = acc
                j -= 1
            low[i] = j + 1
        return step
    b = kids[1]                 # U

    def step(v, low, n):
        k = min(low[a], low[b])
        left, right, out = v[a], v[b], v[i]
        out[k:] = right[k:]
        acc = rmin                      # no witness position yet
        for j in range(n - 1, k - 1, -1):
            x = left[j]
            carry = x if x < acc else acc
            y = out[j]
            acc = out[j] = y if y > carry else carry
        j = k - 1
        while j >= 0:
            x = left[j]
            carry = x if x < acc else acc
            y = right[j]
            acc = y if y > carry else carry
            if _unchanged(out[j], acc):
                break
            out[j] = acc
            j -= 1
        low[i] = j + 1
    return step


# The pointwise operators over operands {a} and {b}.  Ties of 0.0 and -0.0
# keep what a scalar fold keeps: & and | the right operand, -> the negated
# left one.
_POINTWISE = {
    Not: "-{a}",
    And: "{a} if {a} < {b} else {b}",
    Or: "{a} if {a} > {b} else {b}",
    Implies: "{b} if {b} > -{a} else -{a}",
}


def _atom_shape(node) -> tuple:
    """An atom's entry in `Plan.shape`: its type, no children, and what
    the program's source reads of it, the slots of its targets and the form
    of its predicate, but no prop, valuation or constant."""
    if isinstance(node, BoolProp):
        return BoolProp, (), node.trace.index
    if isinstance(node, Predicate):
        return Predicate, (), tuple(a.index for a in node.args), node.comparator, node.abs_diff
    return type(node), ()


def _constants(plan) -> list:
    """The props, valuation names and predicate constants of a plan's
    atoms, in step order: a prop per `BoolProp` (parameter k{i} of the
    program's `make`), a valuation name and a constant per `Predicate` (k{i}
    and c{i})."""
    out = []
    for node, _ in plan.steps:
        if isinstance(node, BoolProp):
            out.append(node.prop)
        elif isinstance(node, Predicate):
            out += [node.valuation, float(node.constant)]
    return out


def _kernel_lines(plan, arity: int, loaded=()):
    """Statements that set local `x{i}` for every fused step, in plan
    order, from the column `col` of one position; each label attribute
    is loaded into a local where it is first read, unless `loaded` names
    that local already."""
    lines, loaded = [], set(loaded)

    def read(attr, index):
        """Local holding the `attr` of the label of quantifier `index` at
        this position."""
        slot = _slot(index, arity)
        local = f"{'p' if attr == 'props' else 'd'}{slot}"
        if local not in loaded:
            loaded.add(local)
            lines.append(f"{local} = col[{slot}].{attr}")
        return local

    for i, (kind, kids, *atom) in enumerate(plan.shape):
        if not plan.fused[i]:
            continue
        x = f"x{i}"
        if kind is TrueNode:
            lines.append(f"{x} = R")
        elif kind is FalseNode:
            lines.append(f"{x} = N")
        elif kind is BoolProp:
            lines.append(f"{x} = R if k{i} in {read('props', atom[0])} else N")
        elif kind is Predicate:
            indices, comparator, abs_diff = atom
            v = [f"{read('valuations', a)}[k{i}]" for a in indices]
            lines.append(f"{x} = abs({v[0]} - {v[1]})" if abs_diff else f"{x} = {v[0]}")
            if comparator == "=":
                lines.append(f"{x} = R if {x} == c{i} else N")
            else:
                lines.append(f"{x} = c{i} - {x}" if comparator == "<" else f"{x} = {x} - c{i}")
                lines.append(f"{x} = {x} if {x} > N else N")
                lines.append(f"{x} = {x} if {x} < R else R")
        else:
            lines.append(f"{x} = " + _POINTWISE[kind].format(a=f"x{kids[0]}", b=f"x{kids[-1]}"))
    return lines


def _kernel_source(plan, arity: int) -> str:
    """The source of a function `make(R, N, k.., c.., t..)` that returns the
    plan's program.  R and N are +/-rho_max, k{i} and c{i} are the props,
    valuation names and predicate constants of atom step i (see
    `_constants`), and t0, t1, ... the `_row_step` functions of the plan's
    `temporal` steps that keep a value per position.  The source reads the
    plan's `shape`, never a prop, valuation or constant, so that plans of
    one shape share it.

    `roots(col)` is the only code that computes the fused steps: it returns
    the roots' values at one column, in `Plan.roots` order, and turns a
    valuation the column's labels lack into UnknownValuationError.  The
    program `run(v, low, cols, lo, n)` appends `roots` of each column from
    `lo` on to the roots' lists, then runs every other step in plan order.
    A pointwise step is its `_POINTWISE` expression, either at position 0
    or as one list comprehension from its operands' lowest change on; a
    temporal step that keeps a value per position is a call of its step
    function, and one needed at position 0 alone (a `last` or X step) is
    one statement.  The program carries `run.roots` and `run.pack`, which
    packs the values `roots` returns so that a 0.0 and a -0.0 differ, and a
    flat plan's program `run.delta`, its monitor step (see `_delta_lines`).

    When `roots` reads no predicate, only the `props` of the slots its atoms
    read, every root is +/-rho_max and a function of those frozensets.
    `make` then gives the program a dict `memo` of its own (also
    `run.memo`) from those frozensets (one, or their tuple) to the roots'
    values: a column met before is one lookup, and only a new one runs the
    statements.  The dict starts afresh once it holds 2 ** (the number of
    Boolean atoms read) columns, the most that differ in what the plan
    reads.  A plan that reads predicates gets the statements alone, since a
    margin may be -0.0 and its valuations are not part of the key.
    """
    values = ", ".join(f"x{i}" for i in plan.roots) + ","
    atoms = [shape for shape in plan.shape if not shape[1]]
    memo = not any(kind is Predicate for kind, *_ in atoms)
    if memo:
        slots = sorted({_slot(atom[2], arity) for atom in atoms if atom[0] is BoolProp})
        keys = [f"p{s}" for s in slots]
        key = keys[0] if len(keys) == 1 else f"({', '.join(keys)})"
        props = sum(atom[0] is BoolProp for atom in atoms)
        lines = [f"p{s} = col[{s}].props" for s in slots]
        lines += [f"hit = memo.get({key})", "if hit is None:"]
        lines += [f"    {s}" for s in _kernel_lines(plan, arity, keys)]
        lines += [f"    if len(memo) >= {2 ** props}:", "        memo.clear()",
                  f"    hit = memo[{key}] = {values}", "return hit"]
    else:
        lines = ["try:", *(f"    {s}" for s in _kernel_lines(plan, arity)),
                 "except KeyError as exc:", "    raise UnknownValuationError(*exc.args) from None",
                 f"return {values}"]
    rows = [i for i in plan.temporal if plan.whole[i]]
    body = [f"o{i} = v[{i}]" for i in plan.roots] + [f"del o{i}[lo:]" for i in plan.roots]
    body += [f"for {values} in map(roots, cols[lo:]):"]
    body += [f"    o{i}.append(x{i})" for i in plan.roots] + [f"low[{i}] = lo" for i in plan.roots]
    for i, (kind, kids, *_) in enumerate(plan.shape):
        if plan.fused[i]:
            continue
        a, b = kids[0], kids[-1]
        expr = _POINTWISE.get(kind)
        if not plan.whole[i]:
            body.append(f"v[{i}][0] = " + (f"v[{a}][-1]" if plan.last[i] else
                                           f"v[{a}][1] if n > 1 else N" if kind is Next else
                                           expr.format(a=f"v[{a}][0]", b=f"v[{b}][0]")))
        elif expr is None:
            body.append(f"t{rows.index(i)}(v, low, n)")
        else:
            lowest, items, names = ((f"low[{a}]", f"v[{a}][k:]", "a") if len(kids) == 1 else
                                    (f"min(low[{a}], low[{b}])", f"zip(v[{a}][k:], v[{b}][k:])",
                                     "a, b"))
            body += [f"k = low[{i}] = {lowest}", "if k < n:",
                     f"    v[{i}][k:] = [{expr.format(a='a', b='b')} for {names} in {items}]"]
    params = ["R", "N"]
    for i, (kind, *_) in enumerate(plan.shape):
        params += [f"k{i}"] if kind is BoolProp else [f"k{i}", f"c{i}"] if kind is Predicate else []
    params += [f"t{j}" for j in range(len(rows))]
    return "\n".join([f"def make({', '.join(params)}):", f"    P = Struct('{len(plan.roots)}d')",
                      *(["    memo = {}"] if memo else []),
                      "    def roots(col):", *(f"        {s}" for s in lines),
                      "    def run(v, low, cols, lo, n):", *(f"        {s}" for s in body),
                      *(f"    {s}" for s in (_delta_lines(plan) if plan.flat else ())),
                      "    run.roots, run.pack = roots, P.pack",
                      *(["    run.memo = memo"] if memo else []),
                      "    return run", ""])


# The state of a G, F, X or U step before any position, and the statements
# that fold in one more position, at which its operands' values are {a} and
# {b}.  Ties of 0.0 and -0.0 keep what the backward recurrences keep: G and
# F the later position.  X keeps the value at position 1, +inf until then.
# U's state is (u, g): u is φ U ψ on the prefix so far and g is G φ on it,
# the running min of φ, or -inf once u can no longer change.  The recurrence
# composes one clamp x -> max(ψ_j, min(φ_j, x)) per position, and (u, g) is
# the composition of those clamps so far, each tie keeping what the clamp
# keeps: u its right operand and g φ_j.
_FOLD = {
    Always: ("inf", ["{s} = {a} if {a} <= {s} else {s}"]),
    Eventually: ("-inf", ["{s} = {a} if {a} >= {s} else {s}"]),
    Next: ("inf", ["{s} = {a} if {s} == inf else {s}"]),
    Until: ("N, inf", ["d = ({s} if {s} > {b} else {b}) > ({g} if {g} < {a} else {a})",
                       "h = {g} if {g} < {b} else {b}",
                       "{s} = {s} if {s} > h else h",
                       "{g} = -inf if d else {g} if {g} < {a} else {a}"]),
}


def _delta_lines(plan) -> list:
    """The statements of `make` that define a flat plan's monitor step
    `delta(u, x) -> (u', rho)` and put it on the program as `run.delta`.

    x is the roots' values at an appended column, packed by `P`.  u is the
    state of the prefix before it, packed by `Q`: the roots' values at
    position 0, then, in plan order, the state of each G, F, X and U step
    (see `_FOLD`).  For a prefix of one position, u is that position's
    packed root values alone, and the folds start from it.  `delta` folds x
    into every state, computes the `last` and pointwise steps at position 0
    over these, and returns the new state, packed, and the body's value."""
    folds = [i for i in plan.temporal if not plan.last[i]]
    roots = [f"r{i}" for i in plan.roots]
    state = roots + [name for i in folds
                     for name in ([f"s{i}", f"g{i}"] if plan.shape[i][0] is Until else [f"s{i}"])]

    def fold(i, column):
        """The statements that fold the roots' values `{column}{k}` into
        step i's state."""
        kind, kids = plan.shape[i][:2]
        return [line.format(s=f"s{i}", g=f"g{i}", a=f"{column}{kids[0]}", b=f"{column}{kids[-1]}")
                for line in _FOLD[kind][1]]

    lines = [", ".join(f"y{i}" for i in plan.roots) + ", = P.unpack(x)"]
    if folds:
        lines += ["if len(u) == P.size:", f"    {', '.join(roots)}, = P.unpack(u)",
                  f"    {', '.join(state[len(roots):])} = "
                  + ", ".join(_FOLD[plan.shape[i][0]][0] for i in folds)]
        lines += [f"    {s}" for i in folds if plan.shape[i][0] is not Next for s in fold(i, "r")]
        lines += ["else:", f"    {', '.join(state)}, = Q.unpack(u)"]
    else:
        lines.append(f"{', '.join(roots)}, = P.unpack(u)")
    lines += [s for i in folds for s in fold(i, "y")]
    names = {i: f"r{i}" for i in plan.roots} | {i: f"s{i}" for i in folds}
    for i, (kind, kids, *_) in enumerate(plan.shape):
        if i not in names and not plan.fused[i]:
            value = (f"y{kids[0]}" if plan.last[i] else
                     _POINTWISE[kind].format(a=names[kids[0]], b=names[kids[-1]]))
            names[i] = f"z{i}"
            lines.append(f"z{i} = {value}")
    lines.append(f"return Q.pack({', '.join(state)}), {names[len(plan) - 1]}")
    return [f"Q = Struct('{len(state)}d')", "def delta(u, x):", *(f"    {s}" for s in lines),
            "run.delta = delta"]


_MAKES: dict = {}   # (plan shape, slot count) -> the `make` of its program source


def _make(plan, arity: int):
    """The `make` function of the plan's program source (see
    `_kernel_source`), compiled once per process for each shape of plan and
    slot count: a plan of a shape met before generates no source."""
    key = (plan.shape, arity)
    make = _MAKES.get(key)
    if make is None:
        if len(_MAKES) >= 256:
            _MAKES.clear()
        namespace = {"UnknownValuationError": UnknownValuationError, "Struct": struct.Struct,
                     "inf": math.inf}
        exec(compile(_kernel_source(plan, arity), "<robustness kernel>", "exec"), namespace)
        make = _MAKES[key] = namespace["make"]
    return make


_FOLDS = (Always, Eventually)


class Plan:
    """Post-order evaluation plan of one quantifier-free body.

    Structurally equal subformulas share one step: an atom is keyed by its
    node (a frozen dataclass), an operator by its type and the steps of its
    children, so no key hashes a whole subtree.  `steps` lists the distinct
    nodes, each after its children, with the step indices of those
    children; the body is the last step.  `shape` lists, per step, its node
    type and children, and for an atom what the program's source reads of
    it (see `_atom_shape`): plans of one shape share one compiled source.

    `fused[i]` says whether step i is an atom, or a !, &, | or -> step whose
    children are all fused.  The program's `roots` function computes the
    fused steps at one column, without a list of their own; only the
    `roots`, the fused steps that a non-fused step reads (and the body, when
    it is fused), are stored, one value per position.

    `last[i]` says whether step i is G F φ or F G φ over a fused φ, with φ
    as its one child.  On a finite prefix both equal φ at the newest
    position, bit for bit, since F's and G's folds keep the later position
    on a tie.  Its `shape` entry is marked "last", since its source differs
    from that of a G or F.

    `whole[i]` says whether step i keeps one value per position.  Fused
    steps always do, and so do G, F and U steps other than `last` ones.  Any
    other step that only !, &, | and -> steps read on the way to the body
    is needed at position 0 alone and keeps one value.

    `temporal` lists the steps that are neither fused nor pointwise.
    `program` generates one function per plan, slot count and configuration
    that appends the roots' values at each new column and then runs every
    other step in plan order: a pointwise step written out from the same
    expression as in `roots`, a temporal step as a call of its step
    function or, at position 0 alone, as one statement.  The source names
    its props, valuations, constants and step functions by parameter, so it
    is compiled once per process for all plans of one shape.  When `roots`
    reads Boolean atoms alone, each program keeps the roots' values of
    every distinct column it has scored, keyed on the `props` it reads, and
    scores a column met before by lookup.

    A plan is `flat` when its G, F, X, U and `last` steps read fused roots
    alone.  Then only !, &, | and -> read those steps, and the plan is a
    finite-state monitor of an append-only prefix: its program's `delta`
    maps the monitor state and the roots' values at an appended column to
    the next state and the prefix's robustness (see `_delta_lines`).
    """

    def __init__(self, body: LtlNode):
        steps, shape, fused, last = [], [], [], []
        index = {}

        def add(key, node, kids, entry, pointwise, reads_last=False) -> int:
            known = index.get(key)
            if known is None:
                known = index[key] = len(steps)
                steps.append((node, kids))
                shape.append(entry)
                fused.append(pointwise and all(fused[k] for k in kids))
                last.append(reads_last)
            return known

        def visit(node) -> int:
            inner = getattr(node, "child", None)
            if isinstance(node, _FOLDS) and isinstance(inner, _FOLDS) and type(inner) != type(node):
                k = visit(inner.child)
                if fused[k]:
                    return add(("last", k), node, (k,), (type(node), (k,), "last"), False, True)
            kids = tuple(visit(c) for c in children_of(node))
            if kids:
                return add((type(node), kids), node, kids, (type(node), kids),
                           type(node) in _POINTWISE)
            return add(node, node, kids, _atom_shape(node), True)

        visit(body)
        self.steps, self.shape = tuple(steps), tuple(shape)
        self.fused, self.last = tuple(fused), tuple(last)
        whole = [False] * len(steps)
        for i in range(len(steps) - 1, -1, -1):       # every reader before what it reads
            node, kids = steps[i]
            whole[i] = (whole[i] or fused[i]
                        or isinstance(node, (*_FOLDS, Until)) and not last[i])
            if whole[i] or type(node) not in _POINTWISE:
                for k in kids:
                    whole[k] = True
        self.whole = tuple(whole)
        roots = {len(steps) - 1} if fused[-1] else set()
        for (node, kids), f in zip(steps, fused):
            if not f:
                roots.update(k for k in kids if fused[k])
        self.roots = tuple(sorted(roots))
        self.temporal = tuple(i for i, ((node, _), f) in enumerate(zip(steps, fused))
                              if not f and type(node) not in _POINTWISE)
        self.flat = all(fused[k] for i in self.temporal for k in steps[i][1])
        self._programs = {}

    def __len__(self):
        return len(self.steps)

    def program(self, arity: int, cfg: RobustnessConfig):
        """The function `run(values, lows, columns, lo, n)` that brings
        every step up to date, with `run.roots(column)`, the roots' values
        at one column, `run.pack`, which packs them so that a 0.0 and a -0.0
        differ, and for a flat plan `run.delta`, its monitor step (see
        `_kernel_source`)."""
        program = self._programs.get((arity, cfg))
        if program is None:
            if len(self._programs) >= 16:   # a plan lives as long as its formula's memo entry
                self._programs.clear()
            rmax, rmin = float(cfg.rho_max), float(cfg.rho_min)
            steps = [_row_step(self, i, rmin) for i in self.temporal if self.whole[i]]
            program = self._programs[(arity, cfg)] = _make(self, arity)(
                rmax, rmin, *_constants(self), *steps)
        return program


class PrefixEvaluator:
    """Robustness at position 0 of a zipped prefix that grows or is rewritten.

    It scores nested plans, `trace_prefix` worlds and from-scratch
    evaluations; a flat plan's appended prefix is stepped by its program's
    `delta` instead.  The values are Python floats: a list per position for
    each step that keeps a value per position, and one value for each step
    needed at position 0 alone (see `Plan`).  Columns enter in one of two
    ways: appended to the prefix of the previous update, or rescored from
    position 0.  `update` makes one call of the plan's program, which
    appends the plan's `roots` of every new column (a plan over Boolean
    atoms alone looks up the roots of a column it has scored before).  Then
    each other step runs and reports the lowest position it changed to its
    readers: G F and F G at position 0 read the newest value, and the
    per-position recurrences of G, F, U and X stop below the change as soon
    as a value comes out unchanged.  Min, max and negation are exact, ties
    of 0.0 and -0.0 follow the scalar folds, so the result equals a
    from-scratch evaluation bit for bit, the sign of a zero included.
    """

    def __init__(self, plan: Plan, arity: int, cfg: RobustnessConfig):
        self.arity = arity
        self.rho_min = cfg.rho_min
        self._program = plan.program(arity, cfg)
        self._vals = [[] if whole else [None] for whole in plan.whole]
        self._low = [0] * len(plan)
        self._n = 0            # prefix length at the previous update

    def update(self, columns, lo: int = 0) -> float:
        """Robustness of `columns` (one tuple of labels per position) when
        positions before `lo` are unchanged since the previous update; the
        minimum for an empty prefix.  Positions appended since then are
        computed whatever `lo` is, so a prefix that grew by several columns
        is caught up in one call."""
        n = len(columns)
        if n == 0:
            return self.rho_min
        if len(columns[0]) != self.arity:
            raise LengthMismatchError(f"expected {self.arity} traces, got {len(columns[0])}")
        m = self._n
        lo = min(lo, m) if n >= m else min(lo, n - 1)    # a shorter prefix ends anew
        self._program(self._vals, self._low, columns, lo, n)
        self._n = n
        return self._vals[-1][0]


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
    bounded by the shortest assigned trace, so no atom reads past a trace's
    end; a next without a following position is false.
    """
    traces = list(assignment)
    horizon = min((len(t) for t in traces), default=0)

    def atom_holds(node, i: int) -> bool:
        if isinstance(node, BoolProp):
            return node.prop in traces[node.trace.index - 1][i].props
        slots = [a.index - 1 for a in node.args]
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
