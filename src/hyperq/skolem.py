"""Skolemization of trace quantifier prefixes and witness bookkeeping.

An alternating prefix Q1 t1 ... Qn tn is rewritten so every existential
variable becomes a witness function of the universal variables quantified
before it.  Atoms over existential variables are retagged with a SkolemRef so
downstream evaluators route them to the witness-generated trace at the same
prefix slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .formula import (
    FORALL,
    BoolProp,
    Formula,
    FormulaError,
    LtlNode,
    Predicate,
    SkolemRef,
    TraceVar,
    children_of,
    validate,
)
from .robustness import Plan


class NotClosedError(FormulaError):
    pass


class MissingWitnessError(KeyError):
    pass


class WitnessLengthError(ValueError):
    pass


@dataclass(frozen=True)
class SkolemDecl:
    """Witness function declaration for the existential at `exist_index`.

    `deps` lists the prefix positions of the universal quantifiers the witness
    may depend on, in increasing order; empty means a constant function.
    """

    exist_index: int
    deps: tuple[int, ...]

    @property
    def name(self) -> str:
        return f"f{self.exist_index}"


@dataclass(frozen=True)
class SkolemizedFormula:
    decls: tuple[SkolemDecl, ...]
    universal_vars: tuple[TraceVar, ...]
    body: LtlNode
    arity: int

    @cached_property
    def plan(self) -> Plan:
        """The body's evaluation plan, compiled on first use."""
        return Plan(self.body)


def _require_closed(f: Formula):
    bad = [d for d in validate(f) if d.code in ("unbound-trace-var", "duplicate-quantifier")]
    if bad:
        raise NotClosedError("; ".join(d.message for d in bad))


def dependency_sets(f: Formula) -> dict[int, list[int]]:
    """Map each existential prefix position to the universal positions before it."""
    _require_closed(f)
    out: dict[int, list[int]] = {}
    universals: list[int] = []
    for i, q in enumerate(f.prefix, start=1):
        if q.kind == FORALL:
            universals.append(i)
        else:
            out[i] = list(universals)
    return out


def _retag(node: LtlNode, refs: dict[int, SkolemRef]) -> LtlNode:
    def target(t):
        ref = refs.get(getattr(t, "index", None))
        return ref if ref is not None else t

    if isinstance(node, BoolProp):
        return BoolProp(node.prop, target(node.trace))
    if isinstance(node, Predicate):
        return Predicate(node.valuation, tuple(target(a) for a in node.args),
                         node.comparator, node.constant, node.abs_diff)
    kids = children_of(node)
    if kids:
        return type(node)(*(_retag(kid, refs) for kid in kids))
    return node


def skolemize(f: Formula) -> SkolemizedFormula:
    """Rewrite f so existential variables become witness functions.

    Purely universal formulas come back with no declarations and the body
    unchanged.
    """
    deps = dependency_sets(f)
    decls = tuple(SkolemDecl(i, tuple(d)) for i, d in sorted(deps.items()))
    refs = {d.exist_index: SkolemRef(d.exist_index, d.name) for d in decls}
    universal_vars = tuple(q.var for q in f.prefix if q.kind == FORALL)
    body = _retag(f.body, refs) if refs else f.body
    return SkolemizedFormula(decls, universal_vars, body, arity=len(f.prefix))


def format_skolemized(sk: SkolemizedFormula, body_text: str) -> str:
    """Human-readable rendering of the rewritten quantifier prefix."""
    parts = []
    for d in sk.decls:
        args = ", ".join(f"t{j}" for j in d.deps)
        parts.append(f"exists {d.name}({args}).")
    for v in sk.universal_vars:
        parts.append(f"forall {v.name}.")
    parts.append(body_text)
    return " ".join(parts)


@dataclass
class WitnessTable:
    """Recorded witness function for one existential quantifier.

    Entries map a key built from the dependency traces' prefixes (all cut at
    the same length) to the witness trace prefix plus the action sequence that
    produced it.  Recorded incrementally during rollouts; read-only afterward.
    """

    exist_index: int
    deps: tuple[int, ...]
    entries: dict[tuple, tuple] = field(default_factory=dict)  # key -> (trace, actions)

    def record(self, key: tuple, trace, actions: tuple):
        self.entries[key] = (trace, actions)

    def lookup(self, key: tuple):
        if key not in self.entries:
            raise MissingWitnessError(key)
        return self.entries[key]


def witness_key(traces: tuple) -> tuple:
    """Canonical hashable key for a tuple of dependency trace prefixes."""
    return tuple(t.to_text() for t in traces)


def check_consistency(assignment: dict, witnesses: list[WitnessTable]) -> bool:
    """True iff every existential trace equals its witness output.

    `assignment` maps TraceVar (or its 1-based index) to a Trace and must
    cover the whole prefix; all traces must share one length.
    """
    by_index = {}
    for k, v in assignment.items():
        by_index[getattr(k, "index", k)] = v
    lengths = {len(t) for t in by_index.values()}
    if len(lengths) > 1:
        raise WitnessLengthError(f"assigned traces have differing lengths {sorted(lengths)}")
    for table in witnesses:
        if table.exist_index not in by_index:
            raise MissingWitnessError(f"no assignment for existential index {table.exist_index}")
        key = witness_key(tuple(by_index[j] for j in table.deps))
        recorded, _actions = table.lookup(key)
        if recorded != by_index[table.exist_index]:
            return False
    return True
