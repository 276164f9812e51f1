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
    unchanged.  The result is kept on `f`, outside its fields, so that it
    neither compares nor prints: each later call on the same formula object
    returns the same object, which `StateTable.of` finds by identity.
    """
    kept = vars(f).get("_skolemized")
    if kept is not None:
        return kept
    deps = dependency_sets(f)
    decls = tuple(SkolemDecl(i, tuple(d)) for i, d in sorted(deps.items()))
    refs = {d.exist_index: SkolemRef(d.exist_index, d.name) for d in decls}
    universal_vars = tuple(q.var for q in f.prefix if q.kind == FORALL)
    body = _retag(f.body, refs) if refs else f.body
    sk = SkolemizedFormula(decls, universal_vars, body, arity=len(f.prefix))
    object.__setattr__(f, "_skolemized", sk)   # Formula is frozen
    return sk


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

    Entries map the dependency traces' prefixes (all cut at the same length)
    to the witness trace's prefix and the actions that produced it, each
    trace as its `trace_text`, exactly as the artifact file stores them:
    ``(key texts) -> (text, actions)``.  Filled during extraction.
    """

    exist_index: int
    deps: tuple[int, ...]
    entries: dict[tuple[str, ...], tuple[str, tuple[str, ...]]] = field(default_factory=dict)


def trace_text(trace) -> str:
    """A trace prefix as one line: `Trace.to_text()` with positions separated by `;`."""
    return trace.to_text().replace("\n", ";")


def witness_key(traces: tuple) -> tuple:
    """The entry key for a tuple of dependency trace prefixes: their texts."""
    return tuple(trace_text(t) for t in traces)


def check_consistency(traces, witnesses: list[WitnessTable]) -> bool:
    """True iff every existential trace's text equals the text its witness
    table stores under the dependency traces' texts.  Text prints a 0.0 and
    a -0.0 valuation alike, so they match.

    `traces` lists the episode's traces in quantifier-prefix order, all of
    one length.  A table that names a slot outside ``1..len(traces)``, or
    holds no entry for the key, raises MissingWitnessError.
    """
    lengths = {len(t) for t in traces}
    if len(lengths) > 1:
        raise WitnessLengthError(f"assigned traces have differing lengths {sorted(lengths)}")
    for table in witnesses:
        if not {table.exist_index, *table.deps} <= set(range(1, len(traces) + 1)):
            raise MissingWitnessError(f"witness {table.exist_index} names a position outside "
                                      f"1..{len(traces)}")
        key = witness_key(tuple(traces[j - 1] for j in table.deps))
        if key not in table.entries:
            raise MissingWitnessError(key)
        if table.entries[key][0] != trace_text(traces[table.exist_index - 1]):
            return False
    return True
