"""Trace-quantified temporal formulas over finite traces.

A formula is a quantifier prefix (``forall``/``exists`` over named trace
variables) followed by a quantifier-free temporal body.  Atoms are either
Boolean propositions attached to a trace variable (``p@t1``) or bracketed
numeric predicates over label valuations (``[ loc@t1 < 5 ]``,
``[ |loc@t1 - loc@t2| < 3 ]``).

Concrete syntax::

    formula   := quantifier* body
    quantifier:= ("forall" | "exists") name "."
    body      := implies
    implies   := or ("->" implies)?              right associative
    or        := and ("|" and)*
    and       := until ("&" until)*
    until     := unary ("U" until)?              right associative
    unary     := ("!" | "X" | "F" | "G") unary | primary
    primary   := "true" | "false" | "(" body ")" | atom | "[" predicate "]"
    atom      := name "@" name
    predicate := name "@" name cmp const
               | "|" name "@" name "-" name "@" name "|" cmp const
    cmp       := "<" | ">" | "="

Uppercase ``X F G U`` are reserved operator names; all other identifiers
(including single lowercase letters) are usable as propositions, valuations,
and trace variables.  Lines starting with ``#`` are comments.

`read_input` reads every file the command line takes (formula, config, map,
domino set, traces, artifact) and raises an `InputError` that names the file.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


FORALL = "forall"
EXISTS = "exists"

COMPARATORS = ("<", ">", "=")


class InputError(ValueError):
    """Malformed input to a command: a file that cannot be read or parsed
    (the message names it), or an argument out of range."""


class FormulaError(ValueError):
    """Base class for formula construction and parsing failures."""


class ParseError(FormulaError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class UnboundTraceVarError(FormulaError):
    def __init__(self, name: str):
        super().__init__(f"trace variable '{name}' is not quantified")
        self.name = name


class DuplicateQuantifierError(FormulaError):
    def __init__(self, name: str):
        super().__init__(f"trace variable '{name}' is quantified more than once")
        self.name = name


@dataclass(frozen=True)
class TraceVar:
    """A quantified trace variable; ``index`` is its 1-based prefix position."""

    name: str
    index: int


@dataclass(frozen=True)
class SkolemRef:
    """Atom target standing for the witness of an existential quantifier.

    Produced by skolemization in place of a ``TraceVar``; ``index`` keeps the
    original prefix position so evaluators can route the atom to the witness
    trace occupying that slot.
    """

    index: int
    name: str


@dataclass(frozen=True)
class Quantifier:
    kind: str  # FORALL or EXISTS
    var: TraceVar


class LtlNode:
    """Marker base class for body nodes."""


@dataclass(frozen=True)
class TrueNode(LtlNode):
    pass


@dataclass(frozen=True)
class FalseNode(LtlNode):
    pass


@dataclass(frozen=True)
class BoolProp(LtlNode):
    prop: str
    trace: object  # TraceVar | SkolemRef


@dataclass(frozen=True)
class Predicate(LtlNode):
    """Numeric predicate `v(args) cmp constant` over label valuations.

    With one argument the predicate compares the valuation directly; with two
    arguments (``abs_diff=True``) it compares the absolute difference of the
    valuation on two traces.  ``=`` is Boolean-valued and intended for
    integer-valued valuations only.
    """

    valuation: str
    args: tuple  # of TraceVar | SkolemRef, length 1 or 2
    comparator: str
    constant: float
    abs_diff: bool = False


@dataclass(frozen=True)
class Not(LtlNode):
    child: LtlNode


@dataclass(frozen=True)
class And(LtlNode):
    left: LtlNode
    right: LtlNode


@dataclass(frozen=True)
class Or(LtlNode):
    left: LtlNode
    right: LtlNode


@dataclass(frozen=True)
class Implies(LtlNode):
    left: LtlNode
    right: LtlNode


@dataclass(frozen=True)
class Next(LtlNode):
    child: LtlNode


@dataclass(frozen=True)
class Eventually(LtlNode):
    child: LtlNode


@dataclass(frozen=True)
class Always(LtlNode):
    child: LtlNode


@dataclass(frozen=True)
class Until(LtlNode):
    left: LtlNode
    right: LtlNode


@dataclass(frozen=True)
class Formula:
    prefix: tuple[Quantifier, ...]
    body: LtlNode

    @property
    def arity(self) -> int:
        return len(self.prefix)


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str


def children_of(node: LtlNode) -> tuple[LtlNode, ...]:
    if isinstance(node, (Not, Next, Eventually, Always)):
        return (node.child,)
    if isinstance(node, (And, Or, Implies, Until)):
        return (node.left, node.right)
    return ()


def atoms_of(node: LtlNode):
    """Yield every BoolProp/Predicate node in the subtree."""
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, (BoolProp, Predicate)):
            yield n
        stack.extend(children_of(n))


# ---------------------------------------------------------------------------
# Lexer

_KEYWORDS = {FORALL, EXISTS, "true", "false"}
_UNARY_OPS = {"X", "F", "G"}

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<number>\d+(?:\.\d+)?)
      | (?P<arrow>->)
      | (?P<op>[.!&|()\[\]@<>=\-])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # 'id' | 'number' | 'op' | 'eof'
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for lineno, line in enumerate(text.splitlines() or [""], start=1):
        if line.lstrip().startswith("#"):
            continue
        pos = 0
        while pos < len(line):
            m = _TOKEN_RE.match(line, pos)
            if m is None:
                raise ParseError(f"unexpected character {line[pos]!r}", lineno, pos + 1)
            pos = m.end()
            if m.lastgroup == "ws":
                continue
            kind = m.lastgroup
            tok = m.group()
            if kind == "arrow":
                kind = "op"
            tokens.append(_Token(kind, tok, lineno, m.start() + 1))
    last = tokens[-1] if tokens else None
    tokens.append(_Token("eof", "", last.line if last else 1, last.column if last else 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.vars: dict[str, TraceVar] = {}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.column)

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text:
            raise self.error(f"expected {text!r}, found {tok.text!r}")
        return self.next()

    def parse_formula(self) -> Formula:
        prefix = []
        while self.peek().text in (FORALL, EXISTS):
            kind = self.next().text
            name_tok = self.peek()
            if name_tok.kind != "id" or name_tok.text in _KEYWORDS or name_tok.text in _UNARY_OPS or name_tok.text == "U":
                raise self.error("expected trace variable name")
            self.next()
            if name_tok.text in self.vars:
                raise DuplicateQuantifierError(name_tok.text)
            var = TraceVar(name_tok.text, len(prefix) + 1)
            self.vars[var.name] = var
            prefix.append(Quantifier(kind, var))
            self.expect(".")
        body = self.parse_implies()
        if self.peek().kind != "eof":
            raise self.error(f"unexpected trailing input {self.peek().text!r}")
        return Formula(tuple(prefix), body)

    def parse_implies(self) -> LtlNode:
        left = self.parse_or()
        if self.peek().text == "->":
            self.next()
            return Implies(left, self.parse_implies())
        return left

    def parse_or(self) -> LtlNode:
        node = self.parse_and()
        while self.peek().text == "|":
            self.next()
            node = Or(node, self.parse_and())
        return node

    def parse_and(self) -> LtlNode:
        node = self.parse_until()
        while self.peek().text == "&":
            self.next()
            node = And(node, self.parse_until())
        return node

    def parse_until(self) -> LtlNode:
        left = self.parse_unary()
        if self.peek().text == "U":
            self.next()
            return Until(left, self.parse_until())
        return left

    def parse_unary(self) -> LtlNode:
        tok = self.peek()
        if tok.text == "!":
            self.next()
            return Not(self.parse_unary())
        if tok.text in _UNARY_OPS:
            self.next()
            child = self.parse_unary()
            if tok.text == "X":
                return Next(child)
            if tok.text == "F":
                return Eventually(child)
            return Always(child)
        return self.parse_primary()

    def parse_primary(self) -> LtlNode:
        tok = self.peek()
        if tok.text == "true":
            self.next()
            return TrueNode()
        if tok.text == "false":
            self.next()
            return FalseNode()
        if tok.text == "(":
            self.next()
            node = self.parse_implies()
            self.expect(")")
            return node
        if tok.text == "[":
            self.next()
            node = self.parse_predicate()
            self.expect("]")
            return node
        if tok.kind == "id":
            return self.parse_bool_atom()
        raise self.error(f"expected a formula, found {tok.text!r}")

    def resolve_var(self, name_tok: _Token) -> TraceVar:
        var = self.vars.get(name_tok.text)
        if var is None:
            raise UnboundTraceVarError(name_tok.text)
        return var

    def parse_ident(self, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != "id" or tok.text in _KEYWORDS:
            raise self.error(f"expected {what}, found {tok.text!r}")
        return self.next()

    def parse_bool_atom(self) -> BoolProp:
        prop = self.parse_ident("proposition name")
        self.expect("@")
        var = self.resolve_var(self.parse_ident("trace variable"))
        return BoolProp(prop.text, var)

    def parse_valuation_ref(self) -> tuple[str, TraceVar]:
        name = self.parse_ident("valuation name")
        self.expect("@")
        var = self.resolve_var(self.parse_ident("trace variable"))
        return name.text, var

    def parse_constant(self) -> float:
        negate = False
        if self.peek().text == "-":
            self.next()
            negate = True
        tok = self.peek()
        if tok.kind != "number":
            raise self.error(f"expected a numeric constant, found {tok.text!r}")
        self.next()
        value = float(tok.text)
        return -value if negate else value

    def parse_comparator(self) -> str:
        tok = self.peek()
        if tok.text not in COMPARATORS:
            raise self.error(f"expected one of {COMPARATORS}, found {tok.text!r}")
        return self.next().text

    def parse_predicate(self) -> Predicate:
        if self.peek().text == "|":
            self.next()
            name1, var1 = self.parse_valuation_ref()
            self.expect("-")
            name2, var2 = self.parse_valuation_ref()
            self.expect("|")
            if name1 != name2:
                raise self.error(f"absolute difference mixes valuations {name1!r} and {name2!r}")
            cmp_ = self.parse_comparator()
            const = self.parse_constant()
            return Predicate(name1, (var1, var2), cmp_, const, abs_diff=True)
        name, var = self.parse_valuation_ref()
        cmp_ = self.parse_comparator()
        const = self.parse_constant()
        return Predicate(name, (var,), cmp_, const, abs_diff=False)


def parse_formula(text: str) -> Formula:
    """Parse concrete syntax into a Formula; raises on malformed input.

    Lines starting with '#' are comments.  Guarantees the result is closed:
    every atom's trace variable is bound by exactly one quantifier in the
    prefix.
    """
    return _Parser(_tokenize(text)).parse_formula()


# ---------------------------------------------------------------------------
# Input files

def load_formula(path) -> Formula:
    """Read one formula from a text file."""
    return read_input("formula", path, parse_formula)


def read_input(noun: str, path, parse=None):
    """The text of the `noun` file at `path`, read as UTF-8, or `parse` of it.

    Raises InputError naming the file when it is missing, cannot be read, is
    not UTF-8 (with the line of the first bad byte) or when `parse` raises
    ValueError.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError as exc:
        raise InputError(f"{noun} file {path} does not exist") from exc
    except OSError as exc:
        raise InputError(f"{noun} file {path} cannot be read: {exc.strerror}") from exc
    try:
        # with newlines translated as open() in text mode does
        text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise InputError(f"{noun} file {path} cannot be read: not UTF-8: "
                         f"{exc.reason} (line {line})") from exc
    if parse is None:
        return text
    try:
        return parse(text)
    except ValueError as exc:
        raise InputError(f"{noun} file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Validation

def validate(f: Formula) -> list[Diagnostic]:
    """Return diagnostics; an empty list means the formula is well formed."""
    out = []
    seen: dict[str, TraceVar] = {}
    for i, q in enumerate(f.prefix):
        if q.kind not in (FORALL, EXISTS):
            out.append(Diagnostic("bad-quantifier", f"unknown quantifier kind {q.kind!r}"))
        if q.var.name in seen:
            out.append(Diagnostic("duplicate-quantifier", f"'{q.var.name}' is quantified twice"))
        seen[q.var.name] = q.var
        if q.var.index != i + 1:
            out.append(Diagnostic(
                "bad-index",
                f"'{q.var.name}' carries index {q.var.index}, expected {i + 1}"))
    for atom in atoms_of(f.body):
        targets = (atom.trace,) if isinstance(atom, BoolProp) else atom.args
        for t in targets:
            if isinstance(t, SkolemRef):
                out.append(Diagnostic(
                    "skolem-ref-in-formula",
                    f"witness reference '{t.name}' appears in an unskolemized formula"))
            elif seen.get(t.name) != t:
                out.append(Diagnostic("unbound-trace-var", f"'{t.name}' is not quantified"))
        if isinstance(atom, Predicate):
            if len(atom.args) not in (1, 2):
                out.append(Diagnostic("bad-arity", f"predicate on '{atom.valuation}' has {len(atom.args)} arguments"))
            if atom.abs_diff != (len(atom.args) == 2):
                out.append(Diagnostic("bad-arity", "absolute difference requires exactly two arguments"))
    return out


# ---------------------------------------------------------------------------
# Unparser

_PREC_IMPLIES = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_UNTIL = 4
_PREC_UNARY = 5


def _format_constant(c: float) -> str:
    return str(int(c)) if float(c).is_integer() else repr(c)


def _target_name(t) -> str:
    return t.name


def _unparse_node(node: LtlNode) -> tuple[str, int]:
    """Return (text, precedence) for a body node."""
    if isinstance(node, TrueNode):
        return "true", _PREC_UNARY
    if isinstance(node, FalseNode):
        return "false", _PREC_UNARY
    if isinstance(node, BoolProp):
        return f"{node.prop}@{_target_name(node.trace)}", _PREC_UNARY
    if isinstance(node, Predicate):
        if node.abs_diff:
            a, b = node.args
            inner = f"|{node.valuation}@{_target_name(a)} - {node.valuation}@{_target_name(b)}|"
        else:
            inner = f"{node.valuation}@{_target_name(node.args[0])}"
        return f"[ {inner} {node.comparator} {_format_constant(node.constant)} ]", _PREC_UNARY
    if isinstance(node, Not):
        return f"!{_wrap(node.child, _PREC_UNARY)}", _PREC_UNARY
    if isinstance(node, Next):
        return f"X {_wrap(node.child, _PREC_UNARY)}", _PREC_UNARY
    if isinstance(node, Eventually):
        return f"F {_wrap(node.child, _PREC_UNARY)}", _PREC_UNARY
    if isinstance(node, Always):
        return f"G {_wrap(node.child, _PREC_UNARY)}", _PREC_UNARY
    if isinstance(node, Until):
        # right associative: parenthesize a left child of equal precedence
        left = _wrap(node.left, _PREC_UNTIL + 1)
        right = _wrap(node.right, _PREC_UNTIL)
        return f"{left} U {right}", _PREC_UNTIL
    if isinstance(node, And):
        return f"{_wrap(node.left, _PREC_AND)} & {_wrap(node.right, _PREC_AND + 1)}", _PREC_AND
    if isinstance(node, Or):
        return f"{_wrap(node.left, _PREC_OR)} | {_wrap(node.right, _PREC_OR + 1)}", _PREC_OR
    if isinstance(node, Implies):
        return f"{_wrap(node.left, _PREC_IMPLIES + 1)} -> {_wrap(node.right, _PREC_IMPLIES)}", _PREC_IMPLIES
    raise FormulaError(f"cannot unparse node {node!r}")


def _wrap(node: LtlNode, min_prec: int) -> str:
    text, prec = _unparse_node(node)
    return f"({text})" if prec < min_prec else text


def unparse(f: Formula) -> str:
    """Render a formula; `parse_formula(unparse(f))` is structurally equal to f."""
    parts = [f"{q.kind} {q.var.name}." for q in f.prefix]
    parts.append(_unparse_node(f.body)[0])
    return " ".join(parts)
