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
    const     := "-"? digits ("." digits)? (("e" | "E") ("+" | "-")? digits)?

Uppercase ``X F G U`` are reserved operator names; all other identifiers
(including single lowercase letters) are usable as propositions, valuations,
and trace variables.  Lines starting with ``#`` are comments.  A body's syntax
tree has at most `MAX_DEPTH` levels, a parenthesis counting as one.

`read_input` reads every file the command line takes (formula, config, map,
domino set, traces, artifact) and raises an `InputError` that names the file.
It reads the file on every call and parses each distinct text once per process.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import NamedTuple


FORALL = "forall"
EXISTS = "exists"

COMPARATORS = ("<", ">", "=")

# The most levels a body's syntax tree may have (the bundled bodies have at
# most 9); a parenthesis counts as one, so no walk over a body recurses deeper.
MAX_DEPTH = 100


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


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str


def children_of(node: LtlNode) -> tuple[LtlNode, ...]:
    if type(node) in _UNARY_SYMBOL:
        return (node.child,)
    if type(node) in _BINARY_SYMBOL:
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
# Syntax: the parser, the printer and `children_of` read these tables alone.

_LITERAL = {"true": TrueNode, "false": FalseNode}
_KEYWORDS = {FORALL, EXISTS, *_LITERAL}
# A unary operator's node; it binds tighter than any binary operator, at _TIGHTEST.
_UNARY = {"!": Not, "X": Next, "F": Eventually, "G": Always}
# Each binary operator's level (the loosest 0), node and whether it is right associative.
_BINARY = {"->": (0, Implies, True), "|": (1, Or, False), "&": (2, And, False),
           "U": (3, Until, True)}
_TIGHTEST = len(_BINARY)
# The same tables by node type.
_LITERAL_NAME = {node: name for name, node in _LITERAL.items()}
_UNARY_SYMBOL = {node: symbol for symbol, node in _UNARY.items()}
_BINARY_SYMBOL = {node: (symbol, level, right)
                  for symbol, (level, node, right) in _BINARY.items()}


# ---------------------------------------------------------------------------
# Lexer

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<number>\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)
      | (?P<op>->|[.!&|()\[\]@<>=\-])
      | (?P<bad>.)
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str  # 'id' | 'number' | 'op' | 'eof'
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith("#"):
            continue
        for m in _TOKEN_RE.finditer(line):
            kind = m.lastgroup
            if kind == "bad":
                raise ParseError(f"unexpected character {m.group()!r}", lineno, m.start() + 1)
            if kind != "ws":
                tokens.append(_Token(kind, m.group(), lineno, m.start() + 1))
    line, column = (tokens[-1].line, tokens[-1].column) if tokens else (1, 1)
    tokens.append(_Token("eof", "", line, column))
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

    def below(self, tok: _Token, depth: int) -> int:
        """The depth of an operand of the operator or parenthesis `tok` at `depth`."""
        self.height(tok, depth + 1, 1)
        return depth + 1

    def height(self, tok: _Token, depth: int, height: int) -> int:
        """`height`, the levels of a subtree made at `tok` below `depth`
        levels, once they fit in MAX_DEPTH together."""
        if depth + height > MAX_DEPTH:
            raise ParseError(f"formula nested more than {MAX_DEPTH} levels deep",
                             tok.line, tok.column)
        return height

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
            if name_tok.kind != "id" or name_tok.text in _KEYWORDS or name_tok.text in _UNARY or name_tok.text in _BINARY:
                raise self.error("expected trace variable name")
            self.next()
            if name_tok.text in self.vars:
                raise DuplicateQuantifierError(name_tok.text)
            var = TraceVar(name_tok.text, len(prefix) + 1)
            self.vars[var.name] = var
            prefix.append(Quantifier(kind, var))
            self.expect(".")
        body, _ = self.parse_binary(0)
        if self.peek().kind != "eof":
            raise self.error(f"unexpected trailing input {self.peek().text!r}")
        return Formula(tuple(prefix), body)

    # Each parse_* takes the levels above what it parses (operators and
    # parentheses) and returns a node and its height: its levels, 1 for an atom.
    def parse_binary(self, depth: int, floor: int = 0) -> tuple[LtlNode, int]:
        """A body whose binary operators are at level `floor` or tighter."""
        node, h = self.parse_unary(depth)
        while (op := _BINARY.get(self.peek().text)) and op[0] >= floor:
            tok = self.next()
            level, make, right = op
            child, k = (self.parse_binary(self.below(tok, depth), level) if right
                        else self.parse_binary(depth, level + 1))
            node, h = make(node, child), self.height(tok, depth, max(h, k) + 1)
        return node, h

    def parse_unary(self, depth: int) -> tuple[LtlNode, int]:
        tok = self.peek()
        if tok.text in _UNARY:
            self.next()
            child, h = self.parse_unary(self.below(tok, depth))
            return _UNARY[tok.text](child), h + 1
        return self.parse_primary(depth)

    def parse_primary(self, depth: int) -> tuple[LtlNode, int]:
        tok = self.peek()
        if tok.text in _LITERAL:
            self.next()
            return _LITERAL[tok.text](), 1
        if tok.text == "(":
            self.next()
            node = self.parse_binary(self.below(tok, depth))
            self.expect(")")
            return node
        if tok.text == "[":
            self.next()
            node = self.parse_predicate()
            self.expect("]")
            return node, 1
        if tok.kind == "id":
            return BoolProp(*self.parse_ref("proposition name")), 1
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

    def parse_ref(self, what: str) -> tuple[str, TraceVar]:
        """`name@trace`, where `what` says what the name is."""
        name = self.parse_ident(what)
        self.expect("@")
        var = self.resolve_var(self.parse_ident("trace variable"))
        return name.text, var

    def parse_constant(self) -> float:
        negate = self.peek().text == "-"
        if negate:
            self.next()
        tok = self.peek()
        if tok.kind != "number":
            raise self.error(f"expected a numeric constant, found {tok.text!r}")
        value = float(tok.text)
        if not math.isfinite(value):
            raise self.error("numeric constant out of range")
        self.next()
        return -value if negate else value

    def parse_comparator(self) -> str:
        tok = self.peek()
        if tok.text not in COMPARATORS:
            raise self.error(f"expected one of {COMPARATORS}, found {tok.text!r}")
        return self.next().text

    def parse_predicate(self) -> Predicate:
        abs_diff = self.peek().text == "|"
        if abs_diff:
            self.next()
            name, var1 = self.parse_ref("valuation name")
            self.expect("-")
            name2, var2 = self.parse_ref("valuation name")
            self.expect("|")
            if name != name2:
                raise self.error(f"absolute difference mixes valuations {name!r} and {name2!r}")
            args = (var1, var2)
        else:
            name, var = self.parse_ref("valuation name")
            args = (var,)
        return Predicate(name, args, self.parse_comparator(), self.parse_constant(), abs_diff)


def parse_formula(text: str) -> Formula:
    """Parse concrete syntax into a Formula; raises on malformed input.

    Lines starting with '#' are comments.  Guarantees the result is closed:
    every atom's trace variable is bound by exactly one quantifier in the
    prefix, and that its body has at most MAX_DEPTH levels.
    """
    return _Parser(_tokenize(text)).parse_formula()


# ---------------------------------------------------------------------------
# Input files

def load_formula(path, parse=parse_formula):
    """`parse` of the text of the formula file at `path`, by default its Formula."""
    return read_input("formula", path, parse)


def read_input(noun: str, path, parse=None):
    """The text of the `noun` file at `path`, read as UTF-8, or `parse` of it.

    The file is read on every call, so an edited file is a new text.  The
    value `parse` gave is kept for the last 64 distinct `(parse, text)`
    pairs and handed to every call that reads one of them again, so nothing
    may mutate it; a text that fails to parse is parsed again on every call.
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
        return _parsed(parse, text)
    except ValueError as exc:
        raise InputError(f"{noun} file {path}: {exc}") from exc


@functools.lru_cache(maxsize=64)
def _parsed(parse, text: str):
    """`parse(text)`; `lru_cache` keeps no call that raised."""
    return parse(text)


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

def format_number(v) -> str:
    """An integral float as an int, any other float by `repr`, anything else by `str`."""
    if isinstance(v, float):
        return str(int(v)) if v.is_integer() else repr(v)
    return str(v)


def _unparse_node(node: LtlNode) -> tuple[str, int]:
    """Return (text, level) for a body node."""
    kind = type(node)
    if kind in _UNARY_SYMBOL:
        symbol = _UNARY_SYMBOL[kind]
        # a letter needs a space, or it and the operand read as one name
        space = " " if symbol.isalpha() else ""
        return f"{symbol}{space}{_wrap(node.child, _TIGHTEST)}", _TIGHTEST
    if kind in _BINARY_SYMBOL:
        symbol, level, right = _BINARY_SYMBOL[kind]
        # the operand on the associative side may sit at the operator's own
        # level; the other needs a tighter one
        return (f"{_wrap(node.left, level + right)} {symbol} "
                f"{_wrap(node.right, level + (not right))}"), level
    if kind in _LITERAL_NAME:
        return _LITERAL_NAME[kind], _TIGHTEST
    if isinstance(node, BoolProp):
        return f"{node.prop}@{node.trace.name}", _TIGHTEST
    if isinstance(node, Predicate):
        if node.abs_diff:
            a, b = node.args
            inner = f"|{node.valuation}@{a.name} - {node.valuation}@{b.name}|"
        else:
            inner = f"{node.valuation}@{node.args[0].name}"
        # a -0 keeps its sign, which the predicate's zero margins take
        zero = node.constant == 0 and math.copysign(1, node.constant) < 0
        return f"[ {inner} {node.comparator} {'-0' if zero else format_number(node.constant)} ]", _TIGHTEST
    raise FormulaError(f"cannot unparse node {node!r}")


def _wrap(node: LtlNode, min_level: int) -> str:
    text, level = _unparse_node(node)
    return f"({text})" if level < min_level else text


def unparse(f: Formula) -> str:
    """Render a formula; `parse_formula(unparse(f))` is structurally equal to f."""
    parts = [f"{q.kind} {q.var.name}." for q in f.prefix]
    parts.append(_unparse_node(f.body)[0])
    return " ".join(parts)
