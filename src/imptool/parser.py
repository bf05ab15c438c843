"""Concrete syntax for IMP: lexer, recursive-descent parsers, and
pretty-printers, plus the textual assembly format for the stack machine.

Grammar, resolved:

    com       ::= stmt (";" stmt)*                  -- ";" associates right
    stmt      ::= "skip"
                | ident ":=" aexp
                | "if" "(" bexp ")" "{" com "}" "else" "{" com "}"
                | "while" "(" bexp ")" annot? "{" com "}"
    annot     ::= "invariant" "(" assertion ")" ("measure" "(" aexp ")")?
    aexp      ::= aexp "+" aatom | aatom            -- "+" associates left
    aatom     ::= int | ident | "(" aexp ")"
    bexp      ::= bexp "&&" batom | batom
    batom     ::= "true" | "false" | "!" batom | aexp "<" aexp | "(" bexp ")"
    assertion ::= aor ("->" assertion)?             -- "->" associates right
    aor       ::= aor "||" aand | aand
    aand      ::= aand "&&" aunary | aunary
    aunary    ::= "!" aunary | aatom'
    aatom'    ::= "true" | "false" | aexp cmp aexp | "(" assertion ")"
    cmp       ::= "<" | "<=" | "="

Integers are ASCII digits, and negative numbers exist only as literal tokens
(`x + -1`).  Keywords are reserved, `//` starts a comment, and identifiers
beginning with a double underscore are reserved for the verifier's snapshot
variables.  Input nested deeper than the interpreter's recursion limit is a
`ParseError` ("nesting too deep").

The pretty-printers emit text that parses back to the identical AST: a loop
prints its invariant and measure, so `pretty_com` output parses back with
`parse_annotated_com`, and with `parse_com` when no loop is annotated.  The
concrete syntax has no statement grouping, so sequences are always written
(and re-parsed) right-nested; printing a left-nested sequence flattens it.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, fields

from .hoare import (
    AAnd,
    ACmp,
    AFalse,
    AImp,
    ANot,
    AOr,
    Assertion,
    ATrue,
    CmpOp,
)
from .machine import Add, Instr, Jmp, JmpGe, JmpLess, Load, LoadI, Store
from .syntax import (
    AExp,
    And,
    Assign,
    BExp,
    BoolLit,
    Com,
    If,
    Less,
    Not,
    NumLit,
    Plus,
    Seq,
    Skip,
    Var,
    While,
    seq_chain,
)


@dataclass(frozen=True, slots=True)
class SourceSpan:
    """1-based, inclusive region of the source text."""

    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def __str__(self) -> str:
        return f"{self.start_line}:{self.start_col}"


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan, expected: tuple[str, ...] = ()) -> None:
        detail = f"{span.start_line}:{span.start_col}: {message}"
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        super().__init__(detail)
        self.span = span
        self.expected = expected


KEYWORDS = frozenset({"skip", "if", "else", "while", "true", "false", "invariant", "measure"})

# Each match is the layout (whitespace and comments) before one token, then
# that token in group 1: a symbol (two-character ones first), an integer, an
# identifier, or the empty end of input.  Group 2 instead holds a reserved
# `__` name or a character that starts no token.
_TOKEN_RE = re.compile(
    r"(?:[ \t\r\n]+|//[^\n]*)*"
    r"(?:(:=|->|<=|&&|\|\||[;+<=!(){}]|-?[0-9]+|[A-Za-z][A-Za-z0-9_]*|_(?!_)[A-Za-z0-9_]*|\Z)"
    r"|(__[A-Za-z0-9_]*|.))"
)
# The kind of every token that is not an integer or an identifier.
_KINDS = {text: text for text in (":=", "->", "<=", "&&", "||", *";+<=!(){}", *KEYWORDS)}
_KINDS[""] = "eof"
_CMP_OPS = {"<": CmpOp.LT, "<=": CmpOp.LE, "=": CmpOp.EQ}


class _Parser:
    """Recursive descent over parallel token lists.

    A token's kind is the symbol or keyword itself, or "int", "ident" or
    "eof"; its line and column are computed from its start offset only when
    an error or a `While` needs a span.
    """

    def __init__(self, text: str, allow_annotations: bool) -> None:
        self.text = text
        self.allow_annotations = allow_annotations
        self.newlines: list[int] | None = None
        self.index = 0
        kinds: list[str] = []
        texts: list[str] = []
        starts: list[int] = []
        for m in _TOKEN_RE.finditer(text):
            lexeme = m[1]
            if lexeme is None:
                bad = m[2]
                message = (
                    f"identifier '{bad}' uses the reserved '__' prefix"
                    if len(bad) > 1
                    else f"unexpected character {bad!r}"
                )
                raise ParseError(message, self.span(m.start(2), len(bad)))
            kind = _KINDS.get(lexeme) or ("int" if lexeme[0] in "-0123456789" else "ident")
            kinds.append(kind)
            texts.append(lexeme)
            starts.append(m.start(1))
            if kind == "eof":
                break
        # The end of input sits on the last character of the last token.
        starts[-1] = starts[-2] + len(texts[-2]) - 1 if len(starts) > 1 else 0
        self.kinds = kinds
        self.texts = texts
        self.starts = starts

    # -- token plumbing

    def span(self, start: int, length: int) -> SourceSpan:
        """The one-line span of `length` characters from offset `start`."""
        if self.newlines is None:
            self.newlines = [m.start() for m in re.finditer("\n", self.text)]
        line = bisect_left(self.newlines, start)
        col = start - (self.newlines[line - 1] if line else -1)
        return SourceSpan(line + 1, col, line + 1, col + max(length, 1) - 1)

    def token_span(self, i: int) -> SourceSpan:
        return self.span(self.starts[i], len(self.texts[i]))

    def eat(self, kind: str) -> bool:
        if self.kinds[self.index] == kind:
            self.index += 1
            return True
        return False

    def expect(self, kind: str) -> None:
        if not self.eat(kind):
            raise self.error(f"'{kind}'")

    def error(self, *expected: str) -> ParseError:
        i = self.index
        found = "end of input" if self.kinds[i] == "eof" else f"'{self.texts[i]}'"
        return ParseError(f"unexpected {found}", self.token_span(i), expected)

    # -- commands

    def statements(self) -> Com:
        parts = [self.statement()]
        while self.eat(";"):
            parts.append(self.statement())
        return seq_chain(parts)

    def statement(self) -> Com:
        kind = self.kinds[self.index]
        if kind == "skip":
            self.index += 1
            return Skip()
        if kind == "if":
            return self.if_statement()
        if kind == "while":
            return self.while_statement()
        if kind == "ident":
            target = self.texts[self.index]
            self.index += 1
            self.expect(":=")
            return Assign(target, self.aexp())
        raise self.error("'skip'", "an assignment", "'if'", "'while'")

    def if_statement(self) -> Com:
        self.index += 1  # 'if'
        self.expect("(")
        cond = self.bexp()
        self.expect(")")
        self.expect("{")
        then_branch = self.statements()
        self.expect("}")
        self.expect("else")
        self.expect("{")
        else_branch = self.statements()
        self.expect("}")
        return If(cond, then_branch, else_branch)

    def while_statement(self) -> Com:
        span = self.token_span(self.index)  # 'while'
        self.index += 1
        self.expect("(")
        cond = self.bexp()
        self.expect(")")
        invariant = None
        measure = None
        if self.allow_annotations and self.eat("invariant"):
            self.expect("(")
            invariant = self.assertion()
            self.expect(")")
            if self.eat("measure"):
                self.expect("(")
                measure = self.aexp()
                self.expect(")")
        self.expect("{")
        body = self.statements()
        self.expect("}")
        return While(cond, body, invariant, measure, span)

    # -- arithmetic expressions

    def aexp(self) -> AExp:
        node = self.aatom()
        while self.eat("+"):
            node = Plus(node, self.aatom())
        return node

    def aatom(self) -> AExp:
        i = self.index
        kind = self.kinds[i]
        if kind == "int":
            self.index = i + 1
            return NumLit(int(self.texts[i]))
        if kind == "ident":
            self.index = i + 1
            return Var(self.texts[i])
        if self.eat("("):
            node = self.aexp()
            self.expect(")")
            return node
        raise self.error("an integer literal", "an identifier", "'('")

    # -- boolean expressions

    def bexp(self) -> BExp:
        node = self.batom()
        while self.eat("&&"):
            node = And(node, self.batom())
        return node

    def batom(self) -> BExp:
        if self.eat("true"):
            return BoolLit(True)
        if self.eat("false"):
            return BoolLit(False)
        if self.eat("!"):
            return Not(self.batom())
        mark = self.index
        if self.eat("("):
            try:
                inner = self.bexp()
                self.expect(")")
                return inner
            except ParseError:
                self.index = mark
        left = self.aexp()
        self.expect("<")
        return Less(left, self.aexp())

    # -- assertions

    def assertion(self) -> Assertion:
        left = self.assert_or()
        if self.eat("->"):
            return AImp(left, self.assertion())
        return left

    def assert_or(self) -> Assertion:
        node = self.assert_and()
        while self.eat("||"):
            node = AOr(node, self.assert_and())
        return node

    def assert_and(self) -> Assertion:
        node = self.assert_unary()
        while self.eat("&&"):
            node = AAnd(node, self.assert_unary())
        return node

    def assert_unary(self) -> Assertion:
        if self.eat("!"):
            return ANot(self.assert_unary())
        return self.assert_atom()

    def assert_atom(self) -> Assertion:
        if self.eat("true"):
            return ATrue()
        if self.eat("false"):
            return AFalse()
        mark = self.index
        if self.eat("("):
            try:
                inner = self.assertion()
                self.expect(")")
                return inner
            except ParseError:
                self.index = mark
        left = self.aexp()
        op = _CMP_OPS.get(self.kinds[self.index])
        if op is None:
            raise self.error("'<'", "'<='", "'='")
        self.index += 1
        return ACmp(op, left, self.aexp())


# --- entry points ---------------------------------------------------------------


def _parse(text: str, rule, allow_annotations: bool = False):
    parser = _Parser(text, allow_annotations)
    try:
        node = rule(parser)
    except RecursionError:
        raise ParseError("nesting too deep", parser.token_span(parser.index)) from None
    if parser.kinds[parser.index] != "eof":
        raise parser.error("end of input")
    return node


def parse_com(text: str) -> Com:
    """Parse a plain command; invariant annotations are rejected."""
    return _parse(text, _Parser.statements)


def parse_annotated_com(text: str) -> Com:
    """Parse a command whose loops may carry invariant/measure annotations."""
    return _parse(text, _Parser.statements, allow_annotations=True)


def parse_aexp(text: str) -> AExp:
    return _parse(text, _Parser.aexp)


def parse_bexp(text: str) -> BExp:
    return _parse(text, _Parser.bexp)


def parse_assertion(text: str) -> Assertion:
    return _parse(text, _Parser.assertion)


# --- pretty-printing --------------------------------------------------------------


def pretty_aexp(a: AExp) -> str:
    if type(a) is Plus:
        return f"{pretty_aexp(a.left)} + {_aatom_str(a.right)}"
    return _aatom_str(a)


def _aatom_str(a: AExp) -> str:
    t = type(a)
    if t is NumLit:
        return str(a.value)
    if t is Var:
        return a.name
    return f"({pretty_aexp(a)})"


def pretty_bexp(b: BExp) -> str:
    if type(b) is And:
        return f"{pretty_bexp(b.left)} && {_batom_str(b.right)}"
    return _batom_str(b)


def _batom_str(b: BExp) -> str:
    t = type(b)
    if t is BoolLit:
        return "true" if b.value else "false"
    if t is Not:
        inner = b.inner
        if type(inner) in (BoolLit, Not):
            return f"!{_batom_str(inner)}"
        return f"!({pretty_bexp(inner)})"
    if t is Less:
        return f"{pretty_aexp(b.left)} < {pretty_aexp(b.right)}"
    return f"({pretty_bexp(b)})"


def pretty_assertion(a: Assertion) -> str:
    if type(a) is AImp:
        return f"{_assn_or_str(a.premise)} -> {pretty_assertion(a.conclusion)}"
    return _assn_or_str(a)


def _assn_or_str(a: Assertion) -> str:
    t = type(a)
    if t is AOr:
        return f"{_assn_or_str(a.left)} || {_assn_and_str(a.right)}"
    if t is AImp:
        return f"({pretty_assertion(a)})"
    return _assn_and_str(a)


def _assn_and_str(a: Assertion) -> str:
    t = type(a)
    if t is AAnd:
        return f"{_assn_and_str(a.left)} && {_assn_unary_str(a.right)}"
    if t is AImp or t is AOr:
        return f"({pretty_assertion(a)})"
    return _assn_unary_str(a)


def _assn_unary_str(a: Assertion) -> str:
    t = type(a)
    if t is ANot:
        inner = a.inner
        if type(inner) in (ATrue, AFalse, ANot):
            return f"!{_assn_unary_str(inner)}"
        return f"!({pretty_assertion(inner)})"
    if t is ATrue:
        return "true"
    if t is AFalse:
        return "false"
    if t is ACmp:
        return f"{pretty_aexp(a.left)} {a.op.value} {pretty_aexp(a.right)}"
    return f"({pretty_assertion(a)})"


def pretty_com(c: Com) -> str:
    """Single-line rendering that parses back to the identical command, loop
    annotations included (with `parse_annotated_com` when there are any).
    A loop with a measure but no invariant has no concrete syntax and raises
    `ValueError`.

    Sequence spines are flattened iteratively, so arbitrarily long programs
    print without recursion.
    """
    parts: list[str] = []
    stack: list[Com] = [c]
    while stack:
        node = stack.pop()
        t = type(node)
        if t is Seq:
            stack.append(node.second)
            stack.append(node.first)
        elif t is Skip:
            parts.append("skip")
        elif t is Assign:
            parts.append(f"{node.target} := {pretty_aexp(node.rhs)}")
        elif t is If:
            parts.append(
                f"if ({pretty_bexp(node.cond)}) {{ {pretty_com(node.then_branch)} }}"
                f" else {{ {pretty_com(node.else_branch)} }}"
            )
        elif t is While:
            if node.invariant is None and node.measure is not None:
                raise ValueError(f"loop has a measure but no invariant: {node!r}")
            clauses = ""
            if node.invariant is not None:
                clauses = f" invariant ({pretty_assertion(node.invariant)})"
                if node.measure is not None:
                    clauses += f" measure ({pretty_aexp(node.measure)})"
            parts.append(f"while ({pretty_bexp(node.cond)}){clauses} {{ {pretty_com(node.body)} }}")
        else:
            raise TypeError(f"not a command: {node!r}")
    return "; ".join(parts)


# --- assembly text format ----------------------------------------------------------


# An integer anywhere the CLI reads one, by the rule of the integer token
# above: ASCII digits with an optional minus.
INTEGER_RE = re.compile(r"-?[0-9]+")
_ASM_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
# Each instruction class by its mnemonic; its one field, if any, is the operand.
_MNEMONICS = {
    "LOADI": LoadI, "LOAD": Load, "ADD": Add, "STORE": Store, "JMP": Jmp, "JMPLESS": JmpLess, "JMPGE": JmpGe
}
_MNEMONIC_OF = {cls: mnemonic for mnemonic, cls in _MNEMONICS.items()}


def parse_asm(text: str) -> list[Instr]:
    """Parse the one-instruction-per-line assembly format.

    Mnemonics are LOADI, LOAD, ADD, STORE, JMP, JMPLESS, JMPGE; `//` starts
    a comment; blank lines are skipped.
    """
    instrs: list[Instr] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//", 1)[0].strip()
        if not line:
            continue
        mnemonic, *operands = line.split()
        span = SourceSpan(lineno, 1, lineno, max(len(raw), 1))
        ctor = _MNEMONICS.get(mnemonic)
        if ctor is None:
            raise ParseError(f"unknown mnemonic '{mnemonic}'", span)
        if ctor is Add:
            if operands:
                raise ParseError("ADD takes no operand", span)
            instrs.append(Add())
        elif ctor is Load or ctor is Store:
            if len(operands) != 1 or not _ASM_IDENT_RE.match(operands[0]):
                raise ParseError(f"{mnemonic} needs one identifier operand", span)
            instrs.append(ctor(operands[0]))
        else:
            if len(operands) != 1 or not INTEGER_RE.fullmatch(operands[0]):
                raise ParseError(f"{mnemonic} needs one integer operand", span)
            instrs.append(ctor(int(operands[0])))
    return instrs


def pretty_asm(instrs: list[Instr]) -> str:
    """Render instructions in the format parse_asm reads back."""
    lines: list[str] = []
    for instr in instrs:
        mnemonic = _MNEMONIC_OF.get(type(instr))
        if mnemonic is None:
            raise TypeError(f"not an instruction: {instr!r}")
        lines.append(" ".join([mnemonic, *(str(getattr(instr, f.name)) for f in fields(instr))]))
    return "\n".join(lines) + ("\n" if lines else "")
