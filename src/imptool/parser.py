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

Negative numbers exist only as literal tokens (`x + -1`).  Keywords are
reserved, `//` starts a comment, and identifiers beginning with a double
underscore are reserved for the verifier's snapshot variables.

The pretty-printers emit text that parses back to the identical AST: a loop
prints its invariant and measure, so `pretty_com` output parses back with
`parse_annotated_com`, and with `parse_com` when no loop is annotated.  The
concrete syntax has no statement grouping, so sequences are always written
(and re-parsed) right-nested; printing a left-nested sequence flattens it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TWO_CHAR_SYMBOLS = (":=", "->", "<=", "&&", "||")
_ONE_CHAR_SYMBOLS = ";+<=!(){}"


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # "int", "ident", "kw", "sym", "eof"
    text: str
    span: SourceSpan
    value: int = 0


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line = 1
    col = 1
    i = 0
    n = len(text)

    def span(length: int) -> SourceSpan:
        return SourceSpan(line, col, line, col + max(length, 1) - 1)

    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        two = text[i : i + 2]
        if two in _TWO_CHAR_SYMBOLS:
            tokens.append(_Token("sym", two, span(2)))
            i += 2
            col += 2
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            lexeme = text[i:j]
            tokens.append(_Token("int", lexeme, span(len(lexeme)), int(lexeme)))
            col += j - i
            i = j
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            lexeme = m.group(0)
            tok_span = span(len(lexeme))
            if lexeme in KEYWORDS:
                tokens.append(_Token("kw", lexeme, tok_span))
            elif lexeme.startswith("__"):
                raise ParseError(
                    f"identifier '{lexeme}' uses the reserved '__' prefix", tok_span
                )
            else:
                tokens.append(_Token("ident", lexeme, tok_span))
            col += len(lexeme)
            i = m.end()
            continue
        if ch in _ONE_CHAR_SYMBOLS:
            tokens.append(_Token("sym", ch, span(1)))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", span(1))

    if tokens:
        end = tokens[-1].span
        eof_span = SourceSpan(end.end_line, end.end_col, end.end_line, end.end_col)
    else:
        eof_span = SourceSpan(1, 1, 1, 1)
    tokens.append(_Token("eof", "", eof_span))
    return tokens


class _Parser:
    def __init__(self, text: str, allow_annotations: bool) -> None:
        self.tokens = _tokenize(text)
        self.index = 0
        self.allow_annotations = allow_annotations

    # -- token plumbing

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        if tok.kind != "eof":
            self.index += 1
        return tok

    def at_sym(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "sym" and tok.text == text

    def at_kw(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "kw" and tok.text == text

    def eat_sym(self, text: str) -> bool:
        if self.at_sym(text):
            self.advance()
            return True
        return False

    def expect_sym(self, text: str) -> _Token:
        if not self.at_sym(text):
            tok = self.peek()
            raise ParseError(f"unexpected {self._describe(tok)}", tok.span, (f"'{text}'",))
        return self.advance()

    @staticmethod
    def _describe(tok: _Token) -> str:
        if tok.kind == "eof":
            return "end of input"
        return f"'{tok.text}'"

    def expect_eof(self) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected {self._describe(tok)}", tok.span, ("end of input",))

    # -- commands

    def statements(self) -> Com:
        parts = [self.statement()]
        while self.eat_sym(";"):
            parts.append(self.statement())
        node = parts[-1]
        for part in reversed(parts[:-1]):
            node = Seq(part, node)
        return node

    def statement(self) -> Com:
        tok = self.peek()
        if tok.kind == "kw":
            if tok.text == "skip":
                self.advance()
                return Skip()
            if tok.text == "if":
                return self.if_statement()
            if tok.text == "while":
                return self.while_statement()
        if tok.kind == "ident":
            self.advance()
            self.expect_sym(":=")
            rhs = self.aexp()
            return Assign(tok.text, rhs)
        raise ParseError(
            f"unexpected {self._describe(tok)}",
            tok.span,
            ("'skip'", "an assignment", "'if'", "'while'"),
        )

    def if_statement(self) -> Com:
        self.advance()  # 'if'
        self.expect_sym("(")
        cond = self.bexp()
        self.expect_sym(")")
        self.expect_sym("{")
        then_branch = self.statements()
        self.expect_sym("}")
        tok = self.peek()
        if not (tok.kind == "kw" and tok.text == "else"):
            raise ParseError(f"unexpected {self._describe(tok)}", tok.span, ("'else'",))
        self.advance()
        self.expect_sym("{")
        else_branch = self.statements()
        self.expect_sym("}")
        return If(cond, then_branch, else_branch)

    def while_statement(self) -> Com:
        kw = self.advance()  # 'while'
        self.expect_sym("(")
        cond = self.bexp()
        self.expect_sym(")")
        invariant = None
        measure = None
        if self.allow_annotations and self.at_kw("invariant"):
            self.advance()
            self.expect_sym("(")
            invariant = self.assertion()
            self.expect_sym(")")
            if self.at_kw("measure"):
                self.advance()
                self.expect_sym("(")
                measure = self.aexp()
                self.expect_sym(")")
        self.expect_sym("{")
        body = self.statements()
        self.expect_sym("}")
        return While(cond, body, invariant, measure, kw.span)

    # -- arithmetic expressions

    def aexp(self) -> AExp:
        node = self.aatom()
        while self.eat_sym("+"):
            node = Plus(node, self.aatom())
        return node

    def aatom(self) -> AExp:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return NumLit(tok.value)
        if tok.kind == "ident":
            self.advance()
            return Var(tok.text)
        if self.at_sym("("):
            self.advance()
            node = self.aexp()
            self.expect_sym(")")
            return node
        raise ParseError(
            f"unexpected {self._describe(tok)}",
            tok.span,
            ("an integer literal", "an identifier", "'('"),
        )

    # -- boolean expressions

    def bexp(self) -> BExp:
        node = self.batom()
        while self.eat_sym("&&"):
            node = And(node, self.batom())
        return node

    def batom(self) -> BExp:
        tok = self.peek()
        if tok.kind == "kw" and tok.text in ("true", "false"):
            self.advance()
            return BoolLit(tok.text == "true")
        if self.at_sym("!"):
            self.advance()
            return Not(self.batom())
        if self.at_sym("("):
            mark = self.index
            try:
                self.advance()
                inner = self.bexp()
                self.expect_sym(")")
                return inner
            except ParseError:
                self.index = mark
        left = self.aexp()
        self.expect_sym("<")
        right = self.aexp()
        return Less(left, right)

    # -- assertions

    def assertion(self) -> Assertion:
        left = self.assert_or()
        if self.eat_sym("->"):
            return AImp(left, self.assertion())
        return left

    def assert_or(self) -> Assertion:
        node = self.assert_and()
        while self.eat_sym("||"):
            node = AOr(node, self.assert_and())
        return node

    def assert_and(self) -> Assertion:
        node = self.assert_unary()
        while self.eat_sym("&&"):
            node = AAnd(node, self.assert_unary())
        return node

    def assert_unary(self) -> Assertion:
        if self.at_sym("!"):
            self.advance()
            return ANot(self.assert_unary())
        return self.assert_atom()

    def assert_atom(self) -> Assertion:
        tok = self.peek()
        if tok.kind == "kw" and tok.text in ("true", "false"):
            self.advance()
            return ATrue() if tok.text == "true" else AFalse()
        if self.at_sym("("):
            mark = self.index
            try:
                self.advance()
                inner = self.assertion()
                self.expect_sym(")")
                return inner
            except ParseError:
                self.index = mark
        left = self.aexp()
        tok = self.peek()
        if tok.kind == "sym" and tok.text in ("<", "<=", "="):
            self.advance()
            op = {"<": CmpOp.LT, "<=": CmpOp.LE, "=": CmpOp.EQ}[tok.text]
            return ACmp(op, left, self.aexp())
        raise ParseError(
            f"unexpected {self._describe(tok)}", tok.span, ("'<'", "'<='", "'='")
        )


# --- entry points ---------------------------------------------------------------


def _parse(text: str, rule, allow_annotations: bool = False):
    parser = _Parser(text, allow_annotations)
    node = rule(parser)
    parser.expect_eof()
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


_ASM_INT_RE = re.compile(r"-?\d+$")
_ASM_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


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
        parts = line.split()
        span = SourceSpan(lineno, 1, lineno, max(len(raw), 1))
        mnemonic = parts[0]
        if mnemonic in ("LOADI", "JMP", "JMPLESS", "JMPGE"):
            if len(parts) != 2 or not _ASM_INT_RE.match(parts[1]):
                raise ParseError(f"{mnemonic} needs one integer operand", span)
            value = int(parts[1])
            ctor = {"LOADI": LoadI, "JMP": Jmp, "JMPLESS": JmpLess, "JMPGE": JmpGe}[mnemonic]
            instrs.append(ctor(value))
        elif mnemonic in ("LOAD", "STORE"):
            if len(parts) != 2 or not _ASM_IDENT_RE.match(parts[1]):
                raise ParseError(f"{mnemonic} needs one identifier operand", span)
            instrs.append(Load(parts[1]) if mnemonic == "LOAD" else Store(parts[1]))
        elif mnemonic == "ADD":
            if len(parts) != 1:
                raise ParseError("ADD takes no operand", span)
            instrs.append(Add())
        else:
            raise ParseError(f"unknown mnemonic '{mnemonic}'", span)
    return instrs


def pretty_asm(instrs: list[Instr]) -> str:
    """Render instructions in the format parse_asm reads back."""
    lines: list[str] = []
    for instr in instrs:
        t = type(instr)
        if t is LoadI:
            lines.append(f"LOADI {instr.value}")
        elif t is Load:
            lines.append(f"LOAD {instr.name}")
        elif t is Add:
            lines.append("ADD")
        elif t is Store:
            lines.append(f"STORE {instr.name}")
        elif t is Jmp:
            lines.append(f"JMP {instr.offset}")
        elif t is JmpLess:
            lines.append(f"JMPLESS {instr.offset}")
        elif t is JmpGe:
            lines.append(f"JMPGE {instr.offset}")
        else:
            raise TypeError(f"not an instruction: {instr!r}")
    return "\n".join(lines) + ("\n" if lines else "")
