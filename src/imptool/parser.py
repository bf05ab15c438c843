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

A condition (`bexp`) is the fragment of the assertion language without
`||`, `->`, `<=` and `=`, and parses to the assertion it denotes.  Precedence
and associativity come from one table, `_CONNECTIVES`: one precedence-climbing
method parses both languages by it, and `pretty_assertion` parenthesises by
it.

Integers are ASCII digits, and negative numbers exist only as literal tokens
(`x + -1`).  Keywords are reserved, `//` starts a comment, and identifiers
beginning with a double underscore are reserved for the verifier's snapshot
variables.  Input nested deeper than the interpreter's recursion limit is a
`ParseError` ("nesting too deep").  One `findall` lexes the whole text, and
token offsets, lines and columns are computed only when a span is needed,
lexing again only as far as that token.  Nodes are immutable, so a parse
builds one `NumLit` or `Var` per distinct lexeme and shares it.  A sum prints
along its left spine, and an assertion by an explicit stack, so both print
at any size without recursion.

The pretty-printers emit text that parses back to the identical AST, a
command when every test in it is a condition: a loop prints its invariant
and measure, so `pretty_com` output parses back with
`parse_annotated_com`, and with `parse_com` when no loop is annotated.  The
concrete syntax has no statement grouping, so sequences are always written
(and re-parsed) right-nested; printing a left-nested sequence flattens it.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import fields
from itertools import islice

from .machine import Add, Instr, Jmp, JmpGe, JmpLess, Load, LoadI, Store
from .syntax import (
    AAnd,
    ACmp,
    AExp,
    AFalse,
    AImp,
    ANot,
    AOr,
    Assertion,
    Assign,
    ATrue,
    CmpOp,
    Com,
    If,
    NumLit,
    Plus,
    Seq,
    Skip,
    SourceSpan,
    Var,
    While,
    seq_chain,
)


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan, expected: tuple[str, ...] = ()) -> None:
        detail = f"{span}: {message}"
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        super().__init__(detail)
        self.span = span
        self.expected = expected


KEYWORDS = frozenset({"skip", "if", "else", "while", "true", "false", "invariant", "measure"})

# An integer and an identifier wherever IMP text, assembly or a CLI option
# holds one.  The program grammar further rejects keywords and `__` names.
INTEGER_RE = re.compile(r"-?[0-9]+")
IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# Whitespace and comments.
_LAYOUT = r"[ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*"
_LAYOUT_RE = re.compile(_LAYOUT)
# A reserved `__` name or a character that starts no token.
_BAD_RE = re.compile(rf"(?=__){IDENT_RE.pattern}|.")
# Each match is one token, then the layout after it.  Group 1 holds the
# token: a symbol (two-character ones first), an integer, an identifier, or
# the empty end of input.  A match of `_BAD_RE` leaves it empty, so a
# `findall` from past the leading layout returns every lexeme, a bad one as
# "", and ends with the "" of the end of input.  With the layout before the
# token instead, trailing layout would make the end of input match twice.
_TOKEN_RE = re.compile(
    rf"(?:(:=|->|<=|&&|\|\||[;+<=!(){{}}]|{INTEGER_RE.pattern}|(?!__){IDENT_RE.pattern}|\Z)|{_BAD_RE.pattern})"
    + _LAYOUT
)
# The kind of every token that is not an integer or an identifier.
_KINDS = {text: text for text in (":=", "->", "<=", "&&", "||", *";+<=!(){}", *KEYWORDS)}
_KINDS[""] = "eof"
# The binary connectives, loosest first: each symbol's node class, binding
# power, and the least power its left and right operands bind at without
# parentheses.  `->` associates right, `||` and `&&` left.  A comparison binds
# at 4, and `!`, `true` and `false` at 5, tightest of all.
_CONNECTIVES = {"->": (AImp, 1, 2, 1), "||": (AOr, 2, 2, 3), "&&": (AAnd, 3, 3, 4)}
_CONNECTIVE_OF = {cls: (symbol, *levels) for symbol, (cls, *levels) in _CONNECTIVES.items()}
_CMP_OPS = {op.value: op for op in CmpOp}
# A language: its connectives and its comparisons.  A condition has `&&` and `<`.
_ASSERTION = (_CONNECTIVES, _CMP_OPS)
_CONDITION = ({"&&": _CONNECTIVES["&&"]}, {"<": CmpOp.LT})


class _Parser:
    """Recursive descent over parallel token lists.

    A token's kind is the symbol or keyword itself, or "int", "ident" or
    "eof".  One `findall` lexes the text; the start offsets of the tokens, and
    from them their lines and columns, are computed only when an error or a
    `While` needs a span, by lexing again up to that token.
    """

    def __init__(self, text: str, allow_annotations: bool) -> None:
        self.text = text
        self.allow_annotations = allow_annotations
        self.newlines: list[int] | None = None
        first = _LAYOUT_RE.match(text).end()
        self.starts: list[int] = []  # of the tokens lexed again so far
        self.matches = _TOKEN_RE.finditer(text, first)
        self.index = 0
        self.leaves: dict[str, AExp] = {}  # one NumLit or Var per lexeme
        # Each parenthesised sum parsed, and the index after it, by the index
        # of its `(`: `unary` tries a `(` as a formula, then as a sum.
        self.sums: dict[int, tuple[AExp, int]] = {}
        self.texts = texts = _TOKEN_RE.findall(text, first)
        bad = texts.index("")  # the end of input, unless a bad lexeme comes first
        if bad < len(texts) - 1:
            start = self.token_start(bad)
            lexeme = _BAD_RE.match(text, start)[0]
            message = (
                f"identifier '{lexeme}' uses the reserved '__' prefix"
                if len(lexeme) > 1
                else f"unexpected character {lexeme!r}"
            )
            raise ParseError(message, self.span(start, len(lexeme)))
        self.kinds = [_KINDS.get(t) or ("int" if t[0] in "-0123456789" else "ident") for t in texts]

    # -- token plumbing

    def token_start(self, i: int) -> int:
        """The start offset of token i; the end of input sits on the last
        character of the last token.  The text is lexed again only up to
        token i."""
        if i == len(self.texts) - 1:
            return self.token_start(i - 1) + len(self.texts[i - 1]) - 1 if i else 0
        starts = self.starts
        if len(starts) <= i:
            starts += [m.start() for m in islice(self.matches, i + 1 - len(starts))]
        return starts[i]

    def span(self, start: int, length: int) -> SourceSpan:
        """The one-line span of `length` characters from offset `start`."""
        if self.newlines is None:
            self.newlines = [m.start() for m in re.finditer("\n", self.text)]
        line = bisect_left(self.newlines, start)
        col = start - (self.newlines[line - 1] if line else -1)
        return SourceSpan(line + 1, col, line + 1, col + max(length, 1) - 1)

    def token_span(self, i: int) -> SourceSpan:
        return self.span(self.token_start(i), len(self.texts[i]))

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
        cond = self.formula(_CONDITION)
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
        cond = self.formula(_CONDITION)
        self.expect(")")
        invariant = None
        measure = None
        if self.allow_annotations and self.eat("invariant"):
            self.expect("(")
            invariant = self.formula()
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
        if kind == "int" or kind == "ident":
            self.index = i + 1
            text = self.texts[i]
            leaf = self.leaves.get(text)
            if leaf is None:
                leaf = self.leaves[text] = NumLit(int(text)) if kind == "int" else Var(text)
            return leaf
        if kind == "(":
            if i not in self.sums:
                self.index = i + 1
                node = self.aexp()
                self.expect(")")
                self.sums[i] = node, self.index
            node, self.index = self.sums[i]
            return node
        raise self.error("an integer literal", "an identifier", "'('")

    # -- conditions and assertions

    def formula(self, lang=_ASSERTION, level: int = 0) -> Assertion:
        """An assertion of `lang` whose connectives bind at `level` or tighter."""
        connectives = lang[0]
        node = self.unary(lang)
        while True:
            row = connectives.get(self.kinds[self.index])
            if row is None or row[1] < level:
                return node
            self.index += 1
            node = row[0](node, self.formula(lang, row[3]))

    def unary(self, lang) -> Assertion:
        """`batom` or `aunary`: `!`, true, false, a comparison of `lang`, or
        a formula of `lang` in parentheses."""
        if self.eat("!"):
            return ANot(self.unary(lang))
        if self.eat("true"):
            return ATrue()
        if self.eat("false"):
            return AFalse()
        mark = self.index
        if self.eat("("):
            try:
                inner = self.formula(lang)
                self.expect(")")
                return inner
            except ParseError:
                self.index = mark
        left = self.aexp()
        ops = lang[1]
        op = ops.get(self.kinds[self.index])
        if op is None:
            raise self.error(*(f"'{text}'" for text in ops))
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


def parse_assertion(text: str) -> Assertion:
    return _parse(text, _Parser.formula)


# --- pretty-printing --------------------------------------------------------------


def pretty_aexp(a: AExp) -> str:
    atoms = []
    while type(a) is Plus:
        atoms.append(_aatom_str(a.right))
        a = a.left
    atoms.append(_aatom_str(a))
    atoms.reverse()
    return " + ".join(atoms)


def _aatom_str(a: AExp) -> str:
    t = type(a)
    if t is NumLit:
        return str(a.value)
    if t is Var:
        return a.name
    if t is Plus:
        return f"({pretty_aexp(a)})"
    raise TypeError(f"not an arithmetic expression: {a!r}")


def pretty_assertion(a: Assertion) -> str:
    """`a` with the parentheses its connectives need and no others.  An
    explicit stack of pending nodes and text walks it, so an assertion of any
    depth prints."""
    out: list[str] = []
    todo: list = [(a, 0)]  # (node, least level it binds at unparenthesised), or text
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        a, level = item
        t = type(a)
        row = _CONNECTIVE_OF.get(t)
        if row is not None:
            symbol, power, left, right = row
            first, second = (a.premise, a.conclusion) if t is AImp else (a.left, a.right)
            if power < level:
                out.append("(")
                todo.append(")")
            todo += [(second, right), f" {symbol} ", (first, left)]
        elif t is ANot:
            out.append("!")
            todo.append((a.inner, 5))
        elif t is ACmp:
            text = f"{pretty_aexp(a.left)} {a.op.value} {pretty_aexp(a.right)}"
            out.append(f"({text})" if level > 4 else text)
        elif t is ATrue or t is AFalse:
            out.append("true" if t is ATrue else "false")
        else:
            raise TypeError(f"not an assertion: {a!r}")
    return "".join(out)


def pretty_com(c: Com) -> str:
    """Single-line rendering of a command.  A command of the program language,
    whose every test is a condition, parses back to the identical command,
    loop annotations included (with `parse_annotated_com` when there are
    any); a test using `<=`, `=`, `||` or `->` prints but does not parse
    back.  A loop with a measure but no invariant has no concrete syntax and
    raises `ValueError`.

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
                f"if ({pretty_assertion(node.cond)}) {{ {pretty_com(node.then_branch)} }}"
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
            parts.append(f"while ({pretty_assertion(node.cond)}){clauses} {{ {pretty_com(node.body)} }}")
        else:
            raise TypeError(f"not a command: {node!r}")
    return "; ".join(parts)


# --- assembly text format ----------------------------------------------------------


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
            if len(operands) != 1 or not IDENT_RE.fullmatch(operands[0]):
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
