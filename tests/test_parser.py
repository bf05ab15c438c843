import hashlib
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import aexps, assertions, bexps, coms, names, reference_pretty_bexp
from imptool.hoare import (
    AAnd,
    ACmp,
    AFalse,
    AImp,
    AOr,
    ATrue,
    CmpOp,
    erase,
)
from imptool.harness import gen_bexp
from imptool import parser
from imptool.machine import Add, Jmp, JmpGe, JmpLess, Load, LoadI, Store, ccomp
from imptool.parser import (
    ParseError,
    parse_annotated_com,
    parse_asm,
    parse_assertion,
    parse_com,
    pretty_aexp,
    pretty_asm,
    pretty_assertion,
    pretty_com,
)
from imptool.syntax import (
    ANot,
    Assign,
    If,
    NumLit,
    Plus,
    Seq,
    Skip,
    Var,
    While,
    seq_spine,
)

# Expressions are parsed where a command holds them, after this prefix.
ASSIGN = "x := "


def rhs_of(text):
    """An arithmetic expression, parsed as the right side of an assignment."""
    return parse_com(ASSIGN + text).rhs


def cond_of(text):
    """A boolean expression, parsed as the condition of an `if`."""
    return parse_com(f"if ({text}) {{ skip }} else {{ skip }}").cond


class TestParseCom:
    def test_skip(self):
        assert parse_com("skip") == Skip()

    def test_assign(self):
        assert parse_com("x := x + 1") == Assign("x", Plus(Var("x"), NumLit(1)))

    def test_while(self):
        got = parse_com("while (i < 3) { i := i + 1 }")
        assert got == While(
            ACmp(CmpOp.LT, Var("i"), NumLit(3)), Assign("i", Plus(Var("i"), NumLit(1)))
        )

    def test_if_else(self):
        got = parse_com("if (x < 0) { y := 1 } else { y := 2 }")
        assert got == If(
            ACmp(CmpOp.LT, Var("x"), NumLit(0)),
            Assign("y", NumLit(1)),
            Assign("y", NumLit(2)),
        )

    def test_seq_is_right_associative(self):
        got = parse_com("skip; x := 1; skip")
        assert got == Seq(Skip(), Seq(Assign("x", NumLit(1)), Skip()))

    def test_plus_is_left_associative(self):
        assert rhs_of("x + 1 + 2") == Plus(Plus(Var("x"), NumLit(1)), NumLit(2))

    def test_parenthesized_aexp(self):
        assert rhs_of("x + (1 + 2)") == Plus(Var("x"), Plus(NumLit(1), NumLit(2)))

    def test_negative_literal(self):
        assert rhs_of("x + -1") == Plus(Var("x"), NumLit(-1))

    def test_and_is_left_associative(self):
        got = cond_of("true && false && x < 1")
        assert got == AAnd(
            AAnd(ATrue(), AFalse()), ACmp(CmpOp.LT, Var("x"), NumLit(1))
        )

    def test_not_binds_tightest(self):
        got = cond_of("!true && false")
        assert got == AAnd(ANot(ATrue()), AFalse())

    def test_parenthesized_bexp(self):
        got = cond_of("!(true && false)")
        assert got == ANot(AAnd(ATrue(), AFalse()))

    def test_comparison_inside_parens_stays_arithmetic_grouping(self):
        # '(' may open either a bexp or an aexp; backtracking resolves it
        assert cond_of("(x + 1) < y") == ACmp(CmpOp.LT, Plus(Var("x"), NumLit(1)), Var("y"))
        assert cond_of("(x < y)") == ACmp(CmpOp.LT, Var("x"), Var("y"))

    def test_comments_and_whitespace(self):
        text = "// setup\nx := 1;  // write\nskip\n"
        assert parse_com(text) == Seq(Assign("x", NumLit(1)), Skip())

    def test_one_leaf_per_lexeme(self):
        # nodes are immutable, so each literal and name is built once per parse
        first, second = seq_spine(parse_com("x := x + 1; y := (x + 1) + -1"))
        assert first.rhs.left is second.rhs.left.left
        assert first.rhs.right is second.rhs.left.right
        assert second.rhs.right == NumLit(-1) and second.rhs.right is not first.rhs.right


# Each rejected input, the exact message and the span (start line and column,
# end line and column) of its error.  Lexing runs before parsing, so a bad
# character is reported even after a syntax error.
_NO_STATEMENT = "(expected 'skip' or an assignment or 'if' or 'while')"
_NO_OPERAND = "(expected an integer literal or an identifier or '(')"
REJECTED = {
    "": (f"1:1: unexpected end of input {_NO_STATEMENT}", (1, 1, 1, 1)),
    "// only a comment": (f"1:1: unexpected end of input {_NO_STATEMENT}", (1, 1, 1, 1)),
    " \r\n\t// comment\n": (f"1:1: unexpected end of input {_NO_STATEMENT}", (1, 1, 1, 1)),
    "x :=": (f"1:4: unexpected end of input {_NO_OPERAND}", (1, 4, 1, 4)),
    "x := := 1": (f"1:6: unexpected ':=' {_NO_OPERAND}", (1, 6, 1, 7)),
    "skip skip": ("1:6: unexpected 'skip' (expected end of input)", (1, 6, 1, 9)),
    "while (x < 1) { }": (f"1:17: unexpected '}}' {_NO_STATEMENT}", (1, 17, 1, 17)),
    "if (x < 1) { skip }": ("1:19: unexpected end of input (expected 'else')", (1, 19, 1, 19)),  # else is mandatory
    "x < y < z": ("1:3: unexpected '<' (expected ':=')", (1, 3, 1, 3)),
    "x + - 1": ("1:5: unexpected character '-'", (1, 5, 1, 5)),  # '-' only directly attached to digits
    "-": ("1:1: unexpected character '-'", (1, 1, 1, 1)),
    "while := 1": ("1:7: unexpected ':=' (expected '(')", (1, 7, 1, 8)),  # keyword as identifier
    "__tmp := 1": ("1:1: identifier '__tmp' uses the reserved '__' prefix", (1, 1, 1, 5)),
    "x := 1;\r\n  __y := 2": ("2:3: identifier '__y' uses the reserved '__' prefix", (2, 3, 2, 5)),
    "x := (1": ("1:7: unexpected end of input (expected ')')", (1, 7, 1, 7)),
    "{ skip }": (f"1:1: unexpected '{{' {_NO_STATEMENT}", (1, 1, 1, 1)),
    "x := ²": ("1:6: unexpected character '²'", (1, 6, 1, 6)),  # integer literals are ASCII digits only
    "x := ٣": ("1:6: unexpected character '٣'", (1, 6, 1, 6)),
    "x := 1٣": ("1:7: unexpected character '٣'", (1, 7, 1, 7)),
    "x := 1\0": ("1:7: unexpected character '\\x00'", (1, 7, 1, 7)),
    "x := := ²": ("1:9: unexpected character '²'", (1, 9, 1, 9)),
    "x := 1 /": ("1:8: unexpected character '/'", (1, 8, 1, 8)),
    "x := 1 ²// tail\n": ("1:8: unexpected character '²'", (1, 8, 1, 8)),
}


def _span(err):
    return err.span.start_line, err.span.start_col, err.span.end_line, err.span.end_col


# Parsing it runs out of recursion, at a token that depends on the caller's
# stack depth.
NESTED_IF = "if (true) { " * 1500 + "skip" + " } else { skip }" * 1500


class TestParseErrors:
    @pytest.mark.parametrize("text", [*sorted(REJECTED), pytest.param(NESTED_IF, id="nested-if")])
    def test_rejected(self, text):
        with pytest.raises(ParseError) as exc:
            parse_com(text)
        if text in REJECTED:
            assert (str(exc.value), _span(exc.value)) == REJECTED[text]
            return
        line, col, end_line, end_col = _span(exc.value)
        assert str(exc.value) == f"1:{col}: nesting too deep"
        assert (line, end_line) == (1, 1)
        assert _PRETTY_TOKEN.match(text, col - 1)[0] == text[col - 1 : end_col]

    @pytest.mark.parametrize("text", ["a__b := 1", "x := 1 // __x", "_ := 1; x_ := _"])
    def test_double_underscore_inside_a_name_or_a_comment_is_accepted(self, text):
        parse_com(text)

    def test_error_carries_position_and_expectations(self):
        with pytest.raises(ParseError) as exc:
            parse_com("x := := 1")
        err = exc.value
        assert (err.span.start_line, err.span.start_col) == (1, 6)
        assert err.expected
        assert "1:6" in str(err)

    def test_error_on_second_line(self):
        with pytest.raises(ParseError) as exc:
            parse_com("x := 1;\ny := ;")
        assert exc.value.span.start_line == 2

    @pytest.mark.parametrize(
        "text",
        ["x := := 1", "skip skip", "x := (1", "while (x < 1) { }", "x :="],
    )
    def test_error_span_lies_within_input(self, text):
        lines = text.split("\n")
        with pytest.raises(ParseError) as exc:
            parse_com(text)
        span = exc.value.span
        assert 1 <= span.start_line <= len(lines)
        assert 1 <= span.start_col <= len(lines[span.start_line - 1]) + 1
        assert (span.start_line, span.start_col) <= (span.end_line, span.end_col)

    def test_error_on_line_three_after_tab_and_comment(self):
        with pytest.raises(ParseError) as exc:
            parse_com("x := 1; // first\r\n// second\n\ty := ;")
        err = exc.value
        assert (err.span.start_line, err.span.start_col, err.span.end_line, err.span.end_col) == (3, 7, 3, 7)
        assert str(err) == "3:7: unexpected ';' (expected an integer literal or an identifier or '(')"

    def test_end_of_input_after_trailing_comment(self):
        # the end of input sits on the last character of the last token
        with pytest.raises(ParseError) as exc:
            parse_com("x := 10;\t// more to come\n\n")
        err = exc.value
        assert (err.span.start_line, err.span.start_col, err.span.end_line, err.span.end_col) == (1, 8, 1, 8)
        assert str(err) == "1:8: unexpected end of input (expected 'skip' or an assignment or 'if' or 'while')"

    def test_nesting_too_deep_points_at_current_token(self):
        with pytest.raises(ParseError) as exc:
            rhs_of("(" * 2000 + "1" + ")" * 2000)
        assert str(exc.value).endswith(": nesting too deep")
        assert exc.value.span.start_line == 1
        assert exc.value.span.start_col <= len(ASSIGN) + 2000


class TestAnnotations:
    def test_full_annotation(self):
        got = parse_annotated_com(
            "while (0 < x) invariant (true) measure (x) { x := x + -1 }"
        )
        assert got == While(
            ACmp(CmpOp.LT, NumLit(0), Var("x")),
            Assign("x", Plus(Var("x"), NumLit(-1))),
            invariant=ATrue(),
            measure=Var("x"),
            span=got.span,
        )
        assert got.invariant == ATrue()
        assert got.measure == Var("x")
        assert got.span.start_line == 1

    def test_invariant_without_measure(self):
        got = parse_annotated_com("while (0 < x) invariant (x = x) { skip }")
        assert got.invariant == ACmp(CmpOp.EQ, Var("x"), Var("x"))
        assert got.measure is None

    def test_unannotated_loop_records_absence(self):
        got = parse_annotated_com("while (0 < x) { skip }")
        assert got.invariant is None
        assert got.measure is None

    def test_plain_parser_rejects_annotations(self):
        with pytest.raises(ParseError):
            parse_com("while (0 < x) invariant (true) { skip }")

    def test_erase_drops_annotations(self):
        ann = parse_annotated_com("while (0 < x) invariant (true) { skip }")
        assert erase(ann) == While(ACmp(CmpOp.LT, NumLit(0), Var("x")), Skip())

    def test_annotated_round_trip(self):
        text = "x := 0; while (x < 3) invariant (x <= 3) measure (3 + -1) { x := x + 1 }"
        ann = parse_annotated_com(text)
        assert parse_annotated_com(pretty_com(ann)) == ann

    def test_measure_requires_invariant(self):
        with pytest.raises(ParseError):
            parse_annotated_com("while (0 < x) measure (x) { skip }")


class TestAssertions:
    def test_precedence(self):
        got = parse_assertion("x < 1 && true -> x = 0 || false")
        assert got == AImp(
            AAnd(ACmp(CmpOp.LT, Var("x"), NumLit(1)), ATrue()),
            AOr(ACmp(CmpOp.EQ, Var("x"), NumLit(0)), AFalse()),
        )

    def test_implication_is_right_associative(self):
        got = parse_assertion("true -> true -> false")
        assert got == AImp(ATrue(), AImp(ATrue(), parse_assertion("false")))

    def test_le_and_eq_operators(self):
        assert parse_assertion("x <= 0") == ACmp(CmpOp.LE, Var("x"), NumLit(0))
        assert parse_assertion("x = 0") == ACmp(CmpOp.EQ, Var("x"), NumLit(0))

    def test_a_parenthesised_sum_is_parsed_once(self, monkeypatch):
        # each `(` is tried as a formula and then as a sum: parsing the sums
        # again at every depth would make the calls grow with its square
        calls = []
        for name in ("aexp", "aatom"):
            rule = getattr(parser._Parser, name)
            monkeypatch.setattr(parser._Parser, name, lambda self, rule=rule: calls.append(rule) or rule(self))
        counts = []
        for depth in (50, 100, 200):
            del calls[:]
            got = parse_assertion("(" * depth + "x + 1" + ")" * depth + " < 2")
            assert got == ACmp(CmpOp.LT, Plus(Var("x"), NumLit(1)), NumLit(2))
            counts.append(len(calls))
        assert counts[2] - counts[1] == 2 * (counts[1] - counts[0])


class TestPretty:
    def test_com_goldens(self):
        assert pretty_com(Skip()) == "skip"
        assert pretty_com(Assign("x", NumLit(1))) == "x := 1"
        assert (
            pretty_com(parse_com("x := 1; y := x")) == "x := 1; y := x"
        )
        loop = While(ACmp(CmpOp.LT, Var("i"), NumLit(3)), Assign("i", Plus(Var("i"), NumLit(1))))
        assert pretty_com(loop) == "while (i < 3) { i := i + 1 }"

    def test_aexp_parenthesization(self):
        assert pretty_aexp(Plus(Plus(NumLit(1), NumLit(2)), NumLit(3))) == "1 + 2 + 3"
        assert pretty_aexp(Plus(NumLit(1), Plus(NumLit(2), NumLit(3)))) == "1 + (2 + 3)"

    def test_long_sum(self):
        a = NumLit(1)
        for _ in range(4_999):
            a = Plus(a, Var("x"))
        assert pretty_aexp(a) == "1" + " + x" * 4_999

    def test_bexp_goldens(self):
        assert pretty_assertion(ACmp(CmpOp.LT, Var("x"), NumLit(0))) == "x < 0"
        assert pretty_assertion(ANot(ACmp(CmpOp.LT, Var("x"), NumLit(0)))) == "!(x < 0)"
        assert pretty_assertion(ANot(ATrue())) == "!true"

    def test_assertion_goldens(self):
        a = AImp(ACmp(CmpOp.LT, Var("x"), NumLit(0)), ACmp(CmpOp.LE, Var("x"), NumLit(0)))
        assert pretty_assertion(a) == "x < 0 -> x <= 0"

    @pytest.mark.parametrize(
        "printer, node, kind",
        [
            (pretty_assertion, Var("x"), "an assertion"),
            (pretty_aexp, Skip(), "an arithmetic expression"),
            (pretty_com, If(Var("x"), Skip(), Skip()), "an assertion"),
        ],
        ids=["assertion", "aexp", "if-test"],
    )
    def test_non_node_is_a_type_error(self, printer, node, kind):
        with pytest.raises(TypeError, match=f"^not {kind}: "):
            printer(node)

    def test_measure_without_invariant_is_rejected(self):
        # the concrete syntax has no measure without an invariant
        with pytest.raises(ValueError):
            pretty_com(While(ATrue(), Skip(), None, Var("x")))

    def test_left_nested_seq_flattens(self):
        # concrete syntax has no way to spell left nesting; printing flattens
        left = Seq(Seq(Assign("a", NumLit(1)), Skip()), Assign("b", NumLit(2)))
        text = pretty_com(left)
        assert text == "a := 1; skip; b := 2"
        assert parse_com(text) == Seq(Assign("a", NumLit(1)), Seq(Skip(), Assign("b", NumLit(2))))


@given(aexps())
def test_aexp_round_trip(a):
    assert rhs_of(pretty_aexp(a)) == a


@given(bexps())
def test_bexp_round_trip(b):
    assert cond_of(pretty_assertion(b)) == b


class TestConditionPrinter:
    """`pretty_assertion` prints a condition; the text must be the one a
    printer of the condition grammar alone gives."""

    @given(bexps())
    def test_matches_the_reference(self, b):
        assert pretty_assertion(b) == reference_pretty_bexp(b)

    def test_generated_conditions_match_the_reference(self):
        rng = random.Random(13)
        for _ in range(5_000):
            b = gen_bexp(rng, 4, ("x", "y"), (-4, 4))
            assert pretty_assertion(b) == reference_pretty_bexp(b)

    @given(coms())
    def test_command_conditions_match_the_reference(self, c):
        todo = [c]
        while todo:
            node = todo.pop()
            if type(node) is Seq:
                todo += [node.first, node.second]
            elif type(node) is If:
                assert pretty_assertion(node.cond) == reference_pretty_bexp(node.cond)
                todo += [node.then_branch, node.else_branch]
            elif type(node) is While:
                assert pretty_assertion(node.cond) == reference_pretty_bexp(node.cond)
                todo.append(node.body)


@given(assertions())
def test_assertion_round_trip(a):
    assert parse_assertion(pretty_assertion(a)) == a


@given(coms(loops=True))
def test_com_round_trip(c):
    assert parse_com(pretty_com(c)) == c


# Splits pretty-printer output, which is ASCII, into tokens.
_PRETTY_TOKEN = re.compile(r"-?[0-9]+|:=|->|<=|&&|\|\||[A-Za-z_][A-Za-z0-9_]*|\S")
_LAYOUT = st.lists(
    st.sampled_from([" ", "\t", "\r\n", "\n", "// note\n", "//if ( } -1\t\n"]), min_size=1, max_size=3
).map("".join)


def _loops(c):
    stack, out = [c], []
    while stack:
        node = stack.pop()
        if type(node) is Seq:
            stack += [node.second, node.first]
        elif type(node) is If:
            stack += [node.else_branch, node.then_branch]
        elif type(node) is While:
            out.append(node)
            stack.append(node.body)
    return out


def _relaid(c, data):
    """`pretty_com(c)` with drawn layout around and between its tokens."""
    tokens = _PRETTY_TOKEN.findall(pretty_com(c))
    text = data.draw(st.sampled_from(["", "\n", "// head\n\t"])) + tokens[0]
    for token in tokens[1:]:
        text += data.draw(_LAYOUT) + token
    return text + data.draw(st.sampled_from(["", "\r\n", " // tail", "\n// tail\n"]))


@given(coms(annotated=True), st.data())
def test_relaid_source_parses_to_same_command_with_while_spans(c, data):
    text = _relaid(c, data)
    got = parse_annotated_com(text)
    assert got == c
    lines = text.split("\n")
    for loop in _loops(got):
        span = loop.span
        assert lines[span.start_line - 1][span.start_col - 1 :].startswith("while")
        assert (span.end_line, span.end_col) == (span.start_line, span.start_col + 4)


def _eager_token_start(self, i):
    """`_Parser.token_start` by lexing the whole text again: the reference
    for the offsets lexed only as far as a span needs."""
    starts = [m.start() for m in parser._TOKEN_RE.finditer(self.text, parser._LAYOUT_RE.match(self.text).end())]
    starts[-1] = starts[-2] + len(self.texts[-2]) - 1 if len(starts) > 1 else 0
    return starts[i]


def _spans_or_error(text):
    """Every loop's span, or the parse error and its span."""
    try:
        c = parse_annotated_com(text)
    except ParseError as err:
        return str(err), err.span
    return [loop.span for loop in _loops(c)]


@given(coms(annotated=True), st.data())
def test_spans_and_error_positions_match_a_whole_lexing(c, data):
    text = _relaid(c, data)
    edit = data.draw(st.sampled_from(["", "cut", "stray"]))
    if edit:  # a cut or a stray lexeme makes most texts an error
        at = data.draw(st.integers(0, len(text)))
        text = text[:at] if edit == "cut" else text[:at] + data.draw(st.sampled_from(["@", " __q", "\n\u00b2"])) + text[at:]
    got = _spans_or_error(text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parser._Parser, "token_start", _eager_token_start)
        assert _spans_or_error(text) == got


def _large_source(rng, size):
    """About `size` characters of IMP: assignments, conditionals and loops
    nested up to three deep, laid out with spaces, tabs, CRLF and LF line
    ends, and comments that hold tokens."""
    layouts = [" ", " ", "\t", "\r\n", "\n", "\r\n\t\t", " // note\r\n", "\t// while ( } -1 __x\n"]

    def aexp():
        atoms = [rng.choice(["x", "y", "z", "n1", str(rng.randint(-99, 99))]) for _ in range(rng.randint(1, 3))]
        words.extend(" + ".join(atoms).split())

    def cond():
        aexp()
        words.append("<")
        aexp()
        if rng.random() < 0.3:
            words.extend(["&&", "!", "("])
            cond()
            words.append(")")

    def com(depth):
        for i in range(rng.randint(1, 4)):
            if i:
                words.append(";")
            roll = rng.random()
            if depth < 3 and roll < 0.15:
                words.extend(["while", "("])
                cond()
                words.extend([")", "{"])
                com(depth + 1)
                words.append("}")
            elif depth < 3 and roll < 0.3:
                words.extend(["if", "("])
                cond()
                words.extend([")", "{"])
                com(depth + 1)
                words.extend(["}", "else", "{"])
                com(depth + 1)
                words.append("}")
            else:
                words.extend([rng.choice(["x", "y", "z", "n1"]), ":="])
                aexp()

    pieces, length = [], 0
    while length < size:
        words = [";"] if pieces else []
        com(0)
        pieces.append("".join(word + rng.choice(layouts) for word in words))
        length += len(pieces[-1])
    return "".join(pieces)


def test_large_source_parses_compiles_and_prints_as_pinned():
    text = _large_source(random.Random(2024), 100_000)
    assert 90_000 < len(text) < 130_000 and "\r\n" in text and "\t" in text
    c = parse_com(text)
    spans = [(s.start_line, s.start_col, s.end_line, s.end_col) for s in (loop.span for loop in _loops(c))]
    assert len(spans) == 195
    assert [hashlib.sha256(out.encode()).hexdigest() for out in (pretty_com(c), pretty_asm(ccomp(c)), repr(spans))] == [
        "888816b791d5d175b0fb504805b1254fe452c06fdcf67133decee8b6c84286f3",
        "8c45397c76206a33a289d75e30ef7e93ab88f36a262813e66706fac4a3b37ff1",
        "c659a3bef1c991b58cf69445a3266e130c7e21bafcc99376e404cdd4788156b7",
    ]


INSTRS = st.lists(
    st.one_of(
        st.builds(LoadI, st.integers(-99, 99)),
        st.builds(Load, names),
        st.just(Add()),
        st.builds(Store, names),
        st.builds(Jmp, st.integers(-20, 20)),
        st.builds(JmpLess, st.integers(-20, 20)),
        st.builds(JmpGe, st.integers(-20, 20)),
    ),
    max_size=30,
)


class TestAsm:
    def test_parse_golden(self):
        assert parse_asm("LOADI 5\nSTORE x") == [LoadI(5), Store("x")]
        assert parse_asm("JMP -7") == [Jmp(-7)]

    def test_comments_and_blank_lines(self):
        text = "// header\n\nLOAD x\nADD // inline\n"
        assert parse_asm(text) == [Load("x"), Add()]

    @pytest.mark.parametrize(
        "text,line",
        [
            ("FOO 1", 1),
            ("LOADI x", 1),
            ("LOAD 5", 1),
            ("ADD 1", 1),
            ("LOADI 1\nJMP x", 2),
            ("JMP", 1),
        ],
    )
    def test_rejected_with_line(self, text, line):
        with pytest.raises(ParseError) as exc:
            parse_asm(text)
        assert exc.value.span.start_line == line

    def test_pretty_golden(self):
        out = pretty_asm([LoadI(0), Load("i"), JmpGe(5)])
        assert out == "LOADI 0\nLOAD i\nJMPGE 5\n"

    @given(INSTRS)
    def test_round_trip(self, prog):
        assert parse_asm(pretty_asm(prog)) == prog
