import itertools
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import aexps, assertions, bexps, coms, names, states
from imptool import hoare
from imptool.bigstep import Terminated, big_step
from imptool.hoare import (
    AAnd,
    ACmp,
    AFalse,
    AImp,
    ANot,
    AOr,
    ATrue,
    CmpOp,
    CounterexampleFound,
    ENUMERATION_LIMIT,
    MissingAnnotationError,
    Mode,
    Unknown,
    Valid,
    assertion_vars,
    bexp_to_assertion,
    check_triple,
    check_valid,
    entails,
    erase,
    eval_assertion,
    state_space_size,
    subst_aexp,
    subst_assertion,
    vcgen,
    verify,
    wp_loop_free,
    _enumerated_names,
    _fits_codegen,
    _predicate,
    _value_tuples,
)
from imptool.parser import (
    parse_annotated_com,
    parse_assertion,
    parse_com,
    pretty_assertion,
    pretty_com,
)
from imptool.syntax import (
    Assign,
    BoolLit,
    If,
    NumLit,
    Plus,
    Seq,
    Skip,
    State,
    Var,
    While,
    aval,
    bval,
)

X_LT_0 = ACmp(CmpOp.LT, Var("x"), NumLit(0))
X_LE_0 = ACmp(CmpOp.LE, Var("x"), NumLit(0))


class TestEvalAssertion:
    def test_goldens(self):
        assert eval_assertion(ATrue(), State())
        assert not eval_assertion(AFalse(), State.of(x=1))
        assert eval_assertion(AImp(AFalse(), AFalse()), State())  # vacuous
        assert eval_assertion(X_LT_0, State.of(x=-1))
        assert not eval_assertion(X_LT_0, State())

    @pytest.mark.parametrize(
        "text,bindings,expected",
        [
            ("x <= 0", {"x": 0}, True),
            ("x = 1", {"x": 1}, True),
            ("x = 1", {}, False),
            ("!(x < 0) && x < 2", {"x": 1}, True),
            ("x < 0 || 0 < x", {}, False),
            ("x = 0 -> y = 0", {"y": 3}, False),
        ],
    )
    def test_via_concrete_syntax(self, text, bindings, expected):
        assert eval_assertion(parse_assertion(text), State(bindings.items())) == expected

    @given(bexps(), states())
    def test_bexp_embedding_agrees_with_bval(self, b, s):
        assert eval_assertion(bexp_to_assertion(b), s) == bval(b, s)


def test_assertion_vars():
    a = parse_assertion("x < y -> !(z = 0) && true")
    assert assertion_vars(a) == {"x", "y", "z"}
    assert assertion_vars(ATrue()) == set()


class TestSubstitution:
    def test_goldens(self):
        got = subst_assertion(ACmp(CmpOp.EQ, Var("x"), NumLit(1)), "x", NumLit(1))
        assert got == ACmp(CmpOp.EQ, NumLit(1), NumLit(1))
        untouched = parse_assertion("y < 2 -> true")
        assert subst_assertion(untouched, "x", NumLit(9)) == untouched

    def test_subst_aexp(self):
        a = Plus(Var("x"), Plus(Var("y"), Var("x")))
        got = subst_aexp(a, "x", NumLit(0))
        assert got == Plus(NumLit(0), Plus(Var("y"), NumLit(0)))

    @given(assertions(), names, aexps(5), states())
    def test_substitution_lemma(self, a, x, repl, s):
        substituted = eval_assertion(subst_assertion(a, x, repl), s)
        updated = eval_assertion(a, s.update(x, aval(repl, s)))
        assert substituted == updated


class TestEnumeration:
    def test_single_variable_order(self):
        assert list(_value_tuples(1, 1)) == [(-1,), (0,), (1,)]

    def test_names_sorted_values_lexicographic(self):
        assert _enumerated_names(["y", "x", "y"], 1) == ["x", "y"]
        assert list(_value_tuples(2, 1)) == [
            (-1, -1), (-1, 0), (-1, 1),
            (0, -1), (0, 0), (0, 1),
            (1, -1), (1, 0), (1, 1),
        ]

    def test_state_space_size(self):
        assert state_space_size([], 5) == 1
        assert state_space_size(["x"], 5) == 11
        assert state_space_size(["x", "y"], 2) == 25


class TestEntails:
    def test_strict_implies_loose(self):
        assert entails(X_LT_0, X_LE_0, {"x"}, 5) == Valid()

    def test_first_falsifier_in_order(self):
        # x = 0 is the first state out of [-5, 5] where x < 0 fails
        got = entails(ATrue(), X_LT_0, {"x"}, 5)
        assert got == CounterexampleFound(State())

    def test_falsifier_at_lower_edge(self):
        got = entails(ATrue(), ACmp(CmpOp.LT, NumLit(0), Var("x")), {"x"}, 5)
        assert got == CounterexampleFound(State.of(x=-5))

    def test_oversized_space_is_unknown(self):
        many = {f"v{i}" for i in range(7)}
        assert state_space_size(many, 5) > ENUMERATION_LIMIT
        got = entails(ATrue(), AFalse(), many, 5)
        assert isinstance(got, Unknown)
        assert got.detail

    def test_check_valid(self):
        assert check_valid(parse_assertion("x < 0 -> x <= 0"), {"x"}, 4) == Valid()
        got = check_valid(parse_assertion("x <= 0"), {"x"}, 4)
        assert got == CounterexampleFound(State.of(x=1))

    @given(assertions(6), st.integers(min_value=1, max_value=2))
    def test_reflexivity(self, a, bound):
        assert entails(a, a, assertion_vars(a), bound) == Valid()

    @given(assertions(4), assertions(4), assertions(4))
    @settings(max_examples=40)
    def test_transitivity(self, p, q, r):
        shared = assertion_vars(p) | assertion_vars(q) | assertion_vars(r)
        if len(shared) > 4:
            return
        if entails(p, q, shared, 2) == Valid() and entails(q, r, shared, 2) == Valid():
            assert entails(p, r, shared, 2) == Valid()


def enumerate_states(variables, bound):
    """Every state giving each listed variable a value in [-bound, bound] and
    every other identifier 0: sorted names, values ascending."""
    ordered = sorted(set(variables))
    for combo in itertools.product(range(-bound, bound + 1), repeat=len(ordered)):
        yield State(zip(ordered, combo))


def reference_entails(p, q, variables, bound):
    """Entailment by walking every enumerated state: the definition."""
    for s in enumerate_states(variables, bound):
        if eval_assertion(p, s) and not eval_assertion(q, s):
            return CounterexampleFound(s)
    return Valid()


def not_chain(depth, inner):
    for _ in range(depth):
        inner = ANot(inner)
    return inner


def nested_not_and(depth):
    """!(y < c && !(y < c' && ... x < 0)): each level changes connective twice."""
    a = ACmp(CmpOp.LT, Var("x"), NumLit(0))
    for i in range(depth):
        a = ANot(AAnd(ACmp(CmpOp.LT, Var("y"), NumLit(i % 5 - 2)), a))
    return a


def balanced_conjunction(parts):
    while len(parts) > 1:
        parts = [AAnd(*parts[i:i + 2]) if i + 1 < len(parts) else parts[i] for i in range(0, len(parts), 2)]
    return parts[0]


NOT_CHAIN = not_chain(300, ACmp(CmpOp.LE, Var("x"), Var("y")))
AND_CHAIN = reduce(AAnd, [ACmp(CmpOp.LE, Plus(Var("x"), NumLit(-i)), Var("y")) for i in range(150)])
SUM_CHAIN = ACmp(CmpOp.LT, reduce(Plus, [Var("x")] * 1000), NumLit(5))
DEEP = nested_not_and(60)
WIDE = balanced_conjunction(
    [ACmp(CmpOp.LE, Plus(Var("x"), NumLit(i)), Plus(Var("y"), NumLit(-i))) for i in range(-150, 150)]
)


class TestCompiledPredicate:
    @given(assertions(12), st.sets(names), st.data())
    def test_agrees_with_eval_assertion(self, a, listed, data):
        # names outside `listed` read 0 on both sides
        ordered = sorted(listed)
        values = data.draw(st.tuples(*[st.integers(-7, 7) for _ in ordered]))
        state = State(zip(ordered, values))
        assert _fits_codegen(a)
        assert _predicate("{}", ordered, a)(*values) == eval_assertion(a, state)

    @given(assertions(6), assertions(6), st.sets(names), st.integers(0, 2))
    @settings(max_examples=60)
    def test_entails_agrees_with_reference(self, p, q, listed, bound):
        assert entails(p, q, listed, bound) == reference_entails(p, q, listed, bound)

    @given(assertions(6), assertions(6), st.sets(names, max_size=3), st.integers(0, 1))
    @settings(max_examples=30)
    def test_tree_walk_fallback_agrees(self, p, q, listed, bound):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hoare, "_CODEGEN_MAX_NODES", 0)
            assert entails(p, q, listed, bound) == reference_entails(p, q, listed, bound)

    def test_mixed_compiled_premise_and_walked_conclusion(self):
        assert _fits_codegen(X_LT_0) and not _fits_codegen(WIDE)
        assert entails(X_LT_0, WIDE, {"x", "y"}, 3) == reference_entails(X_LT_0, WIDE, {"x", "y"}, 3)

    def test_literals_must_be_plain_ints(self):
        # a bool is an int to Python but never reaches generated source
        odd = ACmp(CmpOp.LT, Var("x"), NumLit(True))
        assert not _fits_codegen(odd)
        assert check_valid(odd, {"x"}, 2) == reference_entails(ATrue(), odd, {"x"}, 2)

    @pytest.mark.parametrize(
        "formula, compiled",
        [(NOT_CHAIN, True), (AND_CHAIN, True), (SUM_CHAIN, True), (DEEP, False), (WIDE, False)],
        ids=["not-300", "and-150", "plus-1000", "not-and-60", "wide-300"],
    )
    def test_chains_on_both_sides_of_the_gate(self, formula, compiled):
        assert _fits_codegen(formula) is compiled
        # eval_assertion exceeds the recursion limit on the sum chain, so its
        # reference is the equivalent 1000 * x < 5, i.e. x < 1
        reference = ACmp(CmpOp.LT, Var("x"), NumLit(1)) if formula is SUM_CHAIN else formula
        for listed, bound in (({"x", "y"}, 3), ({"x"}, 2)):
            got = check_valid(formula, listed, bound)
            assert got == reference_entails(ATrue(), reference, listed, bound)
            # {F} skip {!F} fails at the first state where F holds
            triple = check_triple(formula, Skip(), ANot(formula), listed, bound, 10)
            assert triple == reference_entails(reference, AFalse(), listed, bound)


class TestNegativeBound:
    def test_entails_rejects(self):
        with pytest.raises(ValueError):
            entails(ATrue(), AFalse(), {"x"}, -1)

    def test_check_valid_rejects(self):
        with pytest.raises(ValueError):
            check_valid(AFalse(), set(), -1)

    def test_check_triple_rejects(self):
        with pytest.raises(ValueError):
            check_triple(parse_assertion("x = 1"), Skip(), parse_assertion("x = 2"), {"x"}, -1, 10)

    def test_zero_bound_enumerates_the_zero_state(self):
        assert check_valid(X_LE_0, {"x", "y"}, 0) == Valid()
        assert check_valid(X_LT_0, {"x", "y"}, 0) == CounterexampleFound(State())


class TestWp:
    def test_skip_is_identity(self):
        q = parse_assertion("x = 0")
        assert wp_loop_free(Skip(), q) == q

    def test_assign_substitutes(self):
        got = wp_loop_free(Assign("x", NumLit(1)), ACmp(CmpOp.EQ, Var("x"), NumLit(1)))
        assert got == ACmp(CmpOp.EQ, NumLit(1), NumLit(1))

    def test_loops_rejected(self):
        with pytest.raises(ValueError):
            wp_loop_free(While(BoolLit(True), Skip()), ATrue())

    @given(coms(max_leaves=6, loops=False), assertions(5), states())
    def test_semantic_characterization(self, c, q, s):
        # wp(c, Q) holds now iff running c establishes Q
        big = big_step(c, s, 100_000)
        assert isinstance(big, Terminated)
        assert eval_assertion(wp_loop_free(c, q), s) == eval_assertion(q, big.final)


COUNTDOWN_ANN = "while (0 < x) invariant (0 <= x) measure (x) { x := x + -1 }"


class TestVcgen:
    def test_skip_has_no_conditions(self):
        q = parse_assertion("x = 0")
        got = vcgen(Skip(), q, Mode.PARTIAL)
        assert got.conditions == ()
        assert got.precondition == q

    def test_assign_precondition(self):
        ann = parse_annotated_com("x := x + 1")
        got = vcgen(ann, parse_assertion("x = 1"), Mode.PARTIAL)
        assert got.precondition == parse_assertion("x + 1 = 1")

    def test_countdown_total_conditions(self):
        ann = parse_annotated_com(COUNTDOWN_ANN)
        got = vcgen(ann, parse_assertion("x = 0"), Mode.TOTAL)
        assert got.precondition == parse_assertion("0 <= x")
        rendered = {vc.label: pretty_assertion(vc.formula) for vc in got.conditions}
        assert rendered == {
            "loop@1:1: invariant preserved and measure decreases":
                "0 <= x && 0 < x && x = __z0 -> 0 <= x + -1 && x + -1 < __z0",
            "loop@1:1: measure non-negative": "0 <= x -> 0 <= x",
            "loop@1:1: exit establishes postcondition": "0 <= x && !(0 < x) -> x = 0",
        }
        for vc in got.conditions:
            assert check_valid(vc.formula, assertion_vars(vc.formula), 8) == Valid()

    def test_partial_mode_skips_measure_conditions(self):
        ann = parse_annotated_com(COUNTDOWN_ANN)
        got = vcgen(ann, parse_assertion("x = 0"), Mode.PARTIAL)
        labels = [vc.label for vc in got.conditions]
        assert labels == [
            "loop@1:1: invariant preserved",
            "loop@1:1: exit establishes postcondition",
        ]

    def test_loop_without_invariant_rejected(self):
        ann = parse_annotated_com("while (0 < x) { x := x + -1 }")
        with pytest.raises(MissingAnnotationError):
            vcgen(ann, ATrue(), Mode.PARTIAL)

    def test_total_mode_requires_measure(self):
        ann = parse_annotated_com("while (0 < x) invariant (true) { x := x + -1 }")
        vcgen(ann, ATrue(), Mode.PARTIAL)  # fine without a measure
        with pytest.raises(MissingAnnotationError):
            vcgen(ann, ATrue(), Mode.TOTAL)

    def test_unparsed_loops_get_ordinal_labels(self):
        ann = While(BoolLit(False), Skip(), invariant=ATrue(), measure=NumLit(0))
        got = vcgen(ann, ATrue(), Mode.TOTAL)
        assert got.conditions
        assert all(vc.label.startswith("loop#0: ") for vc in got.conditions)

    def test_snapshot_variables_are_fresh_per_loop(self):
        ann = parse_annotated_com(
            "while (0 < x) invariant (0 <= x) measure (x) { x := x + -1 }; "
            "while (0 < y) invariant (0 <= y) measure (y) { y := y + -1 }"
        )
        got = vcgen(ann, ATrue(), Mode.TOTAL)
        snap_vars = set()
        for vc in got.conditions:
            snap_vars |= {v for v in assertion_vars(vc.formula) if v.startswith("__z")}
        assert snap_vars == {"__z0", "__z1"}


class TestCheckTriple:
    def test_false_precondition_is_vacuously_valid(self):
        got = check_triple(
            AFalse(), While(BoolLit(True), Skip()), AFalse(), {"x"}, 3, 100
        )
        assert got == Valid()

    def test_divergence_breaks_total_claims(self):
        got = check_triple(
            ATrue(), While(BoolLit(True), Skip()), ATrue(), {}, 1, 100, Mode.TOTAL
        )
        assert got == CounterexampleFound(State())

    def test_divergence_leaves_partial_claims_unknown(self):
        got = check_triple(
            ATrue(), While(BoolLit(True), Skip()), ATrue(), {}, 1, 100, Mode.PARTIAL
        )
        assert isinstance(got, Unknown)

    def test_countdown_total(self):
        got = check_triple(
            parse_assertion("0 <= x"),
            parse_com("while (0 < x) { x := x + -1 }"),
            parse_assertion("x = 0"),
            {"x"},
            8,
            10_000,
            Mode.TOTAL,
        )
        assert got == Valid()

    def test_wrong_postcondition_yields_first_bad_state(self):
        got = check_triple(
            ATrue(), parse_com("x := x + 1"), parse_assertion("x = 1"), {"x"}, 3, 100
        )
        assert got == CounterexampleFound(State.of(x=-3))


class TestVerify:
    def test_countdown_report_all_valid(self):
        report = verify(
            parse_annotated_com(COUNTDOWN_ANN),
            parse_assertion("0 <= x"),
            parse_assertion("x = 0"),
            bound=8,
            fuel=10_000,
            mode=Mode.TOTAL,
        )
        assert report.all_valid
        assert report.triple_verdict == Valid()
        assert report.vcs[0].label.startswith("entry:")
        assert all(entry.verdict == Valid() for entry in report.vcs)

    def test_failing_precondition_shows_in_entry_vc(self):
        report = verify(
            parse_annotated_com(COUNTDOWN_ANN),
            ATrue(),
            parse_assertion("x = 0"),
            bound=4,
            fuel=100,
            mode=Mode.PARTIAL,
        )
        assert not report.all_valid
        assert report.vcs[0].verdict == CounterexampleFound(State.of(x=-4))
        assert report.triple_verdict == CounterexampleFound(State.of(x=-4))

    def test_json_serialization_shape(self):
        report = verify(
            parse_annotated_com(COUNTDOWN_ANN),
            parse_assertion("0 <= x"),
            parse_assertion("x = 0"),
            bound=6,
            fuel=1_000,
            mode=Mode.TOTAL,
        )
        payload = report.to_json_dict()
        assert payload["mode"] == "total"
        assert payload["bound"] == 6
        assert payload["triple_verdict"] == {"verdict": "valid"}
        assert payload["precondition_text"] == "0 <= x"
        assert all(
            set(entry) == {"label", "formula_text", "verdict"}
            for entry in payload["vcs"]
        )


def _loops(c):
    """Every While node in a command."""
    stack, found = [c], []
    while stack:
        node = stack.pop()
        if type(node) is Seq:
            stack += [node.first, node.second]
        elif type(node) is If:
            stack += [node.then_branch, node.else_branch]
        elif type(node) is While:
            found.append(node)
            stack.append(node.body)
    return found


class TestAnnotatedCom:
    @given(coms(annotated=True))
    def test_round_trip_keeps_annotations(self, c):
        assert parse_annotated_com(pretty_com(c)) == c

    @given(coms(annotated=True))
    def test_erase_drops_every_annotation(self, c):
        plain = erase(c)
        assert all(w.invariant is None and w.measure is None for w in _loops(plain))
        assert len(_loops(plain)) == len(_loops(c))
        assert parse_com(pretty_com(plain)) == plain

    @given(coms())
    def test_erase_leaves_plain_commands_unchanged(self, c):
        assert erase(c) == c

    @given(coms())
    def test_plain_and_annotated_parsers_agree_without_annotations(self, c):
        text = pretty_com(c)
        assert parse_com(text) == parse_annotated_com(text) == c

    def test_plain_loops_carry_no_annotations(self):
        loop = parse_com("while (0 < x) { skip }")
        assert isinstance(loop, While)
        assert loop.invariant is None and loop.measure is None
        assert loop.span.start_line == 1
