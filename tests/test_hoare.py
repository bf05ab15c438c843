import gc
import random
import re
import sys
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    aexps,
    assertions,
    bexps,
    coms,
    enumerate_states,
    names,
    reference_check_triple,
    reference_vcs,
    states,
)
from imptool import hoare, syntax
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
    ENTRY_LABEL,
    ENUMERATION_LIMIT,
    MissingAnnotationError,
    Mode,
    Unknown,
    Valid,
    check_triple,
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
    _box,
)
from imptool.harness import GenConfig, gen_assertion, gen_com
from imptool.parser import (
    parse_annotated_com,
    parse_assertion,
    parse_com,
    pretty_assertion,
    pretty_com,
)
from imptool.syntax import (
    Assign,
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
    seq_chain,
    vars_of,
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
        assert eval_assertion(b, s) == bval(b, s)


def test_assertion_vars():
    a = parse_assertion("x < y -> !(z = 0) && true")
    assert vars_of(a) == {"x", "y", "z"}
    assert vars_of(ATrue()) == set()


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
        assert list(_box(ATrue(), ["x"], 1)) == [(-1,), (0,), (1,)]

    def test_names_sorted_values_lexicographic(self):
        assert _enumerated_names(["y", "x", "y"], 1) == ["x", "y"]
        assert list(_box(ATrue(), ["x", "y"], 1)) == [
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

    def test_validity_is_entailment_from_true(self):
        assert entails(ATrue(), parse_assertion("x < 0 -> x <= 0"), {"x"}, 4) == Valid()
        got = entails(ATrue(), parse_assertion("x <= 0"), {"x"}, 4)
        assert got == CounterexampleFound(State.of(x=1))

    @given(assertions(6), st.integers(min_value=1, max_value=2))
    def test_reflexivity(self, a, bound):
        assert entails(a, a, vars_of(a), bound) == Valid()

    @given(assertions(4), assertions(4), assertions(4))
    @settings(max_examples=40)
    def test_transitivity(self, p, q, r):
        shared = vars_of(p) | vars_of(q) | vars_of(r)
        if len(shared) > 4:
            return
        if entails(p, q, shared, 2) == Valid() and entails(q, r, shared, 2) == Valid():
            assert entails(p, r, shared, 2) == Valid()


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
DEEPER = nested_not_and(150)  # 300 nested parentheses: past the parser's 200
WIDE = balanced_conjunction(
    [ACmp(CmpOp.LE, Plus(Var("x"), NumLit(i)), Plus(Var("y"), NumLit(-i))) for i in range(-150, 150)]
)


def point(ordered, values):
    """The assertion that holds exactly where each name has its value."""
    return reduce(AAnd, [ACmp(CmpOp.EQ, Var(name), NumLit(v)) for name, v in zip(ordered, values)], ATrue())


RAN_OUT = Unknown("1 initial state(s) ran out of fuel")


def refuse_to_compile(mp):
    """Make CPython refuse all generated code: the one switch that sends every
    caller of the gate to its fallback.  Returns the callers refused, by name."""
    refused = set()
    mp.setattr(hoare, "_generated", lambda build: refused.add(build.__qualname__.split(".")[0]))
    return refused


@pytest.fixture
def refusals(monkeypatch):
    """The callers of the gate, by name, whose code CPython refused, in order."""
    refused, gate = [], hoare._generated

    def watched(build):
        env = gate(build)
        if env is None:
            refused.append(build.__qualname__.split(".")[0])
        return env

    monkeypatch.setattr(hoare, "_generated", watched)
    return refused


class TestCompiledPredicate:
    @given(assertions(12), st.sets(names), st.data())
    def test_agrees_with_eval_assertion(self, a, listed, data):
        # names outside `listed` read 0 on both sides; a point precondition
        # leaves the search one state, a counterexample exactly where `a` fails
        ordered = sorted(listed)
        values = data.draw(st.tuples(*[st.integers(-7, 7) for _ in ordered]))
        state = State(zip(ordered, values))
        expected = Valid() if eval_assertion(a, state) else CounterexampleFound(state)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hoare, "eval_assertion", None)  # the search must be the compiled one
            assert entails(point(ordered, values), a, listed, max(map(abs, values), default=0)) == expected

    @given(assertions(6), assertions(6), st.sets(names), st.integers(0, 2))
    @settings(max_examples=60)
    def test_entails_agrees_with_reference(self, p, q, listed, bound):
        assert entails(p, q, listed, bound) == reference_entails(p, q, listed, bound)

    @given(assertions(6), assertions(6), st.sets(names, max_size=3), st.integers(0, 1))
    @settings(max_examples=30)
    def test_tree_walk_fallback_agrees(self, p, q, listed, bound):
        with pytest.MonkeyPatch.context() as mp:
            refuse_to_compile(mp)
            assert entails(p, q, listed, bound) == reference_entails(p, q, listed, bound)

    def test_a_refused_postcondition_sends_the_whole_check_to_its_reference(self, refusals):
        # CPython refuses the postcondition, so check_triple and entails each
        # run their whole check by eval_assertion (and big_step)
        listed = {"x", "y"}
        for post in (DEEPER, ANot(DEEPER)):
            expected = reference_check_triple(X_LT_0, Skip(), post, listed, 3, 10, Mode.PARTIAL)
            assert check_triple(X_LT_0, Skip(), post, listed, 3, 10) == expected
            assert entails(X_LT_0, post, listed, 3) == reference_entails(X_LT_0, post, listed, 3)
        assert refusals == ["check_triple", "entails"] * 2

    def test_literals_must_be_plain_ints(self, refusals):
        # a bool is an int to Python: folded into a sum's constant, it reads as 1
        odd = ACmp(CmpOp.LT, Var("x"), NumLit(True))
        assert entails(ATrue(), odd, {"x"}, 2) == reference_entails(ATrue(), odd, {"x"}, 2)
        assert not refusals

    @pytest.mark.parametrize(
        "formula, compiled",
        [(NOT_CHAIN, True), (AND_CHAIN, True), (SUM_CHAIN, True), (DEEP, True), (WIDE, True), (DEEPER, False)],
        ids=["not-300", "and-150", "plus-1000", "not-and-60", "wide-300", "not-and-150"],
    )
    def test_chains_on_both_sides_of_the_gate(self, refusals, formula, compiled):
        # eval_assertion exceeds the recursion limit on the sum chain, so its
        # reference is the equivalent 1000 * x < 5, i.e. x < 1
        reference = ACmp(CmpOp.LT, Var("x"), NumLit(1)) if formula is SUM_CHAIN else formula
        for listed, bound in (({"x", "y"}, 3), ({"x"}, 2)):
            got = entails(ATrue(), formula, listed, bound)
            assert got == reference_entails(ATrue(), reference, listed, bound)
            # {F} skip {!F} fails at the first state where F holds
            triple = check_triple(formula, Skip(), ANot(formula), listed, bound, 10)
            assert triple == reference_entails(reference, AFalse(), listed, bound)
        assert bool(refusals) is not compiled


class TestNegativeBound:
    def test_entails_rejects(self):
        with pytest.raises(ValueError):
            entails(ATrue(), AFalse(), {"x"}, -1)

    def test_check_valid_rejects(self):
        # validity is entailment from true
        with pytest.raises(ValueError):
            entails(ATrue(), AFalse(), set(), -1)

    def test_check_triple_rejects(self):
        with pytest.raises(ValueError):
            check_triple(parse_assertion("x = 1"), Skip(), parse_assertion("x = 2"), {"x"}, -1, 10)

    def test_zero_bound_enumerates_the_zero_state(self):
        assert entails(ATrue(), X_LE_0, {"x", "y"}, 0) == Valid()
        assert entails(ATrue(), X_LT_0, {"x", "y"}, 0) == CounterexampleFound(State())


class TestWp:
    def test_skip_is_identity(self):
        q = parse_assertion("x = 0")
        assert wp_loop_free(Skip(), q) == q

    def test_assign_substitutes(self):
        got = wp_loop_free(Assign("x", NumLit(1)), ACmp(CmpOp.EQ, Var("x"), NumLit(1)))
        assert got == ACmp(CmpOp.EQ, NumLit(1), NumLit(1))

    def test_loops_rejected(self):
        with pytest.raises(ValueError):
            wp_loop_free(While(ATrue(), Skip()), ATrue())

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
                "0 <= x && 0 < x -> 0 <= x + -1 && x + -1 < x",
            "loop@1:1: measure non-negative": "0 <= x -> 0 <= x",
            "loop@1:1: exit establishes postcondition": "0 <= x && !(0 < x) -> x = 0",
        }
        for vc in got.conditions:
            assert entails(ATrue(), vc.formula, vars_of(vc.formula), 8) == Valid()

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
        ann = While(AFalse(), Skip(), invariant=ATrue(), measure=NumLit(0))
        got = vcgen(ann, ATrue(), Mode.TOTAL)
        assert got.conditions
        assert all(vc.label.startswith("loop#0: ") for vc in got.conditions)

    def test_outer_snapshot_is_free_only_where_the_inner_loop_exits(self):
        # each decreases VC assigns its own snapshot; the inner loop's exit
        # continues into the outer body, whose end compares with __z0
        ann = parse_annotated_com(
            "while (0 < x) invariant (0 <= x) measure (x) { "
            "y := x; while (0 < y) invariant (0 <= y) measure (y) { y := y + -1 }; x := x + -1 }"
        )
        got = vcgen(ann, ATrue(), Mode.TOTAL)
        free = {vc.label: {v for v in vars_of(vc.formula) if v.startswith("__z")} for vc in got.conditions}
        assert {label: names for label, names in free.items() if names} == {
            "loop@1:56: exit establishes postcondition": {"__z0"}
        }

    def test_decrease_reads_the_measure_before_the_iteration(self):
        # the measure reaches 4 at bound 2, where the body leaves it unchanged;
        # an enumerated snapshot in [-2, 2] never met it there
        ann = parse_annotated_com(
            "while (0 < x + y) invariant (0 <= x && 0 <= y) measure (x + y) { if (3 < x + y) { skip } "
            "else { if (0 < x) { x := x + -1 } else { y := y + -1 } } }"
        )
        pre, post = parse_assertion("0 <= x && 0 <= y"), parse_assertion("x = 0 && y = 0")
        report = verify(ann, pre, post, 2, 1_000, Mode.TOTAL)
        verdicts = {entry.label: entry.verdict for entry in report.vcs}
        assert verdicts["loop@1:1: invariant preserved and measure decreases"] == CounterexampleFound(
            State.of(x=2, y=2)
        )
        assert report.triple_verdict == CounterexampleFound(State.of(x=2, y=2))


class TestCheckTriple:
    def test_false_precondition_is_vacuously_valid(self):
        got = check_triple(
            AFalse(), While(ATrue(), Skip()), AFalse(), {"x"}, 3, 100
        )
        assert got == Valid()

    def test_divergence_breaks_total_claims(self):
        got = check_triple(
            ATrue(), While(ATrue(), Skip()), ATrue(), {}, 1, 100, Mode.TOTAL
        )
        assert got == CounterexampleFound(State())

    def test_divergence_leaves_partial_claims_unknown(self):
        got = check_triple(
            ATrue(), While(ATrue(), Skip()), ATrue(), {}, 1, 100, Mode.PARTIAL
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


def nested_whiles(depth):
    """`depth` loops, each the body of the one outside it, that all exit at
    once: x < 1 fails after the innermost body, an `if`, sets x to 1."""
    c = If(ACmp(CmpOp.LT, Var("x"), NumLit(1)), Assign("x", NumLit(1)), Skip())
    for _ in range(depth):
        c = While(ACmp(CmpOp.LT, Var("x"), NumLit(1)), c)
    return c


LOOPS = [
    "while (0 < 1) { x := x }",
    "while (x < 3) { x := x + 1 }; while (0 < 1) { y := y + 1; if (2 < y) { y := 0 } else { skip } }",
    "while (0 < 1) { y := 0; while (y < 3) { y := y + 1 } }",
    "while (0 < x) { y := x; while (0 < y) { y := y + -1 }; x := x + -1 }",
    "while (x < 3) { x := x + 1; y := 0; while (y < 1) { y := y + 1 } }",
    "x := 0; while (x < 2) { x := x + 1 }; x := 0; while (x < 2) { x := x + 1 }",
]


class TestCompiledRun:
    """The run inside `check_triple`'s search against `big_step`, the
    reference: a point precondition starts it from one state, and a
    postcondition that pins every final value holds only where it ends in
    `big_step`'s final state."""

    @given(coms(max_leaves=12), st.sets(names), st.data(), st.integers(0, 60))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_big_step(self, c, listed, data, fuel):
        ordered, out = sorted(listed), ["w", "x", "y", "z"]
        values = data.draw(st.tuples(*[st.integers(-6, 6) for _ in ordered]))
        state, pre, bound = State(zip(ordered, values)), point(ordered, values), max(map(abs, values), default=0)
        outcome = big_step(c, state, fuel)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hoare, "big_step", None)  # the run must be the compiled one
            for mode in Mode:
                if type(outcome) is not Terminated:
                    # a repeat proves that the run never ends
                    expected = CounterexampleFound(state) if mode is Mode.TOTAL and outcome.repeated else RAN_OUT
                    assert check_triple(pre, c, ATrue(), listed, bound, fuel, mode) == expected
                    continue
                final = point(out, map(outcome.final.read, out))
                assert check_triple(pre, c, final, listed, bound, fuel, mode) == Valid()
                # the run terminates with exactly `rules_applied` fuel, not one less
                rules = outcome.rules_applied
                assert check_triple(pre, c, final, listed, bound, rules, mode) == Valid()
                assert check_triple(pre, c, final, listed, bound, rules - 1, mode) == RAN_OUT

    @pytest.mark.parametrize(
        "text",
        [
            "while (0 < x) { x := x + -1 }",
            "y := 0; while (0 < x) { if (x < 2) { y := y + 1 } else { skip }; x := x + -1 }",
            "while (0 < x) { y := x; while (0 < y) { y := y + -1 }; x := x + -1 }; skip",
        ],
    )
    def test_exact_fuel_where_loops_exit(self, text):
        c = parse_com(text)
        for x in range(-1, 4):
            outcome = big_step(c, State.of(x=x), 10_000)
            final, rules = point(["x", "y"], map(outcome.final.read, ["x", "y"])), outcome.rules_applied
            assert check_triple(point(["x"], [x]), c, final, {"x"}, 3, rules) == Valid()
            assert check_triple(point(["x"], [x]), c, final, {"x"}, 3, rules - 1) == RAN_OUT

    @pytest.mark.parametrize("text", LOOPS)
    def test_agrees_with_big_step_at_every_small_fuel(self, text):
        # a repeat and spent fuel are told apart where big_step tells them
        # apart, one rule before and after the fuel runs out too
        c = parse_com(text)
        for fuel in range(80):
            for mode in Mode:
                expected = reference_check_triple(ATrue(), c, ATrue(), {"x", "y"}, 1, fuel, mode)
                assert check_triple(ATrue(), c, ATrue(), {"x", "y"}, 1, fuel, mode) == expected

    @pytest.mark.parametrize("text", LOOPS)
    def test_agrees_with_big_step_at_a_large_fuel(self, text):
        # A run that repeats a state must stop there, not spend 10**9 rules;
        # one that ends must not be taken for a repeat.  The last two reach,
        # at one loop's head, a state saved at another loop's head, which is
        # not a repeat.
        c, fuel = parse_com(text), 10**9
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hoare, "big_step", None)  # the run must be the compiled one
            for x in range(-3, 4):
                for y in range(-3, 4):
                    outcome = big_step(c, State.of(x=x, y=y), fuel)
                    for mode in Mode:
                        if type(outcome) is Terminated:
                            post, expected = point(["x", "y"], map(outcome.final.read, ["x", "y"])), Valid()
                        else:
                            assert outcome.repeated
                            post = ATrue()
                            expected = CounterexampleFound(State.of(x=x, y=y)) if mode is Mode.TOTAL else RAN_OUT
                        assert check_triple(point(["x", "y"], [x, y]), c, post, {"x", "y"}, 3, fuel, mode) == expected

    def test_equal_loops_under_equal_work_lists_are_one_loop_head(self, refusals):
        # big_step compares work lists, not positions: the loops in the two
        # branches are equal, and so is the work list under each, so a state
        # saved at one is a repeat at the other
        w = "while (y < 2) { y := y + 1 }"
        c = parse_com(f"while (0 < 1) {{ if (x < 1) {{ x := 1; y := 0; {w} }} else {{ x := 1; y := 0; {w} }} }}")
        for fuel in range(40):
            expected = reference_check_triple(ATrue(), c, ATrue(), {"x", "y"}, 1, fuel, Mode.TOTAL)
            assert check_triple(ATrue(), c, ATrue(), {"x", "y"}, 1, fuel, Mode.TOTAL) == expected
        assert expected == CounterexampleFound(State.of(x=-1, y=-1))
        assert not refusals

    @given(coms(max_leaves=8), assertions(4), assertions(4), st.sets(names, max_size=3), st.data())
    @settings(max_examples=150, deadline=None)
    def test_check_triple_agrees_with_the_reference(self, c, pre, post, listed, data):
        bound, fuel = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 40))
        for mode in Mode:
            expected = reference_check_triple(pre, c, post, listed, bound, fuel, mode)
            assert check_triple(pre, c, post, listed, bound, fuel, mode) == expected

    @pytest.mark.parametrize(
        "command, compiled",
        [
            (nested_whiles(19), True),
            (nested_whiles(20), False),
            (nested_whiles(21), False),
            (reduce(lambda c, _: If(ACmp(CmpOp.LT, Var("x"), NumLit(2)), c, Skip()), range(20), Assign("y", NumLit(1))), True),
            (reduce(lambda c, _: If(ACmp(CmpOp.LT, Var("x"), NumLit(2)), c, Skip()), range(120), Assign("y", NumLit(1))), False),
        ],
        ids=["19-whiles", "20-whiles", "21-whiles", "20-ifs", "120-ifs"],
    )
    def test_too_deep_to_compile_runs_by_big_step(self, monkeypatch, command, compiled):
        calls = []
        monkeypatch.setattr(hoare, "big_step", lambda *args: calls.append(args) or big_step(*args))
        post = parse_assertion("x = 1 || y = 1")
        for mode in Mode:
            for fuel in (40, 1_000):
                expected = reference_check_triple(ATrue(), command, post, {"x"}, 2, fuel, mode)
                assert check_triple(ATrue(), command, post, {"x"}, 2, fuel, mode) == expected
        assert bool(calls) is not compiled

    def test_literal_too_long_to_print_runs_by_big_step(self):
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this CPython converts ints of any length to text")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)  # the default, which the CLI lifts
        try:
            c = Assign("x", NumLit(10**5000))
            for mode in Mode:
                got = check_triple(ATrue(), c, parse_assertion("y < 1"), {"y"}, 1, 10, mode)
                assert got == CounterexampleFound(State.of(y=1))
            huge = ACmp(CmpOp.LT, Var("x"), NumLit(10**5000))
            assert entails(ATrue(), huge, {"x"}, 1) == reference_entails(ATrue(), huge, {"x"}, 1)
            expected = reference_check_triple(huge, Skip(), X_LT_0, {"x"}, 1, 10, Mode.PARTIAL)
            assert check_triple(huge, Skip(), X_LT_0, {"x"}, 1, 10) == expected
            x_lt_1 = ACmp(CmpOp.LT, Var("x"), NumLit(1))
            report = verify(c, ATrue(), x_lt_1, 1, 10, Mode.PARTIAL)
            for entry in report.vcs:
                variables = vars_of(entry.formula)
                assert entry.verdict == reference_entails(ATrue(), entry.formula, variables, 1)
            expected = reference_check_triple(ATrue(), c, x_lt_1, {"x"}, 1, 10, Mode.PARTIAL)
            assert report.triple_verdict == expected
        finally:
            sys.set_int_max_str_digits(limit)


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


class TestVacuousTriple:
    """A triple whose precondition holds on no enumerated state is unknown,
    not vacuously valid; the entry VC is still decided as usual."""

    def test_precondition_outside_the_bound(self):
        report = verify(Skip(), parse_assertion("x = 1"), parse_assertion("x = 2"), 0, 10, Mode.PARTIAL)
        assert [entry.verdict for entry in report.vcs] == [Valid()]
        assert report.triple_verdict == Unknown("precondition holds on no enumerated state")
        assert not report.all_valid

    def test_satisfiable_away_from_zero_stays_valid(self):
        report = verify(Skip(), parse_assertion("x = 1"), parse_assertion("x = 1"), 1, 10, Mode.PARTIAL)
        assert report.all_valid

    def test_check_triple_itself_is_unchanged(self):
        assert check_triple(parse_assertion("x = 1"), Skip(), parse_assertion("x = 2"), {"x"}, 0, 10) == Valid()


VC_BOUND = 1
VACUOUS = Unknown("precondition holds on no enumerated state")


def random_pre_post(seed):
    """A precondition and a postcondition, each over a random subset of the
    command variables, so that free-variable sets differ between VCs."""
    rng = random.Random(seed)
    pre, post = (
        gen_assertion(rng, depth, tuple(rng.sample(("x", "y", "z", "w"), rng.randint(1, 4))), (-3, 3))
        for depth in (1, 2)
    )
    return pre, post


class TestCompiledVcs:
    """The VCs and formulas read off the one walk, against the
    weakest-precondition walk over the command tree, which stays the
    reference."""

    @given(coms(max_leaves=6, annotated=True), st.integers(0, 2**32 - 1), st.sampled_from(tuple(Mode)))
    @settings(max_examples=100, deadline=None)
    def test_agree_with_the_tree_vcs(self, c, seed, mode):
        pre, post = random_pre_post(seed)
        try:
            result = vcgen(c, post, mode, pre)
        except MissingAnnotationError as err:
            with pytest.raises(MissingAnnotationError, match=re.escape(str(err))):
                reference_vcs(c, post, mode)
            return
        precondition, trees = reference_vcs(c, post, mode)
        expected = [(ENTRY_LABEL, AImp(pre, precondition)), *trees]
        got = [result.entry, *result.conditions]
        assert [vc.label for vc in got] == [label for label, _ in expected]
        assert result.precondition == precondition
        if not trees:  # no loop
            assert wp_loop_free(c, post) == precondition
        for vc, (_, formula) in zip(got, expected):
            assert vc.formula == formula
            assert vc.variables == tuple(sorted(vars_of(formula)))
            for values in _box(ATrue(), vc.variables, VC_BOUND):
                state = State(zip(vc.variables, values))
                assert vc.falsified(*values) == (not eval_assertion(formula, state))

    @pytest.mark.parametrize("mode", tuple(Mode))
    def test_nested_annotated_loops_agree_with_the_tree_vcs(self, mode):
        # an inner loop's VCs come before its outer loop's, and in total mode
        # the outer snapshot stays free in the inner loop's exit VC
        c = parse_annotated_com(
            "while (0 < x) invariant (0 <= x) measure (x) { y := x; "
            "while (0 < y) invariant (0 <= y) measure (y) { y := y + -1 }; x := x + -1 }"
        )
        pre, post = parse_assertion("0 <= x"), parse_assertion("x = 0")
        result = vcgen(c, post, mode, pre)
        precondition, trees = reference_vcs(c, post, mode)
        assert result.precondition == precondition
        expected = [(ENTRY_LABEL, AImp(pre, precondition)), *trees]
        got = [result.entry, *result.conditions]
        assert [vc.label for vc in got] == [label for label, _ in expected]
        assert len(got) == (7 if mode is Mode.TOTAL else 5)
        assert any("__z0" in vc.variables for vc in got) == (mode is Mode.TOTAL)
        for vc, (_, formula) in zip(got, expected):
            assert vc.formula == formula
            assert vc.variables == tuple(sorted(vars_of(formula)))
            for values in _box(ATrue(), vc.variables, 2):
                state = State(zip(vc.variables, values))
                assert vc.falsified(*values) == (not eval_assertion(formula, state))

    @given(coms(max_leaves=6, annotated=True), st.integers(0, 2**32 - 1), st.sampled_from(tuple(Mode)))
    @settings(max_examples=30, deadline=None)
    def test_tree_fallback_gives_the_same_report(self, c, seed, mode):
        pre, post = random_pre_post(seed)

        def verdicts():
            try:
                report = verify(c, pre, post, VC_BOUND, 200, mode)
            except MissingAnnotationError as err:
                return str(err)
            return [(e.label, e.verdict) for e in report.vcs], report.triple_verdict

        compiled = verdicts()
        with pytest.MonkeyPatch.context() as mp:
            refused = refuse_to_compile(mp)
            assert verdicts() == compiled
        if type(compiled) is str:
            return
        # VCs decided on their formulas and the triple run by big_step; where
        # the triple holds, and the precondition fails on the zero state,
        # entails also looks for a state that satisfies the precondition.  A
        # search over an empty box compiles nothing, so reaches no gate.
        searched = bool(_box(pre, sorted(vars_of(c) | vars_of(pre) | vars_of(post)), VC_BOUND))
        looked = compiled[1] in (Valid(), VACUOUS) and not eval_assertion(pre, State())
        assert refused == {"_compiled", *(["check_triple"] if searched else []), *(["entails"] if looked and searched else [])}

    @given(coms(max_leaves=6, annotated=True), st.integers(0, 2**32 - 1), st.sampled_from(tuple(Mode)))
    @settings(max_examples=50, deadline=None)
    def test_vc_verdicts_are_the_first_state_that_falsifies_the_formula(self, c, seed, mode):
        pre, post = random_pre_post(seed)
        for refused in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                if refused:
                    refuse_to_compile(mp)
                try:
                    report = verify(c, pre, post, VC_BOUND, 200, mode)
                except MissingAnnotationError:
                    return
            for entry in report.vcs:
                ordered, formula = entry.condition.variables, entry.formula
                first = next(
                    (v for v in _box(ATrue(), ordered, VC_BOUND) if not eval_assertion(formula, State(zip(ordered, v)))),
                    None,
                )
                assert entry.verdict == (Valid() if first is None else CounterexampleFound(State(zip(ordered, first))))

    def test_checks_leave_no_reference_cycles(self):
        # garbage in a cycle lives until the cyclic collector runs
        c, pre, post = parse_annotated_com(COUNTDOWN_ANN), parse_assertion("0 <= x"), parse_assertion("x = 0")
        # warm: the searches below reuse the code the first calls compiled
        check_triple(pre, c, post, {"x"}, 3, 1_000)
        verify(c, pre, post, 3, 1_000, Mode.TOTAL)
        hits = syntax._code.cache_info().hits
        gc.collect()
        gc.disable()
        try:
            for _ in range(100):
                check_triple(pre, c, post, {"x"}, 3, 1_000)
            assert gc.collect() == 0
            for _ in range(100):
                verify(c, pre, post, 3, 1_000, Mode.TOTAL)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert syntax._code.cache_info().hits >= hits + 200

    def test_deciding_builds_no_formula(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("formula built")

        monkeypatch.setattr(hoare, "subst_assertion", refuse)
        c = parse_annotated_com("x := x + 1; if (x < 3) { y := x } else { y := 2 }")
        report = verify(c, parse_assertion("x < 5"), parse_assertion("y <= 2"), 4, 100, Mode.PARTIAL)
        assert [entry.verdict for entry in report.vcs] == [Valid()]
        assert report.triple_verdict == Valid()
        with pytest.raises(AssertionError, match="formula built"):
            report.precondition
        with pytest.raises(AssertionError, match="formula built"):
            report.vcs[0].formula

    def test_precondition_and_entry_formula_share_one_build(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return subst_assertion(*args)

        monkeypatch.setattr(hoare, "subst_assertion", counted)
        c = parse_annotated_com("x := x + 1; if (x < 3) { y := x } else { y := 2 }")
        report = verify(c, parse_assertion("x < 5"), parse_assertion("y <= 2"), 4, 100, Mode.PARTIAL)
        assert calls == []
        precondition = report.precondition
        built = len(calls)
        assert built > 0
        assert report.vcs[0].formula == AImp(parse_assertion("x < 5"), precondition)
        assert report.precondition is precondition
        assert len(calls) == built

    def test_sequential_ifs_stay_linear(self):
        # wp copies the postcondition into both branches of each if: 2**16 copies
        c = seq_chain([
            If(ACmp(CmpOp.LT, Var("x"), NumLit(i - 8)), Assign("y", Plus(Var("y"), NumLit(1))), Assign("z", Plus(Var("z"), NumLit(1))))
            for i in range(16)
        ])
        report = verify(c, parse_assertion("y = 0 && z = 0"), parse_assertion("y + z = 16"), 20, 1_000, Mode.PARTIAL)
        assert report.all_valid

    def test_ifs_nested_past_the_indentation_limit_are_decided_on_formulas(self, refusals):
        c = Assign("y", NumLit(1))
        for _ in range(120):
            c = If(ACmp(CmpOp.LT, Var("x"), NumLit(2)), c, Skip())
        post = parse_assertion("y = 1")
        assert verify(c, parse_assertion("x < 2"), post, 2, 1_000, Mode.PARTIAL).all_valid
        report = verify(c, ATrue(), post, 2, 1_000, Mode.PARTIAL)
        assert report.vcs[0].verdict == CounterexampleFound(State.of(x=2, y=-2))
        assert "_compiled" in refusals


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


# --- the folded comparison source and the precondition's box -------------------


FOLDED_EDGES = [
    "1 < 2", "2 <= 1", "3 = 3", "x + 11 <= x + 11", "x < x", "x + 3 <= x",
    "!!!(x < 1)", "!!(1 < 0)", "!(true)", "!!!(x + y = y + x)",
    "false -> x < 1", "x < 1 -> true", "true -> x < 1", "x < 1 -> false", "x < 1 -> false -> y < 0",
    "x < 1 -> 1 < 0", "y < 0 -> x = x -> x < 1",
    "x < 1 && true", "false || x < 1", "x < 1 || true", "1 < 0 && x < 1", "!(0 < 1) || !(x < 1)",
    "x < x + x", "x + y <= y + x", "x + x + y = y + 3", "y + 2 < x + x + y", "x + x <= x + x + x + -1",
    "x + y + y < y", "0 <= x + -1 + y + y + -1",
]


def agrees_on_every_state(a, bound):
    """The compiled `entails` from each state's point precondition holds
    exactly where `eval_assertion` says `a` does."""
    ordered = sorted(vars_of(a))
    expected = []
    for values in _box(ATrue(), ordered, bound):
        state = State(zip(ordered, values))
        expected.append((values, Valid() if eval_assertion(a, state) else CounterexampleFound(state)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hoare, "eval_assertion", None)  # the search must be the compiled one
        for values, verdict in expected:
            assert entails(point(ordered, values), a, ordered, bound) == verdict


class TestFoldedSource:
    @pytest.mark.parametrize("text", FOLDED_EDGES)
    def test_edge_cases_agree_with_eval_assertion(self, text):
        agrees_on_every_state(parse_assertion(text), 2)

    def test_generated_assertions_agree_with_eval_assertion(self):
        rng = random.Random(25)
        for _ in range(120):
            agrees_on_every_state(gen_assertion(rng, 3, ("x", "y"), (-3, 3)), 2)

    @pytest.mark.parametrize(
        "text, source",
        [
            ("x + 11 <= x + 11", "True"),
            ("!(false)", "True"),
            ("x < 1 || true", "True"),
            ("false -> x < 1", "True"),
            ("x < 1 -> true", "True"),
            ("true && x < 2", "(v_x < 2)"),
            ("x < 1 -> false", "(not (v_x < 1))"),
            ("x + y <= y + x + 1 && 1 < 2", "True"),
            ("x < x + x", "-1 * v_x < 0"),
            ("y + 3 = x + x + y", "-2 * v_x == -3"),
        ],
    )
    def test_constants_fold_away(self, text, source):
        assert hoare._source(parse_assertion(text)) == source


def interval(rng, name, other):
    """`k·name op c` for a random nonzero k, written with the variable on
    both sides, a constant split between them and, sometimes, `other` on
    both sides to cancel; at times negated."""
    k, c, d = rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(-7, 7), rng.randint(-3, 3)
    left, right = [Var(name)] * max(k, 0) + [NumLit(d)], [Var(name)] * max(-k, 0) + [NumLit(d + c)]
    if rng.random() < 0.3:
        left, right = left + [Var(other)], [Var(other)] + right
    rng.shuffle(left)
    rng.shuffle(right)
    a = ACmp(rng.choice(tuple(CmpOp)), reduce(Plus, left), reduce(Plus, right))
    return not_chain(rng.choice((0, 0, 1, 2)), a)


def boxed_premise(rng, names):
    """A conjunction, nested at random, of intervals over `names` and over
    `u` (never enumerated), constants, and generated assertions; at times
    with intervals under `||` or `->`, which bound nothing."""
    parts = [interval(rng, rng.choice(names), rng.choice(names)) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.3:
        parts.append(rng.choice((AOr, AImp))(interval(rng, "x", "y"), interval(rng, "y", "x")))
    if rng.random() < 0.2:
        parts.append(interval(rng, "u", "x"))
    if rng.random() < 0.1:
        parts.append(rng.choice((ATrue(), AFalse(), ANot(ATrue()), ANot(AFalse()))))
    if rng.random() < 0.5:
        parts.append(gen_assertion(rng, 2, names, (-3, 3)))
    rng.shuffle(parts)
    while len(parts) > 1:
        i = rng.randrange(len(parts) - 1)
        parts[i:i + 2] = [AAnd(parts[i], parts[i + 1])]
    return parts[0]


def small_com(rng):
    """A small random command from the quickcheck generator."""
    return gen_com(GenConfig(max_depth=2, max_vars=3, literal_range=(-2, 2)), rng)


class TestBox:
    """`_box` reads exact intervals off the top-level conjuncts, and the
    searches over it give the verdicts of the references over the full box."""

    @pytest.mark.parametrize(
        "text, names, expected",
        [
            ("x + x <= -3", ["x"], [-3, -2]),  # floor, not truncation
            ("-3 <= x + x", ["x"], [-1, 0, 1, 2, 3]),  # ceiling
            ("x + x + x <= 4", ["x"], [-3, -2, -1, 0, 1]),
            ("4 < x + x + x", ["x"], [2, 3]),
            ("x + x + x = 6", ["x"], [2]),
            ("-6 = x + x + x", ["x"], [-2]),
            ("x + x = 3", ["x"], []),
            ("!(x < 1)", ["x"], [1, 2, 3]),
            ("!(x <= 1)", ["x"], [2, 3]),
            ("!!(x < 1)", ["x"], [-3, -2, -1, 0]),
            ("!(x = 1)", ["x"], [-3, -2, -1, 0, 1, 2, 3]),
            ("x < 0 || 2 < x", ["x"], [-3, -2, -1, 0, 1, 2, 3]),
            ("x < 0 -> false", ["x"], [-3, -2, -1, 0, 1, 2, 3]),
            ("!(x < 0 && 2 < x)", ["x"], [-3, -2, -1, 0, 1, 2, 3]),
            ("y < 1 && x < 0", ["x"], [-3, -2, -1]),  # y reads 0
            ("1 < y && x < 0", ["x"], []),
            ("x < 1 && false", ["x"], []),
            ("!true && x < 1", ["x"], []),
            ("!false && x < 1 && 0 < 1", ["x"], [-3, -2, -1, 0]),
            ("x + 3 <= x", ["x"], []),
            ("x + y < 3", ["x"], [-3, -2, -1, 0, 1, 2]),  # y reads 0
            ("0 <= x && x <= 1 && -2 < x + x && x < 5", ["x"], [0, 1]),
        ],
    )
    def test_exact_integer_bounds(self, text, names, expected):
        assert list(_box(parse_assertion(text), names, 3)) == [(v,) for v in expected]

    def test_a_product_of_intervals(self):
        premise = parse_assertion("0 <= x && (y < 0 && x <= 1)")
        assert list(_box(premise, ["x", "y", "z"], 1)) == [(x, -1, z) for x in (0, 1) for z in (-1, 0, 1)]
        # y cancels, leaving x < 1
        got = list(_box(parse_assertion("x + y < y + 1"), ["x", "y"], 1))
        assert got == [(x, y) for x in (-1, 0) for y in (-1, 0, 1)]

    def test_every_state_cut_fails_the_premise(self):
        rng = random.Random(25)
        for _ in range(300):
            names = ("x", "y", "z")[: rng.randint(1, 3)]
            premise, bound = boxed_premise(rng, names), rng.randint(0, 3)
            full = list(_box(ATrue(), list(names), bound))
            box = list(_box(premise, list(names), bound))
            assert box == [v for v in full if v in set(box)]  # a subsequence, in order
            for values in set(full) - set(box):
                assert not eval_assertion(premise, State(zip(names, values)))

    def test_one_conjunct_is_read_exactly(self):
        # a lone interval on x leaves exactly the states that satisfy it,
        # except a negated equation, which bounds nothing
        rng = random.Random(25)
        full = list(_box(ATrue(), ["x", "y"], 3))
        for _ in range(300):
            a = comparison = interval(rng, "x", "y")
            negations = 0
            while type(comparison) is ANot:
                comparison, negations = comparison.inner, negations + 1
            satisfying = [v for v in full if eval_assertion(a, State(zip("xy", v)))]
            unread = negations % 2 and comparison.op is CmpOp.EQ
            assert list(_box(a, ["x", "y"], 3)) == (full if unread else satisfying), pretty_assertion(a)

    def test_an_interval_under_or_or_implication_bounds_nothing(self):
        either = parse_assertion("x < 0 || 2 < x")
        assert entails(either, X_LT_0, {"x"}, 3) == CounterexampleFound(State.of(x=3))
        assert check_triple(either, Skip(), parse_assertion("x = 0"), {"x"}, 3, 10) == CounterexampleFound(State.of(x=-3))
        got = entails(parse_assertion("x < 0 -> false"), parse_assertion("x < 2"), {"x"}, 3)
        assert got == CounterexampleFound(State.of(x=2))
        got = entails(parse_assertion("0 <= y -> x < 0"), X_LT_0, {"x", "y"}, 1)
        assert got == CounterexampleFound(State.of(y=-1))

    def test_a_negated_comparison_is_its_complement(self):
        three = CounterexampleFound(State.of(x=3))
        assert entails(parse_assertion("!(x < 1)"), parse_assertion("x < 3"), {"x"}, 3) == three
        assert entails(parse_assertion("!(x <= 1)"), parse_assertion("x < 3"), {"x"}, 3) == three
        assert check_triple(parse_assertion("!(x < 1)"), Skip(), parse_assertion("x < 3"), {"x"}, 3, 10) == three

    def test_the_limit_applies_to_the_full_box(self):
        many = sorted(f"v{i}" for i in range(7))
        assert state_space_size(many, 5) > ENUMERATION_LIMIT
        single = point(many, [0] * 7)
        for got in (entails(single, AFalse(), many, 5), check_triple(single, Skip(), ATrue(), many, 5, 10)):
            assert got == Unknown(f"state space exceeds {ENUMERATION_LIMIT} states")

    def test_fuel_out_counts_only_the_states_of_the_precondition(self):
        pre = parse_assertion("0 <= x && !(2 < x) && y = 1")
        spin = parse_com("while (0 < x) { y := y + 1 }")
        for mode in Mode:
            expected = reference_check_triple(pre, spin, ATrue(), {"x", "y"}, 3, 50, mode)
            assert check_triple(pre, spin, ATrue(), {"x", "y"}, 3, 50, mode) == expected
        assert expected == Unknown("2 initial state(s) ran out of fuel")

    def test_entails_and_check_triple_agree_with_the_references(self):
        rng = random.Random(25)
        for _ in range(150):
            names = ("x", "y", "z")[: rng.randint(1, 3)]
            p, bound = boxed_premise(rng, names), rng.randint(0, 2)
            q = gen_assertion(rng, 2, names, (-3, 3))
            listed = set(names)
            assert entails(p, q, listed, bound) == reference_entails(p, q, listed, bound)
            c = small_com(rng)
            listed |= vars_of(c)
            for mode in Mode:
                expected = reference_check_triple(p, c, q, listed, bound, 40, mode)
                assert check_triple(p, c, q, listed, bound, 40, mode) == expected

    def test_verify_agrees_with_the_full_box(self):
        # every VC's premise and the precondition clip their searches; the
        # same searches over the full box give the same verdicts
        c = parse_annotated_com(
            "while (0 < x) invariant (0 <= x && y <= 2) measure (x) "
            "{ x := x + -1; if (y < 2) { y := y + 1 } else { skip } }"
        )
        rng = random.Random(25)

        def verdicts(pre, post, mode):
            report = verify(c, pre, post, 2, 100, mode)
            return [entry.verdict for entry in report.vcs], report.triple_verdict

        for _ in range(40):
            names = ("x", "y", "z")[: rng.randint(1, 3)]
            pre, post = boxed_premise(rng, names), gen_assertion(rng, 2, names, (-3, 3))
            for mode in Mode:
                clipped = verdicts(pre, post, mode)
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(hoare, "_box", lambda premise, names, bound: _box(ATrue(), names, bound))
                    assert verdicts(pre, post, mode) == clipped


# --- compiled sources, shared per process, and the empty box --------------------


@st.composite
def empty_premises(draw):
    """A premise whose conjuncts put an empty interval on an enumerated name
    (`lo <= k·x` and `k·x <= hi` with hi < lo, each at times written as the
    negated comparison), conjoined in any order with random assertions;
    with the names it lists and a small bound."""
    name = draw(names)
    listed = draw(st.sets(names)) | {name}
    k, lo = draw(st.integers(1, 3)), draw(st.integers(-4, 4))
    hi = draw(st.integers(lo - 4, lo - 1))
    kx = reduce(Plus, [Var(name)] * k)
    above = draw(st.sampled_from((ACmp(CmpOp.LE, NumLit(lo), kx), ANot(ACmp(CmpOp.LT, kx, NumLit(lo))))))
    below = draw(st.sampled_from((ACmp(CmpOp.LE, kx, NumLit(hi)), ANot(ACmp(CmpOp.LT, NumLit(hi), kx)))))
    parts = draw(st.permutations([above, below, *draw(st.lists(assertions(4), max_size=2))]))
    return reduce(AAnd, parts), listed, draw(st.integers(0, 2))


class TestCompiledSources:
    """Each distinct generated source is compiled once per process, and a
    search over an empty box compiles nothing; every verdict is that of the
    references over the full box."""

    def test_equal_sources_share_one_code_object(self):
        first = syntax._generated(lambda: ["def _f(_s):", " return _s"])
        second = syntax._generated(lambda: ["def _f(_s):", " return _s"])
        assert first is not second  # each call runs in its own namespace
        assert first.pop("_f").__code__ is second.pop("_f").__code__

    def test_a_repeated_check_reuses_its_code(self):
        p, q = parse_assertion("0 <= x"), parse_assertion("x < 2")
        before = syntax._code.cache_info()
        # the bound is not part of the source
        assert entails(p, q, {"x"}, 2) == reference_entails(p, q, {"x"}, 2)
        assert entails(p, q, {"x"}, 3) == reference_entails(p, q, {"x"}, 3)
        after = syntax._code.cache_info()
        assert after.hits >= before.hits + 1
        assert after.hits + after.misses == before.hits + before.misses + 2

    def test_the_cache_stays_bounded(self):
        # a long-lived process that checks fresh literals must not keep every source
        for k in range(10_000):
            assert entails(ATrue(), ACmp(CmpOp.LT, Var("x"), NumLit(k)), {"x"}, 0) == (
                Valid() if k > 0 else CounterexampleFound(State())
            )
            info = syntax._code.cache_info()
            assert info.maxsize is not None and info.currsize <= info.maxsize

    def test_a_refused_source_is_refused_on_every_call_and_never_kept(self):
        for _ in range(3):
            before = syntax._code.cache_info()
            assert syntax._generated(lambda: [f"_x = {'(' * 300}1{')' * 300}"]) is None
            after = syntax._code.cache_info()
            assert (after.hits, after.misses, after.currsize) == (before.hits, before.misses + 1, before.currsize)

    def test_a_refused_check_runs_its_reference_on_every_call(self, refusals):
        for _ in range(3):
            assert entails(X_LT_0, DEEPER, {"x", "y"}, 2) == reference_entails(X_LT_0, DEEPER, {"x", "y"}, 2)
        assert refusals == ["entails"] * 3

    @given(empty_premises(), assertions(4), coms(max_leaves=4))
    @settings(max_examples=60, deadline=None)
    def test_an_empty_box_reaches_no_gate(self, premise_listed_bound, q, c):
        p, listed, bound = premise_listed_bound
        assert _box(p, sorted(listed), bound) == ()
        listed |= vars_of(c)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hoare, "_generated", None)  # no search may be compiled
            assert entails(p, q, listed, bound) == reference_entails(p, q, listed, bound)
            for mode in Mode:
                assert check_triple(p, c, q, listed, bound, 40, mode) == reference_check_triple(p, c, q, listed, bound, 40, mode)

    @pytest.mark.parametrize(
        "text, listed, bound, expected",
        [
            ("x = 3", ["x"], 3, {"x": 3}),  # one value, at the top of the range
            ("x = -3", ["x"], 3, {"x": -3}),  # and at the bottom
            ("0 <= x && x <= 0 && y = 2", ["x", "y"], 2, {"y": 2}),
            ("x + x + x = 6 && !(y < 1) && y < 2", ["x", "y"], 3, {"x": 2, "y": 1}),
            ("true", ["x", "y"], 0, {}),  # every range holds one value at bound 0
            ("x < 1 && y = 0", ["x", "y"], 0, {}),
        ],
    )
    def test_a_single_valued_range_is_searched(self, text, listed, bound, expected):
        p, state = parse_assertion(text), State(expected.items())
        assert list(_box(p, listed, bound)) == [tuple(map(state.read, listed))]
        assert entails(p, AFalse(), listed, bound) == CounterexampleFound(state)
        for mode in Mode:
            assert check_triple(p, Skip(), AFalse(), listed, bound, 10, mode) == CounterexampleFound(state)
        assert verify(Skip(), p, ATrue(), bound, 10, Mode.PARTIAL).triple_verdict == Valid()

    @pytest.mark.parametrize("text", ["x = 4", "3 < x", "x + x = 3", "0 < x && x < 1", "y < 0 && 0 <= y"])
    def test_an_empty_box_is_valid(self, text):
        p = parse_assertion(text)
        assert _box(p, ["x", "y"], 3) == ()
        assert entails(p, AFalse(), {"x", "y"}, 3) == Valid()
        assert check_triple(p, Skip(), AFalse(), {"x", "y"}, 3, 10) == Valid()
        assert verify(Skip(), p, AFalse(), 3, 10, Mode.PARTIAL).triple_verdict == VACUOUS
