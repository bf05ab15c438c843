from hypothesis import given
from hypothesis import strategies as st

from conftest import bexps, coms, states
from imptool.bigstep import FuelExhausted, Terminated, big_step
from imptool.syntax import (
    ATrue,
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
)
from imptool.parser import parse_com

LOOP_FOREVER = While(ATrue(), Skip())


def eval_ref(c, s):
    # independent reference evaluator; loop-free programs only, so plain
    # recursion is safe
    t = type(c)
    if t is Skip:
        return s
    if t is Assign:
        return s.update(c.target, aval(c.rhs, s))
    if t is Seq:
        return eval_ref(c.second, eval_ref(c.first, s))
    if t is If:
        return eval_ref(c.then_branch if bval(c.cond, s) else c.else_branch, s)
    raise AssertionError(f"unexpected node {c!r}")


class TestBigStep:
    def test_skip_uses_one_rule(self):
        s = State.of(a=3)
        assert big_step(Skip(), s, 1) == Terminated(s, 1)

    def test_two_assignments(self):
        got = big_step(parse_com("x := 1; y := x"), State(), 10)
        assert got == Terminated(State.of(x=1, y=1), 3)

    def test_countdown_rule_count(self):
        loop = parse_com("while (i < 2) { i := i + 1 }")
        got = big_step(loop, State(), 100)
        assert got == Terminated(State.of(i=2), 5)

    def test_if_takes_else_branch(self):
        got = big_step(parse_com("if (0 < x) { y := 1 } else { y := 2 }"), State(), 10)
        assert got == Terminated(State.of(y=2), 2)

    def test_infinite_loop_exhausts_any_fuel(self):
        for fuel in (0, 1, 7, 1000):
            assert isinstance(big_step(LOOP_FOREVER, State(), fuel), FuelExhausted)

    def test_fuel_exhausted_values_are_equal(self):
        a = big_step(LOOP_FOREVER, State(), 3)
        b = big_step(LOOP_FOREVER, State.of(q=1), 50)
        assert a == b
        assert a != Terminated(State(), 3)

    def test_exact_fuel_still_terminates(self):
        c = parse_com("x := 1; y := x")
        assert big_step(c, State(), 3) == Terminated(State.of(x=1, y=1), 3)
        assert isinstance(big_step(c, State(), 2), FuelExhausted)


@given(coms(loops=False), states())
def test_matches_reference_evaluator(c, s):
    got = big_step(c, s, 100_000)
    assert isinstance(got, Terminated)
    assert got.final == eval_ref(c, s)


@given(coms(loops=True), states(), st.integers(min_value=0, max_value=60))
def test_fuel_monotonic_and_deterministic(c, s, fuel):
    got = big_step(c, s, fuel)
    assert big_step(c, s, fuel) == got
    if isinstance(got, Terminated):
        # any larger budget reproduces the same derivation
        again = big_step(c, s, fuel + 17)
        assert again == got


def equivalent_com(c1, c2, states, fuel):
    """Both commands give the same outcome on every state at this fuel:
    the same final state, or both out of fuel (agreement on divergence)."""
    for s in states:
        o1, o2 = big_step(c1, s, fuel), big_step(c2, s, fuel)
        if type(o1) is not type(o2) or (type(o1) is Terminated and o1.final != o2.final):
            return False
    return True


class TestEquivalence:
    def test_skip_left_unit(self):
        c = parse_com("x := x + 1")
        samples = [State(), State.of(x=4), State.of(x=-2, y=9)]
        assert equivalent_com(Seq(Skip(), c), c, samples, 100)

    def test_distinguishable_assignments(self):
        assert not equivalent_com(
            Assign("x", NumLit(1)), Assign("x", NumLit(2)), [State()], 10
        )

    def test_divergent_programs_are_equivalent_under_fuel(self):
        assert equivalent_com(LOOP_FOREVER, While(ATrue(), Assign("x", NumLit(1))), [State()], 50)

    @given(bexps(6), coms(max_leaves=4, loops=False), states())
    def test_while_unfolding_law(self, b, c, s):
        loop = While(b, c)
        unfolded = If(b, Seq(c, loop), Skip())
        assert equivalent_com(loop, unfolded, [s], 500)


def _chain(node, count, nest_right):
    out = node
    for _ in range(count - 1):
        out = Seq(node, out) if nest_right else Seq(out, node)
    return out


def test_deep_seq_chains_do_not_recurse():
    # 10^5 statements in both nesting directions; compare final states only,
    # structural equality on ASTs this deep would itself recurse
    step = Assign("x", Plus(Var("x"), NumLit(1)))
    n = 100_000
    for nest_right in (True, False):
        got = big_step(_chain(step, n, nest_right), State(), 10**7)
        assert isinstance(got, Terminated)
        assert got.final.read("x") == n
        assert got.rules_applied == 2 * n - 1
