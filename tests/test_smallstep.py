from itertools import islice

from hypothesis import given
from hypothesis import strategies as st

from conftest import coms, states, swapped_small_step
from imptool.bigstep import Terminated, big_step
from imptool.parser import parse_com
from imptool.smallstep import (
    ProgConfig,
    StepTrace,
    TraceStatus,
    small_step,
    small_steps,
    star_run,
)
from imptool.syntax import (
    Assign,
    BoolLit,
    If,
    NumLit,
    Seq,
    Skip,
    State,
    While,
)

LOOP_FOREVER = While(BoolLit(True), Skip())


class TestSmallStep:
    def test_skip_is_final(self):
        cfg = ProgConfig(Skip(), State.of(x=1))
        assert cfg.is_final
        assert small_step(cfg) is None

    def test_assign(self):
        got = small_step(ProgConfig(Assign("x", NumLit(1)), State()))
        assert got == ProgConfig(Skip(), State.of(x=1))

    def test_seq_skip_discharges(self):
        c2 = Assign("x", NumLit(2))
        got = small_step(ProgConfig(Seq(Skip(), c2), State.of(y=5)))
        assert got == ProgConfig(c2, State.of(y=5))

    def test_seq_steps_head(self):
        c = Seq(Assign("x", NumLit(1)), Skip())
        got = small_step(ProgConfig(c, State()))
        assert got == ProgConfig(Seq(Skip(), Skip()), State.of(x=1))

    def test_if_picks_branch_without_touching_state(self):
        c = parse_com("if (x < 1) { y := 1 } else { y := 2 }")
        took_then = small_step(ProgConfig(c, State()))
        took_else = small_step(ProgConfig(c, State.of(x=3)))
        assert took_then == ProgConfig(Assign("y", NumLit(1)), State())
        assert took_else == ProgConfig(Assign("y", NumLit(2)), State.of(x=3))

    def test_while_unfolds_to_if(self):
        body = Assign("i", NumLit(1))
        loop = While(BoolLit(True), body)
        got = small_step(ProgConfig(loop, State()))
        assert got == ProgConfig(If(BoolLit(True), Seq(body, loop), Skip()), State())

    def test_deep_seq_spine_steps_without_recursion(self):
        c = Assign("x", NumLit(1))
        node = c
        for _ in range(100_000):
            node = Seq(c, node)
        got = small_step(ProgConfig(node, State()))
        assert got is not None
        assert got.state == State.of(x=1)

    def test_branch_swap_hook_flips_if(self):
        c = parse_com("if (x < 1) { y := 1 } else { y := 2 }; skip")
        got = swapped_small_step(ProgConfig(c, State()))
        assert got == ProgConfig(Seq(Assign("y", NumLit(2)), Skip()), State())
        plain = ProgConfig(parse_com("x := 1; skip"), State())
        assert swapped_small_step(plain) == small_step(plain)


def reference_steps(cfg, fuel):
    """The configurations small_steps must yield, at most fuel steps in."""
    chain = [cfg]
    while len(chain) <= fuel:
        nxt = small_step(chain[-1])
        if nxt is None:
            break
        chain.append(nxt)
    return chain


class TestSmallSteps:
    def test_final_start_yields_only_itself(self):
        cfg = ProgConfig(Skip(), State.of(x=1))
        assert list(small_steps(cfg)) == [cfg]

    def test_prepending_one_step(self):
        cfg = ProgConfig(parse_com("x := 1; y := x"), State())
        whole = list(small_steps(cfg))
        assert len(whole) == 4
        assert whole == [cfg] + list(small_steps(small_step(cfg)))

    def test_lazy_on_a_diverging_program(self):
        cfg = next(islice(small_steps(ProgConfig(LOOP_FOREVER, State())), 1000, None))
        assert not cfg.is_final

    @given(coms(loops=True), states(), st.integers(min_value=0, max_value=50))
    def test_prefix_matches_reference_and_star_run(self, c, s, fuel):
        cfg = ProgConfig(c, s)
        ref = reference_steps(cfg, fuel)
        assert list(islice(small_steps(cfg), fuel + 1)) == ref
        done = small_step(ref[-1]) is None
        status = TraceStatus.COMPLETED if done else TraceStatus.FUEL_EXHAUSTED
        assert star_run(cfg, fuel) == StepTrace(ref[-1], len(ref) - 1, status)


class TestStarRun:
    def test_skip_zero_fuel_completes(self):
        s = State.of(k=2)
        trace = star_run(ProgConfig(Skip(), s), 0)
        assert trace == StepTrace(ProgConfig(Skip(), s), 0, TraceStatus.COMPLETED)

    def test_two_assignments_take_three_steps(self):
        trace = star_run(ProgConfig(parse_com("x := 1; y := x"), State()), 100)
        assert trace.steps_taken == 3
        assert trace.status is TraceStatus.COMPLETED
        assert trace.last == ProgConfig(Skip(), State.of(x=1, y=1))

    def test_infinite_loop_exhausts(self):
        trace = star_run(ProgConfig(LOOP_FOREVER, State()), 10)
        assert trace.status is TraceStatus.FUEL_EXHAUSTED
        assert trace.steps_taken == 10
        assert not trace.last.is_final

    def test_exactly_enough_fuel_still_completes(self):
        # status reflects finality of the last config, not the loop exit
        cfg = ProgConfig(parse_com("x := 1; y := x"), State())
        trace = star_run(cfg, 3)
        assert trace.status is TraceStatus.COMPLETED

    def test_negative_max_steps_takes_no_step(self):
        cfg = ProgConfig(LOOP_FOREVER, State.of(x=1))
        assert star_run(cfg, -3) == StepTrace(cfg, 0, TraceStatus.FUEL_EXHAUSTED)
        done = ProgConfig(Skip(), State())
        assert star_run(done, -3) == StepTrace(done, 0, TraceStatus.COMPLETED)


@given(coms(loops=True), states(), st.integers(min_value=0, max_value=50))
def test_trace_invariants(c, s, fuel):
    configs = list(islice(small_steps(ProgConfig(c, s)), fuel + 1))
    trace = star_run(ProgConfig(c, s), fuel)
    assert trace.steps_taken == len(configs) - 1
    assert trace.last == configs[-1]
    for before, after in zip(configs, configs[1:]):
        assert small_step(before) == after  # determinism: recompute matches
    if trace.status is TraceStatus.COMPLETED:
        assert configs[-1].is_final
    else:
        assert not configs[-1].is_final
        assert trace.steps_taken == fuel


@given(coms(loops=False), states())
def test_agreement_with_big_step(c, s):
    trace = star_run(ProgConfig(c, s), 100_000)
    assert trace.status is TraceStatus.COMPLETED
    big = big_step(c, s, 100_000)
    assert isinstance(big, Terminated)
    assert trace.last == ProgConfig(Skip(), big.final)
