import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from conftest import aexps, bexps, coms, gen_instrs, mutant, names, reference_acomp, small_ints, states
from imptool import machine
from imptool.bigstep import Terminated, big_step
from imptool.machine import (
    Add,
    Halted,
    Jmp,
    JmpGe,
    JmpLess,
    Load,
    LoadI,
    MachineConfig,
    StackUnderflowError,
    Store,
    StopReason,
    StuckOrExhausted,
    acomp,
    bcomp,
    ccomp,
    exec1,
    exec_n,
    execute,
    steps_to_halt,
)
from imptool.parser import parse_com
from imptool.syntax import (
    AAnd,
    ACmp,
    AFalse,
    ANot,
    Assign,
    ATrue,
    CmpOp,
    NumLit,
    Plus,
    State,
    Var,
    aval,
    bval,
)


def cfg0(state=None, stack=()):
    return MachineConfig(0, state if state is not None else State(), stack)


class TestExec1:
    def test_loadi(self):
        s = State.of(a=1)
        assert exec1([LoadI(5)], cfg0(s)) == MachineConfig(1, s, (5,))

    def test_load_reads_default_zero(self):
        assert exec1([Load("x")], cfg0()) == MachineConfig(1, State(), (0,))

    def test_add_pops_two_pushes_sum(self):
        got = exec1([Add()], cfg0(stack=(2, 3, 9)))
        assert got == MachineConfig(1, State(), (5, 9))

    def test_store_pops_top(self):
        got = exec1([Store("x")], cfg0(stack=(4, 8)))
        assert got == MachineConfig(1, State.of(x=4), (8,))

    def test_jmp_relative(self):
        assert exec1([Jmp(-1)], cfg0()) == cfg0()
        assert exec1([Jmp(3)], cfg0()).pc == 4

    def test_jmpless_compares_second_with_top(self):
        # stack (top, second): second < top jumps
        assert exec1([JmpLess(7)], cfg0(stack=(5, 3))).pc == 8
        assert exec1([JmpLess(7)], cfg0(stack=(3, 5))).pc == 1

    def test_jmpge(self):
        assert exec1([JmpGe(7)], cfg0(stack=(3, 5))).pc == 8
        assert exec1([JmpGe(7)], cfg0(stack=(5, 5))).pc == 8
        assert exec1([JmpGe(7)], cfg0(stack=(5, 3))).pc == 1

    def test_conditional_jumps_pop_operands_either_way(self):
        for instr in (JmpLess(2), JmpGe(2)):
            got = exec1([instr], cfg0(stack=(1, 2, 9)))
            assert got.stack == (9,)

    def test_pc_outside_program_means_no_step(self):
        prog = [LoadI(1)]
        assert exec1(prog, MachineConfig(1, State())) is None
        assert exec1(prog, MachineConfig(-1, State())) is None
        assert exec1([], cfg0()) is None

    @pytest.mark.parametrize(
        "prog,stack",
        [([Add()], ()), ([Add()], (7,)), ([Store("x")], ()), ([JmpLess(1)], (1,)), ([JmpGe(0)], ())],
    )
    def test_underflow_raises(self, prog, stack):
        with pytest.raises(StackUnderflowError):
            exec1(prog, cfg0(stack=stack))

    def test_non_instruction_raises_type_error(self):
        with pytest.raises(TypeError, match="not an instruction: 'LoadI'"):
            exec1(["LoadI"], cfg0())


class TestExecute:
    def test_empty_program_halts_immediately(self):
        s = State.of(v=2)
        got = execute([], MachineConfig(0, s), 10)
        assert got == Halted(MachineConfig(0, s), 0)

    def test_two_instruction_program(self):
        got = execute([LoadI(1), Store("x")], cfg0(), 10)
        assert got == Halted(MachineConfig(2, State.of(x=1)), 2)

    def test_negative_pc_is_a_clean_halt(self):
        got = execute([Jmp(-5)], cfg0(), 10)
        assert got == Halted(MachineConfig(-4, State()), 1)

    def test_self_loop_exhausts_fuel(self):
        got = execute([Jmp(-1)], cfg0(), 5)
        assert got == StuckOrExhausted(cfg0(), 5, StopReason.FUEL_EXHAUSTED)

    def test_preloaded_stack_keeps_its_order(self):
        got = execute([Add(), Store("x")], MachineConfig(0, State(), (2, 3, 9)), 10)
        assert got == Halted(MachineConfig(2, State.of(x=5), (9,)), 2)

    def test_storing_zero_unbinds_the_name(self):
        got = execute([LoadI(0), Store("x")], MachineConfig(0, State.of(x=4)), 10)
        assert got.final.state == State()
        assert repr(got.final.state) == "State()"

    def test_underflow_reported_with_position(self):
        got = execute([LoadI(1), Add()], cfg0(), 10)
        assert got == StuckOrExhausted(
            MachineConfig(1, State(), (1,)), 1, StopReason.STACK_UNDERFLOW
        )


class TestExecN:
    def test_zero_steps_is_identity(self):
        weird = MachineConfig(99, State.of(x=1), (2,))
        assert exec_n([], weird, 0) == weird

    def test_counted_run(self):
        got = exec_n([LoadI(1), Store("x")], cfg0(), 2)
        assert got == MachineConfig(2, State.of(x=1))

    def test_overrun_reports_out_of_program(self):
        got = exec_n([LoadI(1)], cfg0(), 2)
        assert got == StuckOrExhausted(MachineConfig(1, State(), (1,)), 1, StopReason.OUT_OF_PROGRAM)

    def test_underflow_does_not_raise_here(self):
        got = exec_n([Add()], cfg0(), 3)
        assert got == StuckOrExhausted(cfg0(), 0, StopReason.STACK_UNDERFLOW)


class TestStepsToHalt:
    def test_goldens(self):
        assert steps_to_halt([], cfg0(), 10) == 0
        assert steps_to_halt([LoadI(1), Store("x")], cfg0(), 10) == 2
        assert steps_to_halt([Jmp(-1)], cfg0(), 10) is None
        assert steps_to_halt([Add()], cfg0(), 10) is None


# --- the run loop against exec1 ---------------------------------------------------


def _reason_stuck(prog, cfg):
    """Why `cfg` cannot step, by asking exec1; None if it can."""
    try:
        return None if exec1(prog, cfg) is not None else StopReason.OUT_OF_PROGRAM
    except StackUnderflowError:
        return StopReason.STACK_UNDERFLOW


def _chain(prog, cfg, n):
    """The configurations reached by at most n steps of exec1."""
    chain = [cfg]
    for _ in range(n):
        if _reason_stuck(prog, chain[-1]) is not None:
            break
        chain.append(exec1(prog, chain[-1]))
    return chain


_offsets = st.integers(min_value=-3, max_value=3)
_instrs = st.one_of(
    st.builds(LoadI, small_ints),
    st.builds(Load, names),
    st.just(Add()),
    st.builds(Store, names),
    st.builds(Jmp, _offsets),
    st.builds(JmpLess, _offsets),
    st.builds(JmpGe, _offsets),
)


@st.composite
def _runs(draw):
    """A program, a start configuration whose pc may lie just outside it, and
    a budget that may be negative."""
    prog = draw(st.lists(_instrs, max_size=12))
    pc = draw(st.integers(min_value=-1, max_value=len(prog) + 1))
    stack = tuple(draw(st.lists(small_ints, max_size=4)))
    fuel = draw(st.integers(min_value=-2, max_value=40))
    return prog, MachineConfig(pc, draw(states()), stack), fuel


class TestRunLoopAgainstExec1:
    @given(_runs())
    def test_execute(self, run):
        prog, cfg, fuel = run
        chain = _chain(prog, cfg, fuel)
        reason = _reason_stuck(prog, chain[-1])
        if reason is StopReason.OUT_OF_PROGRAM:
            expected = Halted(chain[-1], len(chain) - 1)
        else:
            reason = reason or StopReason.FUEL_EXHAUSTED
            expected = StuckOrExhausted(chain[-1], len(chain) - 1, reason)
        assert execute(prog, cfg, fuel) == expected

    @given(_runs())
    def test_exec_n(self, run):
        prog, cfg, n = run
        chain = _chain(prog, cfg, n)
        if len(chain) - 1 == max(n, 0):
            expected = chain[-1]
        else:
            expected = StuckOrExhausted(chain[-1], len(chain) - 1, _reason_stuck(prog, chain[-1]))
        assert exec_n(prog, cfg, n) == expected

    @given(_runs())
    def test_steps_to_halt(self, run):
        prog, cfg, fuel = run
        chain = _chain(prog, cfg, fuel)
        halts = _reason_stuck(prog, chain[-1]) is StopReason.OUT_OF_PROGRAM
        assert steps_to_halt(prog, cfg, fuel) == (len(chain) - 1 if halts else None)

    def test_negative_budgets_take_no_step(self):
        # a budget test of `steps == fuel` would spin forever on JMP -1 here
        exhausted = StuckOrExhausted(cfg0(), 0, StopReason.FUEL_EXHAUSTED)
        assert execute([Jmp(-1)], cfg0(), -3) == exhausted
        assert exec_n([Jmp(-1)], cfg0(), -1) == cfg0()
        assert steps_to_halt([], cfg0(), -2) == 0

    def test_halting_exactly_at_the_limit_is_a_halt(self):
        prog = [LoadI(1), Store("x")]
        assert execute(prog, cfg0(), 2) == Halted(MachineConfig(2, State.of(x=1)), 2)
        assert steps_to_halt(prog, cfg0(), 2) == 2

    def test_stuck_exactly_at_the_limit_is_stuck(self):
        got = execute([LoadI(1), Add()], cfg0(), 1)
        assert got == StuckOrExhausted(MachineConfig(1, State(), (1,)), 1, StopReason.STACK_UNDERFLOW)

    def test_able_to_step_at_the_limit_is_exhausted(self):
        got = execute([LoadI(1), LoadI(2)], cfg0(), 1)
        assert got == StuckOrExhausted(MachineConfig(1, State(), (1,)), 1, StopReason.FUEL_EXHAUSTED)

    def test_non_instruction_at_the_limit_is_exhausted_and_raises_past_it(self):
        prog = [LoadI(1), "LoadI"]
        got = execute(prog, cfg0(), 1)
        assert got == StuckOrExhausted(MachineConfig(1, State(), (1,)), 1, StopReason.FUEL_EXHAUSTED)
        with pytest.raises(TypeError, match="not an instruction: 'LoadI'"):
            execute(prog, cfg0(), 2)


class TestAcomp:
    def test_goldens(self):
        assert acomp(NumLit(5)) == [LoadI(5)]
        assert acomp(Var("x")) == [Load("x")]
        assert acomp(Plus(Var("x"), NumLit(3))) == [Load("x"), LoadI(3), Add()]

    @given(aexps(), states())
    def test_leaves_value_on_top(self, a, s):
        code = acomp(a)
        got = execute(code, MachineConfig(0, s, (11,)), len(code))
        # exactly one instruction per step: fuel len(code) always suffices
        assert got == Halted(MachineConfig(len(code), s, (aval(a, s), 11)), len(code))


    @given(aexps())
    def test_matches_reference_acomp(self, a):
        assert acomp(a) == reference_acomp(a)

    def test_long_sum(self):
        a = NumLit(1)
        for _ in range(4_999):
            a = Plus(a, NumLit(1))
        assert acomp(a) == [LoadI(1)] + [LoadI(1), Add()] * 4_999


class TestBcomp:
    def test_goldens(self):
        assert bcomp(ATrue(), True, 3) == [Jmp(3)]
        assert bcomp(ATrue(), False, 3) == []
        assert bcomp(AFalse(), False, 2) == [Jmp(2)]
        assert bcomp(ACmp(CmpOp.LT, NumLit(1), NumLit(2)), True, 4) == [
            LoadI(1),
            LoadI(2),
            JmpLess(4),
        ]
        assert bcomp(ACmp(CmpOp.LT, NumLit(1), NumLit(2)), False, 4) == [
            LoadI(1),
            LoadI(2),
            JmpGe(4),
        ]
        assert bcomp(ANot(ATrue()), True, 3) == []

    def test_and_short_circuits(self):
        # a false left conjunct must skip the right conjunct's code entirely
        b = AAnd(ACmp(CmpOp.LT, Var("x"), NumLit(0)), ACmp(CmpOp.LT, Var("y"), NumLit(0)))
        code = bcomp(b, True, 5)
        got = execute(code, MachineConfig(0, State.of(x=1), ()), 10)
        assert isinstance(got, Halted)
        assert got.steps_taken == 3  # LoadI/Load of left pair + JmpGe only

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            bcomp(ATrue(), True, -1)

    @given(bexps(8), states(), st.booleans(), st.integers(min_value=0, max_value=5))
    def test_jump_exactly_when_condition_matches(self, b, s, jump_if, offset):
        code = bcomp(b, jump_if, offset)
        expected_pc = len(code) + (offset if bval(b, s) == jump_if else 0)
        got = execute(code, MachineConfig(0, s, (7,)), len(code) + 1)
        assert isinstance(got, Halted)
        assert got.final == MachineConfig(expected_pc, s, (7,))


COUNTDOWN = parse_com("while (0 < i) { i := i + -1 }")


class TestCcomp:
    def test_goldens(self):
        assert ccomp(parse_com("skip")) == []
        assert ccomp(parse_com("x := x + 1")) == [
            Load("x"),
            LoadI(1),
            Add(),
            Store("x"),
        ]

    def test_equal_instructions_are_one_object(self):
        c = parse_com("x := y + 1; x := y + 1")
        code = ccomp(c)
        assert code == [*reference_acomp(c.first.rhs), Store("x")] * 2
        assert [code[i] is code[i + 4] for i in range(4)] == [True] * 4
        # a test shares its instructions with the assignments
        code = ccomp(parse_com("if (y < 1) { x := y } else { skip }"))
        assert code[0] == Load("y") and code[0] is code[3]

    def test_instruction_caches_stay_bounded(self):
        # a long-lived process that compiles fresh literals must not grow them
        # without limit
        for k in range(10_000):
            assert ccomp(Assign("x", NumLit(k))) == [LoadI(k), Store("x")]
            info = machine._LOAD_I.cache_info()
            assert info.maxsize is not None and info.currsize <= info.maxsize

    def test_if_shape(self):
        code = ccomp(parse_com("if (x < 0) { y := 1 } else { y := 2 }"))
        assert code == [
            Load("x"),
            LoadI(0),
            JmpGe(3),
            LoadI(1),
            Store("y"),
            Jmp(2),
            LoadI(2),
            Store("y"),
        ]

    def test_countdown_shape(self):
        assert ccomp(COUNTDOWN) == [
            LoadI(0),
            Load("i"),
            JmpGe(5),
            Load("i"),
            LoadI(-1),
            Add(),
            Store("i"),
            Jmp(-8),
        ]

    def test_loop_runs_to_big_step_state(self):
        loop = parse_com("while (i < 2) { i := i + 1 }")
        code = ccomp(loop)
        got = execute(code, cfg0(), 1000)
        assert isinstance(got, Halted)
        assert got.final == MachineConfig(len(code), State.of(i=2))

    @given(coms(loops=False), states())
    def test_differential_against_big_step(self, c, s):
        code = ccomp(c)
        big = big_step(c, s, 100_000)
        assert isinstance(big, Terminated)
        got = execute(code, MachineConfig(0, s), len(code) + 1)
        assert isinstance(got, Halted)
        assert got.final == MachineConfig(len(code), big.final)
        # counted execution and the halting run agree step for step
        n = steps_to_halt(code, MachineConfig(0, s), len(code) + 1)
        assert n == got.steps_taken
        assert exec_n(code, MachineConfig(0, s), n) == got.final

    @given(coms(loops=True))
    def test_compiled_jumps_stay_in_range(self, c):
        assert jumps_in_range(ccomp(c))


IN_CONTEXT = (
    coms(loops=True),
    states(),
    st.randoms(use_true_random=False),
    st.lists(small_ints, min_size=1, max_size=3).map(tuple),
)


def compiled_in_context(c, s, rng, stk):
    """The book's compiler lemma in context: from (len P, s, stk), the code
    `P @ ccomp c @ P'` reaches (len P + len(ccomp c), t, stk), where c takes
    s to t, whatever P, P' and the stack below."""
    big = big_step(c, s, 10_000)
    assume(type(big) is Terminated)
    code = ccomp(c)
    before, after = gen_instrs(rng, rng.randint(0, 6)), gen_instrs(rng, rng.randint(0, 6))
    n = steps_to_halt(code, MachineConfig(0, s), 10**6)
    got = exec_n(before + code + after, MachineConfig(len(before), s, stk), n)
    assert got == MachineConfig(len(before) + len(code), big.final, stk)


class TestCompilerInContext:
    @given(*IN_CONTEXT)
    def test_lemma(self, c, s, rng, stk):
        compiled_in_context(c, s, rng, stk)

    def test_catches_a_store_that_clears_the_stack(self, monkeypatch):
        broken = mutant(machine._run, "store[instr.name] = pop()", "store[instr.name] = pop(); stack.clear()")
        monkeypatch.setattr(machine, "_run", broken)
        # the first failing example is enough: nothing is shrunk or stored
        quick = settings(derandomize=True, phases=[Phase.generate], database=None)
        lemma = quick(given(*IN_CONTEXT)(compiled_in_context))
        with pytest.raises(AssertionError):
            lemma()


def jumps_in_range(prog):
    """Every jump lands inside [0, len(prog)]."""
    return all(
        0 <= i + 1 + instr.offset <= len(prog)
        for i, instr in enumerate(prog)
        if type(instr) in (Jmp, JmpLess, JmpGe)
    )


def test_jumps_in_range_goldens():
    assert jumps_in_range([])
    assert jumps_in_range([Jmp(0)])  # lands exactly one past the end
    assert not jumps_in_range([Jmp(1)])
    assert not jumps_in_range([Jmp(-2)])
    assert jumps_in_range([JmpLess(0), JmpGe(-2)])


def test_trace_prefixes_match_exec_n():
    prog = ccomp(COUNTDOWN)
    start = MachineConfig(0, State.of(i=2))
    cfg, k = start, 0
    while cfg is not None:
        assert exec_n(prog, start, k) == cfg
        cfg, k = exec1(prog, cfg), k + 1
    assert k == steps_to_halt(prog, start, 1000) + 1
