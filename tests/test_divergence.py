"""A repeated configuration proves divergence.

The run loops of big-step, small-step and the machine stop spending fuel once
a configuration repeats.  They must return exactly what the plain loops in
conftest (`reference_big_step`, `reference_star_run`, `reference_run`) return
at the same fuel, including fuels far beyond the first repeat.

At a large fuel the plain loops would take seconds, so there the reference
runs at an equivalent small fuel instead: `equivalent_fuel` keeps every
configuration of the reference run (no Brent), and a run that repeats after
`first` steps with period `p` is at step `fuel` where it is at step
`first + (fuel - first) % p`.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    coms,
    counting_units,
    counting_loops,
    mutant,
    reference_big_step,
    reference_run,
    reference_small_step,
    reference_star_run,
    states,
)
from imptool import bigstep, harness, machine, smallstep, syntax
from imptool.bigstep import FuelExhausted, Terminated
from imptool.harness import GenConfig, case_seed, gen_com, gen_state, suite_compiler, suite_small_big
from imptool.machine import Jmp, JmpGe, JmpLess, Load, LoadI, MachineConfig, StopReason, Store, ccomp
from imptool.parser import parse_com
from imptool.smallstep import ProgConfig, StepTrace, TraceStatus
from imptool.syntax import ACmp, Assign, CmpOp, If, NumLit, Plus, Seq, Skip, State, Var, While, seq_spine

LARGE = 10**6
# How many steps of a reference run `equivalent_fuel` keeps before giving up.
ORACLE_STEPS = 2_000
GEN = GenConfig(seed=7)


def equivalent_fuel(step, cfg, fuel):
    """A fuel of at most ORACLE_STEPS after which the reference run from
    `cfg` is where it is after `fuel` steps: `fuel` itself when it is small
    or the run stops within ORACLE_STEPS, and None when the run neither
    stops nor repeats that soon.  `step` gives the next configuration, or
    None where the run stops."""
    if fuel <= ORACLE_STEPS:
        return fuel
    seen = {}
    for n in range(ORACLE_STEPS + 1):
        if cfg in seen:
            first = seen[cfg]
            return first + (fuel - first) % (n - first)
        seen[cfg] = n
        cfg = step(cfg)
        if cfg is None:
            return fuel
    return None


def machine_step(code):
    def step(cfg):
        last, steps, _ = reference_run(code, cfg, 1)
        return last if steps else None

    return step


def reference_machine(prog, cfg, fuel):
    """`reference_run`, at an equivalent fuel where `fuel` is large."""
    reduced = equivalent_fuel(machine_step(prog), cfg, fuel)
    last, steps, reason = reference_run(prog, cfg, reduced)
    return last, steps + fuel - reduced, reason


def machine_views(code, start, fuel):
    return (
        machine.execute(code, start, fuel),
        machine.exec_n(code, start, fuel),
        machine.steps_to_halt(code, start, fuel),
    )


def mismatch(program, initial, fuel):
    """Where big_step, star_run or the machine (execute, exec_n and
    steps_to_halt on the compiled code) differ from the reference at
    `fuel`, or None.  A large fuel whose reference needs more than
    ORACLE_STEPS steps is not checked."""
    reduced = equivalent_fuel(reference_small_step, ProgConfig(program, initial), fuel)
    if reduced is not None:
        if reduced == fuel:
            expected = reference_big_step(program, initial, fuel)
        else:  # the small-step run repeats, so the program never ends
            expected = FuelExhausted()
        got = bigstep.big_step(program, initial, fuel)
        if got != expected:
            return f"big_step at {fuel}: {got!r} != {expected!r}"
        ref = reference_star_run(ProgConfig(program, initial), reduced)
        expected = StepTrace(ref.last, ref.steps_taken + fuel - reduced, ref.status)
        got = smallstep.star_run(ProgConfig(program, initial), fuel)
        if got != expected:
            return f"star_run at {fuel}: {got!r} != {expected!r}"
    code = ccomp(program)
    start = MachineConfig(0, initial, ())
    if equivalent_fuel(machine_step(code), start, fuel) is not None:
        got = machine_views(code, start, fuel)
        with mock.patch.object(machine, "_run", reference_machine):
            expected = machine_views(code, start, fuel)
        if got != expected:
            return f"machine at {fuel}: {got!r} != {expected!r}"
    return None


# star_run compares configurations only where the focus is a loop, and there
# the stack is fixed by the loop's place in the program.  So a check blind to
# the stack errs only where one loop node is shared by two places, and one
# blind to which loop it is only where two loops that end the two branches of
# an `if` are entered in the same store.  On each program the blind check
# finds a repeat that is not there.
SHARED_LOOP = While(ACmp(CmpOp.LT, Var("x"), NumLit(1)), Assign("x", Plus(Var("x"), NumLit(1))))
BLIND_SPOTS = {
    "stack-blind": Seq(SHARED_LOOP, Seq(Assign("x", NumLit(0)), SHARED_LOOP)),
    "focus-blind": parse_com(
        "while (i < 2) {"
        " if (y < 1) { y := 1; while (false) { skip }; while (x < 1) { x := x + 1 } }"
        " else { y := 1; x := 0; while (x < 1) { x := 1; i := 2 } } }"
    ),
}


def fuels(rng):
    return (0, 1, 2, rng.randint(3, 300), LARGE + rng.randint(0, 50))


def first_mismatch(cases):
    """The first case on which some fuel gives a mismatch, or None: each
    program of BLIND_SPOTS from the empty state, then `cases` generated
    cases (program and state from `gen_com` and `gen_state`)."""
    for name, program in BLIND_SPOTS.items():
        for fuel in (*range(60), LARGE):
            problem = mismatch(program, State(), fuel)
            if problem is not None:
                return name, problem
    for k in range(cases):
        rng = random.Random(case_seed(GEN.seed, k))
        program, initial = gen_com(GEN, rng), gen_state(GEN, rng)
        for fuel in fuels(rng):
            problem = mismatch(program, initial, fuel)
            if problem is not None:
                return k, problem
    return None


generated = st.randoms(use_true_random=False).map(lambda rng: (gen_com(GEN, rng), gen_state(GEN, rng)))


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(generated | st.tuples(coms(), states()), st.randoms(use_true_random=False))
    def test_every_fuel(self, case, rng):
        program, initial = case
        for fuel in fuels(rng):
            assert mismatch(program, initial, fuel) is None

    def test_generated_cases(self):
        assert first_mismatch(200) is None


# The cycle check of star_run, on the stepper's focus, stack and store where
# the focus is a loop, that of big_step, on its store and work list, and that
# of the machine, with the skip it makes on a repeat.
STAR_RUN_CHECK = "focus is saved_focus and stack == saved_stack and store == saved_store"
BIG_STEP_CHECK = "store == saved_store and todo == saved_todo"
MACHINE_CHECK = "pc == saved_pc and stack == saved_stack and store == saved_store"
MACHINE_SKIP = "steps += (fuel - steps) // period * period"
# The machine's mutants: in its run loop, two checks blind to the stack, and
# a loop that halts at the first repeat; in its unit compiler, a path's count
# off by one where it jumps on to a basic block of its unit, the fuel check
# reading the path without the stretch since its last block, and the repeat
# check inside a loop without the check of the pc and the stack made where
# the compiled run starts.
MACHINE_MUTANTS = {
    "stack-blind": (machine._run, MACHINE_CHECK, "pc == saved_pc and store == saved_store"),
    "store-only": (machine._run, MACHINE_CHECK, "store == saved_store"),
    "halting": (machine._run, MACHINE_SKIP, "reason = StopReason.OUT_OF_PROGRAM; break"),
    "edge-count": (machine._unit, '[f"{pad}steps += {count}", f"{pad}_to', '[f"{pad}steps += {count + 1}", f"{pad}_to'),
    "short-guard": (machine._unit, "if steps + {count} > fuel:", "if steps > fuel:"),
    "entry-blind": (machine._unit, "if same and _store == saved:", "if _store == saved:"),
}


def machine_mutant(mp, name):
    """Patch the machine with its mutant `name`."""
    fn, old, new = MACHINE_MUTANTS[name]
    mp.setattr(machine, fn.__name__, mutant(fn, old, new))


class TestMutantsAreCaught:
    """One-line mutants of the cycle checks.  A check that ignores part of
    the configuration fires where nothing repeats, and a loop that stops at
    a repeat ends a run that never ends; each must be caught."""

    def test_big_step_comparing_only_the_state(self, monkeypatch):
        broken = mutant(bigstep.big_step, BIG_STEP_CHECK, "store == saved_store")
        monkeypatch.setattr(bigstep, "big_step", broken)
        assert first_mismatch(200) is not None

    def test_star_run_comparing_only_the_state(self, monkeypatch):
        broken = mutant(smallstep.star_run, STAR_RUN_CHECK, "store == saved_store")
        monkeypatch.setattr(smallstep, "star_run", broken)
        assert first_mismatch(200) is not None

    @pytest.mark.parametrize(
        "check",
        ["focus is saved_focus and store == saved_store", "stack == saved_stack and store == saved_store"],
        ids=["stack-blind", "focus-blind"],
    )
    def test_star_run_check_blind_to_part_of_the_configuration(self, monkeypatch, check):
        monkeypatch.setattr(smallstep, "star_run", mutant(smallstep.star_run, STAR_RUN_CHECK, check))
        assert first_mismatch(200) is not None

    @pytest.mark.parametrize("name", ["stack-blind", "store-only"])
    def test_machine_check_blind_to_the_stack(self, monkeypatch, name):
        machine_mutant(monkeypatch, name)
        assert growing_stack_mismatch() is not None

    def test_big_step_terminating_on_a_cycle(self, monkeypatch):
        broken = mutant(
            bigstep.big_step,
            f"if {BIG_STEP_CHECK}:",
            f"if {BIG_STEP_CHECK}:\n                    return Terminated(state, count)",
        )
        monkeypatch.setattr(harness, "big_step", broken)
        result = suite_small_big(1000, GenConfig())
        assert result.failures
        assert all("small-step terminated: False; big-step terminated: True" in f.observed for f in result.failures)

    def test_machine_halting_on_a_cycle(self, monkeypatch):
        machine_mutant(monkeypatch, "halting")
        result = suite_compiler(1000, GenConfig())
        assert result.failures
        assert all("machine halts where big-step diverges" in f.observed for f in result.failures)


# A loop whose backward jump is a JmpLess, one whose is a JmpGe, and one
# whose stack grows by one on each iteration, so that it never repeats.
BACKWARD_JMPLESS = [Load("x"), Store("y"), LoadI(0), LoadI(1), JmpLess(-5)]
BACKWARD_JMPGE = [LoadI(2), Store("x"), LoadI(1), LoadI(0), JmpGe(-5)]
GROWING_STACK = [LoadI(1), Jmp(-2)]


def growing_stack_mismatch():
    """The first fuel at which `execute` of GROWING_STACK differs from the
    reference, with what it returned, or None."""
    start = MachineConfig(0, State(), ())
    for fuel in (0, 1, 2, 3, 10, 1_001):
        got = machine.execute(GROWING_STACK, start, fuel)
        if (got.last, got.steps_taken, got.reason) != reference_run(GROWING_STACK, start, fuel):
            return fuel, got
    return None


class TestMachine:
    @pytest.mark.parametrize("code", [BACKWARD_JMPLESS, BACKWARD_JMPGE], ids=["jmpless", "jmpge"])
    @pytest.mark.parametrize("fuel", [*range(12), 10**12, 10**12 + 1, 10**12 + 3])
    def test_repeating_loop(self, code, fuel):
        start = MachineConfig(0, State.of(x=3), ())
        with mock.patch.object(machine, "_run", reference_machine):
            expected = machine_views(code, start, fuel)
        assert machine_views(code, start, fuel) == expected

    def test_growing_stack_runs_to_the_fuel_limit(self):
        assert growing_stack_mismatch() is None
        got = machine.execute(GROWING_STACK, MachineConfig(0, State(), ()), 1_001)
        assert (got.steps_taken, got.reason, len(got.last.stack)) == (1_001, StopReason.FUEL_EXHAUSTED, 501)


# The bench's `sum` loop at 8,000 iterations, and two twins that never halt:
# one with increments of 0, whose configuration recurs every iteration, and
# one that also leaves each `i + 0` on the stack instead of storing it, so
# that only its stack changes.  BRANCHING, a loop with an `if` whose `else`
# path is the longer and is taken in the last 10 iterations; and a loop that
# never ends, whose inner loop takes its store through the same three values
# on every pass while the outer loop leaves a 1 on the stack.  A never-ending
# run is cut at NEVER_ENDS steps.
SUM = ccomp(parse_com("i := 0; s := -7; while (i < 8000) { s := s + i + 3; i := i + 1 }"))
CYCLING_SUM = ccomp(parse_com("i := 0; s := -7; while (i < 8000) { s := s + i + 0; i := i + 0 }"))
GROWING_SUM = [*CYCLING_SUM[:-2], Jmp(0), CYCLING_SUM[-1]]
BRANCHING = ccomp(parse_com(
    "x := 0; while (x < 8000) { if (x < 7990) { x := x + 1 } else { y := y + 1; y := y + 2; y := y + 3; x := x + 1 } }"
))
NESTED = ccomp(parse_com("while (0 < 1) { y := 0; while (y < 3) { y := y + 1 } }"))
GROWING_NEST = [*NESTED[:-1], LoadI(1), Jmp(NESTED[-1].offset - 1)]
LONG_LOOPS = {
    "sum": SUM, "cycling": CYCLING_SUM, "growing": GROWING_SUM, "branching": BRANCHING, "growing-nest": GROWING_NEST
}
NEVER_ENDS = 20_000
# More than the steps of any one iteration of these loops: BRANCHING's `else`
# path takes 23.
ITERATION = 24


def reference_runs(code, first, last):
    """`reference_run` of `code` from pc 0 and the empty state at each fuel
    from first to last, one run and then a step at a time."""
    cfg, steps, reason = reference_run(code, MachineConfig(0, State(), ()), first)
    for fuel in range(first, last + 1):
        if steps == fuel - 1 and reason is StopReason.FUEL_EXHAUSTED:
            cfg, step, reason = reference_run(code, cfg, 1)
            steps += step
        yield fuel, (cfg, steps, reason)


def long_loop_mismatch():
    """The first of the long loops and fuel at which `_run`, at the default
    hotness, differs from `reference_run`, with both results, or None.  The
    fuels run from ITERATION + 1 steps before the end (the halt, or
    NEVER_ENDS) to one step after it, so that the fuel runs out at every
    step of an iteration."""
    start = MachineConfig(0, State(), ())
    for name, code in LONG_LOOPS.items():
        end = machine.steps_to_halt(code, start, 10**6) or NEVER_ENDS
        for fuel, expected in reference_runs(code, end - ITERATION - 1, end + 1):
            got = machine._run(code, start, fuel)
            if got != expected:
                return name, fuel, got, expected
    return None


class TestLongLoops:
    def test_every_fuel_near_the_end(self, monkeypatch):
        ran = counting_units(monkeypatch)
        assert long_loop_mismatch() is None
        del ran[:]
        machine.execute(SUM, MachineConfig(0, State(), ()), 10**6)
        # the loop turns hot after _HOT iterations, and from then on runs
        # compiled: every step of the later iterations moves inside a unit
        # at the loop's test
        head = SUM.index(Load("i"))
        compiled = sum(moved for start, moved in ran if start == head)
        assert compiled >= (8_000 - machine._HOT - 1) * (len(SUM) - head)

    @pytest.mark.parametrize("name", MACHINE_MUTANTS)
    def test_catches_the_machine_mutants(self, monkeypatch, name):
        machine_mutant(monkeypatch, name)
        assert long_loop_mismatch() is not None


# --- compiled loops of the source semantics -------------------------------------------


def every_loop_hot(mp):
    """Make big_step and star_run compile every loop at its first arrival."""
    for module in (bigstep, smallstep):
        mp.setattr(module, "_HOT", 1)


def _deep_loop(depth):
    """A loop whose body nests `depth` ifs, past what CPython compiles."""
    body = Assign("x", Plus(Var("x"), NumLit(1)))
    for _ in range(depth):
        body = If(ACmp(CmpOp.LT, Var("y"), NumLit(1)), body, Skip())
    return While(ACmp(CmpOp.LT, Var("x"), NumLit(5)), body)


# Loops of each shape the compiler meets, each with whether it compiles: an
# inner loop, whose outer one stays stepped; ifs in the body; assignments that
# leave 0, whose binding must go; literals far past a machine word, and past
# CPython's int-to-text limit; a body nested too deep for CPython; and a name
# that is not an identifier.
LOOP_SHAPES = {
    "nested": parse_com("i := 0; while (i < 3) { j := 0; while (j < 4) { j := j + 1; t := t + j }; i := i + 1 }"),
    "ifs": parse_com(
        "x := 9; while (0 < x) { if (x < 4) { e := e + 1 } else { if (x < 6) { skip } else { o := o + 2;"
        " o := o + -1 } }; x := x + -1 }"
    ),
    "zeros": parse_com("i := 0; while (i < 6) { y := y + 1; y := y + -1; i := i + 1 }"),
    "huge": While(ACmp(CmpOp.LT, Var("x"), NumLit(3)), Seq(Assign("y", Plus(Var("y"), NumLit(10**100))), Assign("x", Plus(Var("x"), NumLit(1))))),
    "too-long-literal": While(ACmp(CmpOp.LT, Var("x"), NumLit(3)), Assign("x", Plus(Var("x"), NumLit(10**5000)))),
    "too-deep": _deep_loop(150),
    "dotted": While(ACmp(CmpOp.LT, Var("x.y"), NumLit(3)), Assign("x.y", Plus(Var("x.y"), NumLit(1)))),
}


class TestCompiledLoops:
    """With every loop hot at its first arrival, big_step and star_run run
    each innermost loop compiled wherever a whole iteration fits: the
    answers must be those of the references, which step every rule."""

    @settings(max_examples=150, deadline=None)
    @given(
        generated | st.tuples(coms(), states()) | st.tuples(st.sampled_from(list(LOOP_SHAPES.values())), states()),
        st.randoms(use_true_random=False),
    )
    def test_every_loop_hot(self, case, rng):
        program, initial = case
        with pytest.MonkeyPatch.context() as mp:
            every_loop_hot(mp)
            for fuel in fuels(rng):
                assert mismatch(program, initial, fuel) is None

    @pytest.mark.parametrize("name", LOOP_SHAPES)
    def test_which_loops_compile(self, name):
        loops = [node for node in seq_spine(LOOP_SHAPES[name]) if type(node) is While]
        if name == "nested":
            loops.append(loops[0].body.second.first)
        compiled = [syntax._iterations(loop, bigstep._COSTS, False) is not None for loop in loops]
        assert compiled == {"nested": [False, True], "too-long-literal": [False], "too-deep": [False], "dotted": [False]}.get(name, [True])


# The bench's `sum` loop at 8,000 iterations; two twins that never end, one
# whose `s` grows and one whose `y` comes back to 0, so that its configuration
# recurs every iteration; a loop whose `else` path is the longer; and one loop
# entered from two places in the program in equal stores.  A never-ending run
# is cut at SOURCE_NEVER_ENDS rules or steps.
SOURCE_LOOPS = {
    "sum": "i := 0; s := -7; while (i < 8000) { s := s + i + 3; i := i + 1 }",
    "growing": "i := 0; s := -7; while (i < 8000) { s := s + i + 3; i := i + 0 }",
    "recurring": "i := 0; s := -7; while (i < 8000) { y := y + 1; y := y + -1 }",
    "branching": "x := 0; while (x < 8000) { if (x < 7990) { x := x + 1 } else { y := y + 1; y := y + 2; y := y + 3; x := x + 1 } }",
    "twice": "i := 0; while (i < 8000) { i := i + 1 }; i := 4000; while (i < 8000) { i := i + 1 }",
}
SOURCE_NEVER_ENDS = 50_000
# More than the rules or steps of any one iteration of these loops.
ITERATION = 12


def reference_star_runs(program, first, last):
    """`reference_star_run` of `program` from the empty state at each fuel
    from first to last, one run and then a step at a time."""
    trace = reference_star_run(ProgConfig(program, State()), first)
    cfg, steps = trace.last, trace.steps_taken
    for fuel in range(first, last + 1):
        if steps == fuel - 1 and (nxt := reference_small_step(cfg)) is not None:
            cfg, steps = nxt, fuel
        yield fuel, StepTrace(cfg, steps, TraceStatus.COMPLETED if cfg.is_final else TraceStatus.FUEL_EXHAUSTED)


def source_loop_mismatch():
    """The first of SOURCE_LOOPS and fuel at which big_step or star_run, at
    the default hotness, differs from its reference, with both results, or
    None.  The fuels run from ITERATION + 1 before the end (the halt, or
    SOURCE_NEVER_ENDS) to one after it, so that the fuel runs out at every
    point of an iteration.  A big-step run out of fuel must be `repeated`
    exactly where the configuration recurs."""
    for name, text in SOURCE_LOOPS.items():
        program = parse_com(text)
        done = bigstep.big_step(program, State(), 10**6)
        end = done.rules_applied if type(done) is Terminated else SOURCE_NEVER_ENDS
        # the reference spends one unit per rule, so at each fuel below the
        # count of its whole run it runs out, and at each other fuel it ends so
        ref = reference_big_step(program, State(), end + 1)
        for fuel in range(end - ITERATION - 1, end + 2):
            expected = ref if type(ref) is Terminated and ref.rules_applied <= fuel else FuelExhausted()
            got = bigstep.big_step(program, State(), fuel)
            if got != expected or type(got) is FuelExhausted and got.repeated != (name == "recurring"):
                return name, "big_step", fuel, got, expected
        done = smallstep.star_run(ProgConfig(program, State()), 10**6)
        end = done.steps_taken if done.status is TraceStatus.COMPLETED else SOURCE_NEVER_ENDS
        for fuel, expected in reference_star_runs(program, end - ITERATION - 1, end + 1):
            got = smallstep.star_run(ProgConfig(program, State()), fuel)
            if got != expected:
                return name, "star_run", fuel, got, expected
    return None


# The loop compiler's mutants: in the walker it shares with the triple
# search, one branch's count off by one and the fuel guard reading the
# `then` path's count instead of the largest path's; in the loop compiler
# itself, the repeat check inside the loop without the check of the rest of
# the configuration (big-step's work list, small-step's focus and stack)
# made where the compiled run starts.
LOOP_MUTANTS = {
    "then-count": (syntax._command_lines, 'f"{indent} n += {then}"', 'f"{indent} n += {then + 1}"'),
    "then-guard": (syntax._command_lines, "largest + max(then_largest, other_largest)", "largest + then_largest"),
    "entry-blind": (syntax._iterations, '"  if same and _store == saved:', '"  if _store == saved:'),
}


class TestSourceLongLoops:
    def test_every_fuel_near_the_end(self, monkeypatch):
        ran = counting_loops(monkeypatch)
        assert source_loop_mismatch() is None
        del ran[:]
        program = parse_com(SOURCE_LOOPS["sum"])
        rules = bigstep.big_step(program, State(), 10**6).rules_applied
        # all but the iterations before the loop turns hot run compiled
        assert sum(ran) >= rules - (bigstep._HOT + 1) * 4
        del ran[:]
        steps = smallstep.star_run(ProgConfig(program, State()), 10**6).steps_taken
        assert sum(ran) >= steps - (smallstep._HOT + 1) * 6

    @pytest.mark.parametrize("name", LOOP_MUTANTS)
    def test_catches_the_loop_compiler_mutants(self, monkeypatch, name):
        fn, old, new = LOOP_MUTANTS[name]
        broken = mutant(fn, old, new)
        for module in (syntax, bigstep, smallstep):
            if hasattr(module, fn.__name__):
                monkeypatch.setattr(module, fn.__name__, broken)
        assert source_loop_mismatch() is not None
