"""Shared test helpers: hypothesis strategies over the language ASTs, a
random instruction-list generator, the program generators by `randint` and
`choice`, the enumerated states, a reference triple check and reference
VCs, a condition printer of its own, a walk for the variables of an
assertion, the recursive `aval` and `acomp`, the textbook small step, the
plain run loops without a cycle check, counters of compiled units and
loops, a swapped-branch mutant of the small-step stepper, and a way to
build one-line mutants of library functions.

Command strategies only build right-nested Seq spines, matching what the
concrete syntax can express; round-trip tests rely on that.
"""

import inspect
import itertools
import sys

from hypothesis import strategies as st

from imptool import bigstep, machine, smallstep, syntax
from imptool.bigstep import FuelExhausted, Terminated, big_step
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
    Mode,
    SNAPSHOT_PREFIX,
    Unknown,
    Valid,
    _loop_annotations,
    eval_assertion,
    subst_assertion,
)
from imptool.machine import _POPS, Add, Jmp, JmpGe, JmpLess, Load, LoadI, MachineConfig, StopReason, Store
from imptool.parser import pretty_aexp
from imptool.smallstep import ProgConfig, StepTrace, TraceStatus
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
    seq_spine,
    vars_of,
)

names = st.sampled_from(("x", "y", "z", "w"))
small_ints = st.integers(min_value=-6, max_value=6)


def aexps(max_leaves: int = 12):
    return st.recursive(
        st.builds(NumLit, small_ints) | st.builds(Var, names),
        lambda sub: st.builds(Plus, sub, sub),
        max_leaves=max_leaves,
    )


def bexps(max_leaves: int = 12):
    """Conditions: the assertions built from true, false, !, && and <."""
    atoms = st.sampled_from((ATrue(), AFalse())) | st.builds(ACmp, st.just(CmpOp.LT), aexps(4), aexps(4))
    return st.recursive(
        atoms,
        lambda sub: st.builds(ANot, sub) | st.builds(AAnd, sub, sub),
        max_leaves=max_leaves,
    )


def assertions(max_leaves: int = 10):
    atoms = (
        st.just(ATrue())
        | st.just(AFalse())
        | st.builds(ACmp, st.sampled_from(tuple(CmpOp)), aexps(4), aexps(4))
    )
    return st.recursive(
        atoms,
        lambda sub: st.builds(ANot, sub)
        | st.builds(AAnd, sub, sub)
        | st.builds(AOr, sub, sub)
        | st.builds(AImp, sub, sub),
        max_leaves=max_leaves,
    )


def coms(max_leaves: int = 10, loops: bool = True, annotated: bool = False):
    """Random commands; loops=False keeps every program terminating.

    annotated=True gives some loops an invariant, and some of those a measure
    too (the concrete syntax has no measure without an invariant).
    """
    base = st.just(Skip()) | st.builds(Assign, names, aexps(6))
    annotations = st.just((None, None))
    if annotated:
        annotations = annotations | st.tuples(assertions(4), st.none() | aexps(4))

    def compound(sub):
        block = st.lists(sub, min_size=1, max_size=3).map(seq_chain)
        out = st.builds(If, bexps(6), block, block)
        if loops:
            out = out | st.builds(
                lambda cond, body, ann: While(cond, body, *ann), bexps(6), block, annotations
            )
        return out

    return st.recursive(base, compound, max_leaves=max_leaves)


def states():
    return st.dictionaries(names, small_ints, max_size=4).map(
        lambda d: State(d.items())
    )


def enumerate_states(variables, bound):
    """Every state giving each listed variable a value in [-bound, bound] and
    every other identifier 0: sorted names, values ascending."""
    ordered = sorted(set(variables))
    for combo in itertools.product(range(-bound, bound + 1), repeat=len(ordered)):
        yield State(zip(ordered, combo))


def reference_check_triple(pre, command, post, variables, bound, fuel, mode):
    """`hoare.check_triple` by `big_step` and `eval_assertion` from every
    enumerated state: the definition the compiled runs must match.  In total
    mode a run that repeats a configuration is a counterexample; one that
    otherwise spends its fuel is counted, as in partial mode."""
    exhausted = 0
    for s in enumerate_states(variables, bound):
        if not eval_assertion(pre, s):
            continue
        outcome = big_step(command, s, fuel)
        if type(outcome) is Terminated:
            if not eval_assertion(post, outcome.final):
                return CounterexampleFound(s)
        elif mode is Mode.TOTAL and outcome.repeated:
            return CounterexampleFound(s)
        else:
            exhausted += 1
    if exhausted:
        return Unknown(f"{exhausted} initial state(s) ran out of fuel")
    return Valid()


def reference_vcs(c, post, mode):
    """The computed precondition and every VC as (label, formula), built by
    the weakest-precondition walk over the command tree: the definition the
    VCs of `hoare.vcgen` and `hoare.wp_loop_free` must match.

    Each loop in total mode gets a fresh snapshot variable `__z0`, `__z1`, ...
    that freezes the measure across one body iteration: its decreases VC
    assigns the measure to it in front of the body, so it stays free only in
    the exit VCs of loops nested in that body.
    """
    conditions = []
    ordinal = 0

    def wp(c, post):
        t = type(c)
        if t is Skip:
            return post
        if t is Assign:
            return subst_assertion(post, c.target, c.rhs)
        if t is Seq:
            return wp(c.first, wp(c.second, post))
        if t is If:
            return AAnd(AImp(c.cond, wp(c.then_branch, post)), AImp(ANot(c.cond), wp(c.else_branch, post)))
        return loop(c, post)

    def loop(node, post):
        nonlocal ordinal
        label, inv, measure = _loop_annotations(node, ordinal, mode)
        snapshot = f"{SNAPSHOT_PREFIX}{ordinal}"
        ordinal += 1
        cond = node.cond
        if mode is Mode.TOTAL:
            decreased = AAnd(inv, ACmp(CmpOp.LT, measure, Var(snapshot)))
            body_pre = wp(Seq(Assign(snapshot, measure), node.body), decreased)
            conditions.append(
                (f"{label}: invariant preserved and measure decreases", AImp(AAnd(inv, cond), body_pre))
            )
            conditions.append(
                (f"{label}: measure non-negative", AImp(inv, ACmp(CmpOp.LE, NumLit(0), measure)))
            )
        else:
            body_pre = wp(node.body, inv)
            conditions.append((f"{label}: invariant preserved", AImp(AAnd(inv, cond), body_pre)))
        conditions.append((f"{label}: exit establishes postcondition", AImp(AAnd(inv, ANot(cond)), post)))
        return inv

    precondition = wp(c, post)
    return precondition, tuple(conditions)


def reference_assertion_vars(a):
    """Identifiers occurring in an assertion, by a walk of its own."""
    seen = set()
    stack = [a]
    while stack:
        node = stack.pop()
        t = type(node)
        if t is ACmp:
            seen |= vars_of(node.left)
            seen |= vars_of(node.right)
        elif t is ANot:
            stack.append(node.inner)
        elif t is AAnd or t is AOr:
            stack.append(node.left)
            stack.append(node.right)
        elif t is AImp:
            stack.append(node.premise)
            stack.append(node.conclusion)
    return seen


def swap_branches(stepper):
    """`smallstep._focuses` with the If rule taking the wrong branch: a
    mutant that the differential suites must catch.  Patch it over
    `smallstep._focuses`."""
    return mutant(
        stepper,
        "c = c.then_branch if bval(c.cond, state) else c.else_branch",
        "c = c.else_branch if bval(c.cond, state) else c.then_branch",
    )


def gen_instrs(rng, length, variables=("x", "y", "z", "w")):
    """A random instruction list (not necessarily a sensible program)."""
    makers = (
        lambda: LoadI(rng.randint(-9, 9)),
        lambda: Load(rng.choice(variables)),
        Add,
        lambda: Store(rng.choice(variables)),
        lambda: Jmp(rng.randint(-8, 8)),
        lambda: JmpLess(rng.randint(-8, 8)),
        lambda: JmpGe(rng.randint(-8, 8)),
    )
    return [makers[rng.randrange(7)]() for _ in range(length)]


# --- the program generators by randint and choice ---------------------------------
#
# `harness`'s generators written with `randint` and `choice`: the definition
# the generators, which call `getrandbits` themselves, must match value for
# value and draw for draw.


def reference_gen_aexp(rng, depth, variables, literal_range):
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.5:
            return NumLit(rng.randint(*literal_range))
        return Var(rng.choice(variables))
    return Plus(
        reference_gen_aexp(rng, depth - 1, variables, literal_range),
        reference_gen_aexp(rng, depth - 1, variables, literal_range),
    )


def reference_gen_bexp(rng, depth, variables, literal_range):
    roll = rng.random()
    if depth <= 0 or roll < 0.5:
        if rng.random() < 0.15:
            return ATrue() if rng.random() < 0.5 else AFalse()
        return ACmp(
            CmpOp.LT,
            reference_gen_aexp(rng, min(depth, 1), variables, literal_range),
            reference_gen_aexp(rng, min(depth, 1), variables, literal_range),
        )
    if roll < 0.65:
        return ANot(reference_gen_bexp(rng, depth - 1, variables, literal_range))
    return AAnd(
        reference_gen_bexp(rng, depth - 1, variables, literal_range),
        reference_gen_bexp(rng, depth - 1, variables, literal_range),
    )


def reference_gen_com(cfg, rng):
    literal_range = cfg.literal_range

    def block(depth, variables, loop_probability):
        count = rng.randint(1, 3) if depth > 0 else 1
        return seq_chain([stmt(depth, variables, loop_probability) for _ in range(count)])

    def assign(depth, variables):
        return Assign(rng.choice(variables), reference_gen_aexp(rng, min(depth, 2), variables, literal_range))

    def stmt(depth, variables, loop_probability):
        if depth <= 0:
            return assign(0, variables) if rng.random() < 0.8 else Skip()
        roll = rng.random()
        if roll < loop_probability:
            return loop(depth, variables, loop_probability / 2)
        if roll < loop_probability + 0.2:
            return If(
                reference_gen_bexp(rng, 2, variables, literal_range),
                block(depth - 1, variables, loop_probability),
                block(depth - 1, variables, loop_probability),
            )
        if roll < loop_probability + 0.25:
            return Skip()
        return assign(depth, variables)

    def loop(depth, variables, body_probability):
        if rng.random() < 0.8:
            counter = rng.choice(variables)
            others = tuple(v for v in variables if v != counter) or variables
            limit = rng.randint(*literal_range)
            extra = block(depth - 1, others, body_probability)
            step = Assign(counter, Plus(Var(counter), NumLit(rng.randint(1, 2))))
            return While(ACmp(CmpOp.LT, Var(counter), NumLit(limit)), seq_chain(seq_spine(extra) + [step]))
        return While(reference_gen_bexp(rng, 2, variables, literal_range), block(depth - 1, variables, body_probability))

    program = block(cfg.max_depth, cfg.variables(), cfg.loop_probability)
    del block
    return program


def reference_gen_state(cfg, rng):
    pairs = []
    for name in cfg.variables():
        if rng.random() < 0.7:
            pairs.append((name, rng.randint(*cfg.literal_range)))
    return State(pairs)


def reference_gen_assertion(rng, depth, variables, literal_range):
    roll = rng.random()
    if depth <= 0 or roll < 0.45:
        inner = rng.random()
        if inner < 0.1:
            return ATrue() if rng.random() < 0.5 else AFalse()
        op = rng.choice((CmpOp.LT, CmpOp.LE, CmpOp.EQ))
        return ACmp(
            op,
            reference_gen_aexp(rng, 1, variables, literal_range),
            reference_gen_aexp(rng, 1, variables, literal_range),
        )
    if roll < 0.55:
        return ANot(reference_gen_assertion(rng, depth - 1, variables, literal_range))
    args = (
        reference_gen_assertion(rng, depth - 1, variables, literal_range),
        reference_gen_assertion(rng, depth - 1, variables, literal_range),
    )
    pick = rng.random()
    if pick < 0.5:
        return AAnd(*args)
    if pick < 0.8:
        return AOr(*args)
    return AImp(*args)


# --- a condition printer of its own ---------------------------------------------


def reference_pretty_bexp(b):
    """A condition printed by the precedence of `!`, `&&` and `<` alone, the
    definition `parser.pretty_assertion` must match on conditions."""
    if type(b) is AAnd:
        return f"{reference_pretty_bexp(b.left)} && {_reference_batom(b.right)}"
    return _reference_batom(b)


def _reference_batom(b):
    t = type(b)
    if t is ATrue or t is AFalse:
        return "true" if t is ATrue else "false"
    if t is ANot:
        if type(b.inner) in (ATrue, AFalse, ANot):
            return f"!{_reference_batom(b.inner)}"
        return f"!({reference_pretty_bexp(b.inner)})"
    if t is ACmp and b.op is CmpOp.LT:
        return f"{pretty_aexp(b.left)} < {pretty_aexp(b.right)}"
    if t is AAnd:
        return f"({reference_pretty_bexp(b)})"
    raise TypeError(f"not a condition: {b!r}")


# --- arithmetic by recursion ------------------------------------------------------
# The textbook definitions, recursive on both operands of `+`: what `aval` and
# `acomp`, which walk a sum down its left spine, must match.


def reference_aval(a, s):
    """`syntax.aval` by recursion."""
    t = type(a)
    if t is NumLit:
        return a.value
    if t is Var:
        return s.read(a.name)
    if t is Plus:
        return reference_aval(a.left, s) + reference_aval(a.right, s)
    raise TypeError(f"not an arithmetic expression: {a!r}")


def reference_acomp(a):
    """`machine.acomp` by recursion."""
    t = type(a)
    if t is NumLit:
        return [LoadI(a.value)]
    if t is Var:
        return [Load(a.name)]
    if t is Plus:
        return reference_acomp(a.left) + reference_acomp(a.right) + [Add()]
    raise TypeError(f"not an arithmetic expression: {a!r}")


# --- the run loops without a cycle check ------------------------------------------
# Each spends its fuel step by step, however often a configuration repeats:
# the definition the library's run loops, which skip the fuel once they find
# a repeat, must match.


def reference_big_step(c, s, fuel):
    """`bigstep.big_step` without its cycle check."""
    todo = [c]
    count = 0
    while todo:
        if count >= fuel:
            return FuelExhausted()
        node = todo.pop()
        count += 1
        t = type(node)
        if t is Assign:
            s = s.update(node.target, aval(node.rhs, s))
        elif t is Seq:
            todo.append(node.second)
            todo.append(node.first)
        elif t is If:
            todo.append(node.then_branch if bval(node.cond, s) else node.else_branch)
        elif t is While:
            if bval(node.cond, s):
                todo.append(node)
                todo.append(node.body)
        elif t is not Skip:
            raise TypeError(f"not a command: {node!r}")
    return Terminated(s, count)


def reference_small_step(cfg):
    """The textbook small step: walk the left spine of nested sequences to
    the redex, step it, and rebuild the spine around the result; None when
    the configuration is final.  The definition `smallstep.small_step` must
    match."""
    c, s, ctx = cfg.command, cfg.state, []
    while type(c) is Seq and type(c.first) is not Skip:
        ctx.append(c.second)
        c = c.first
    t = type(c)
    if t is Skip:
        return None
    if t is Seq:  # first component is Skip
        inner = c.second
    elif t is Assign:
        s = s.update(c.target, aval(c.rhs, s))
        inner = Skip()
    elif t is If:
        inner = c.then_branch if bval(c.cond, s) else c.else_branch
    elif t is While:
        inner = If(c.cond, Seq(c.body, c), Skip())
    else:
        raise TypeError(f"not a command: {c!r}")
    for second in reversed(ctx):
        inner = Seq(inner, second)
    return ProgConfig(inner, s)


def reference_star_run(cfg, max_steps):
    """`smallstep.star_run` without its cycle check, by `reference_small_step`."""
    steps = 0
    while steps < max_steps and (nxt := reference_small_step(cfg)) is not None:
        cfg = nxt
        steps += 1
    status = TraceStatus.COMPLETED if cfg.is_final else TraceStatus.FUEL_EXHAUSTED
    return StepTrace(cfg, steps, status)


def reference_run(prog, cfg, fuel):
    """`machine._run` without its cycle check or its compiled units: every
    instruction is stepped on its own.  A unit of `_run` takes a path through
    its region only where the stack holds what the region pops and all the
    path's steps fit in the fuel, so a unit never changes a step count, and
    the two agree step for step."""
    pc, end, steps = cfg.pc, len(prog), 0
    stack = list(reversed(cfg.stack))
    store = dict(cfg.state.items())
    reason = StopReason.OUT_OF_PROGRAM
    while 0 <= pc < end:
        instr = prog[pc]
        t = type(instr)
        if len(stack) < _POPS.get(t, 0):
            reason = StopReason.STACK_UNDERFLOW
            break
        if steps >= fuel:
            reason = StopReason.FUEL_EXHAUSTED
            break
        steps += 1
        pc += 1
        if t is Load:
            stack.append(store.get(instr.name, 0))
        elif t is LoadI:
            stack.append(instr.value)
        elif t is Add:
            top = stack.pop()
            stack[-1] += top
        elif t is Store:
            store[instr.name] = stack.pop()
        elif t is JmpGe:
            top = stack.pop()
            if stack.pop() >= top:
                pc += instr.offset
        elif t is JmpLess:
            top = stack.pop()
            if stack.pop() < top:
                pc += instr.offset
        elif t is Jmp:
            pc += instr.offset
        else:
            raise TypeError(f"not an instruction: {instr!r}")
    return MachineConfig(pc, State(store), tuple(reversed(stack))), steps, reason


def counting_units(mp):
    """Patch `machine._unit` so that every run of a unit it compiles records
    the unit's start and the steps the run moved; returns the records."""
    ran, compile_unit = [], machine._unit

    def counted(prog, start):
        unit = compile_unit(prog, start)
        if unit is None:
            return None
        run, pops, after = unit

        def counted_run(stack, store, steps, *brent):
            out = run(stack, store, steps, *brent)
            ran.append((start, out[1] - steps))
            return out

        return counted_run, pops, after

    mp.setattr(machine, "_unit", counted)
    return ran


def counting_loops(mp):
    """Patch the loop compiler that `bigstep` and `smallstep` call so that
    every run of a loop it compiles records how far it moved the count;
    returns the records."""
    ran, compile_loop = [], syntax._iterations

    def counted(loop, costs, tested_first):
        run = compile_loop(loop, costs, tested_first)
        if run is None:
            return None

        def counted_run(store, n, *brent):
            out = run(store, n, *brent)
            ran.append(out[0] - n)
            return out

        return counted_run

    for module in (bigstep, smallstep):
        mp.setattr(module, "_iterations", counted)
    return ran


def mutant(fn, old, new):
    """`fn` rebuilt from its source with the one line holding `old` changed
    to hold `new`, over a copy of its module's globals.  Patch it over the
    original to check that a test catches the change."""
    source = inspect.getsource(fn)
    assert source.count(old) == 1, f"{old!r} is not one line of {fn.__name__}"
    namespace = dict(vars(sys.modules[fn.__module__]))
    exec(compile(source.replace(old, new), inspect.getsourcefile(fn), "exec"), namespace)
    return namespace[fn.__name__]
