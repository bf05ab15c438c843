"""Stack machine: instruction set, executable semantics, and the compiler.

The machine is a program counter, a store, and an integer stack (top first).
It halts cleanly as soon as the pc leaves [0, len(program)); a negative pc
halts exactly like running off the end.  Popping an empty stack is an error,
reported on the step it occurs.

One register-local run loop holds the instruction semantics: it keeps the
pc, the stack and the store in plain locals and builds a `MachineConfig`
only when it stops.  `exec1`, the single-step semantics, is that loop's
one-step case; `execute`, `exec_n` and `steps_to_halt` read their answers
off the same loop.

Hot code runs compiled.  The `_HOT`-th arrival at a pc, counted after each
backward jump and each unit as trace compilers count loop headers (Gal et
al., PLDI 2009), compiles the code from there up to the next backward jump
into one function, a unit, which runs a loop's whole iterations in place.
A path through a unit is taken only where its steps fit in the fuel and the
stack holds what it pops, so no step count changes; elsewhere the loop steps.

A configuration (pc, stack and store) that comes back proves the run never
ends.  The loop finds one with Brent's cycle-finding algorithm (Brent, BIT 20,
1980) and skips the whole periods left in the fuel, so every answer is the
one the full run would give.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

from .syntax import (
    AAnd,
    ACmp,
    AExp,
    AFalse,
    ANot,
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
    State,
    Var,
    While,
    _HOT,
    _generated,
    slot_inits,
)


# --- instructions -------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class LoadI:
    value: int


@dataclass(frozen=True, slots=True)
class Load:
    name: str


@dataclass(frozen=True, slots=True)
class Add:
    pass


@dataclass(frozen=True, slots=True)
class Store:
    name: str


@dataclass(frozen=True, slots=True)
class Jmp:
    offset: int


@dataclass(frozen=True, slots=True)
class JmpLess:
    offset: int


@dataclass(frozen=True, slots=True)
class JmpGe:
    offset: int


Instr = Union[LoadI, Load, Add, Store, Jmp, JmpLess, JmpGe]
Program = Sequence[Instr]

# How many operands each instruction pops; the others pop none.
_POPS = {Add: 2, Store: 1, JmpLess: 2, JmpGe: 2}
# The jumps, each with the comparison of its second operand to its top on
# which it is taken.
_JUMPS = {Jmp: None, JmpLess: "<", JmpGe: ">="}
_LT = CmpOp.LT  # a global reads faster than an Enum member through its class


@dataclass(frozen=True, slots=True)
class MachineConfig:
    pc: int
    state: State
    stack: tuple[int, ...] = ()  # top of stack first


class StopReason(Enum):
    OUT_OF_PROGRAM = "out-of-program"
    STACK_UNDERFLOW = "stack-underflow"
    FUEL_EXHAUSTED = "fuel-exhausted"


@dataclass(frozen=True, slots=True)
class Halted:
    final: MachineConfig
    steps_taken: int


@dataclass(frozen=True, slots=True)
class StuckOrExhausted:
    last: MachineConfig
    steps_taken: int
    reason: StopReason


MachineOutcome = Union[Halted, StuckOrExhausted]
slot_inits(LoadI, Load, Store, Jmp, JmpLess, JmpGe, MachineConfig)


class StackUnderflowError(Exception):
    def __init__(self, config: MachineConfig) -> None:
        super().__init__(f"instruction at pc={config.pc} pops an empty stack")
        self.config = config


# --- execution -----------------------------------------------------------------


def _unit(prog: Program, start: int) -> Optional[tuple[Callable[..., tuple], int, int]]:
    """The code of `prog` from `start` up to its first backward jump, or to
    a non-instruction or an ill-typed literal, offset or name, compiled:
    `_unit(_stack, _store, steps, fuel, lam, power, saved, same)` returns
    `(pc, steps, lam, power, saved, at, why)`.  Each later basic block runs
    under `if _to == its pc`.  A path writes the store, and the stack where
    it leaves operands, only where all its steps fit in the fuel; else the
    unit returns `start` with `why` False.  A backward jump to `start` where
    no path pops the entry stack runs whole iterations, with Brent's check
    as in `_iterations`.  Also returned: how deep paths pop the entry stack,
    and the pc below which a returned pc is sampled."""
    stop, deepest, loops = start, 0, False
    for instr in prog[start:]:
        t = type(instr)
        if t is LoadI or t in _JUMPS:
            value = instr.value if t is LoadI else instr.offset
        else:  # None for a non-instruction, or a name that is not a str
            value = 0 if t is Add or t in (Load, Store) and type(instr.name) is str else None
        if type(value) is not int:
            break
        stop += 1
        if t in _JUMPS and value < 0:
            break
    region = prog[start:stop]
    local = {name: f"v{k}" for k, name in enumerate(dict.fromkeys(i.name for i in region if type(i) in (Load, Store)))}
    writes = "; ".join(f"_store[{name!r}] = {local[name]}" for name in dict.fromkeys(i.name for i in region if type(i) is Store))
    leaders = {p + 1 + prog[p].offset for p in range(start, stop) if type(prog[p]) in _JUMPS} - {start}

    def source() -> list[str]:
        nonlocal deepest, loops
        lines = ["def _unit(_stack, _store, steps, fuel, lam, power, saved, same, at=None):"]
        lines += [f" {v} = _store.get({name!r}, 0)" for name, v in local.items()] + [" while True:", "  _begin = steps"]
        pending, below, count, pad = [], 0, 0, "  "  # pending: None after a jump, up to the next block

        def operand() -> str:
            nonlocal below, deepest
            if pending:
                return pending.pop()
            below += 1
            deepest = max(deepest, below)
            return f"_stack[-{below}]"

        def leave(origin: int, target: int) -> None:  # the path's move from `origin` to `target`
            nonlocal loops
            if origin < target < stop and not (pending or below):
                lines.extend([f"{pad}steps += {count}", f"{pad}_to = {target}"])
                return
            lines.append(f"{pad}if steps + {count} > fuel: return {start}, _begin, lam, power, saved, at, False")
            lines.append(pad + (writes or "pass"))
            if target == start and not (pending or deepest):
                loops = True
                lines.extend([
                    f"{pad}steps += {count}", f"{pad}if same and _store == saved: return {start}, steps, lam, power, saved, at, True",
                    f"{pad}lam += 1", f"{pad}if lam == power: saved = _store.copy(); at = steps; power += power; lam = 0; same = True",
                    f"{pad}continue",
                ])
                return
            if below:
                lines.append(f"{pad}_stack[-{below}:] = [{', '.join(pending)}]")
            elif pending:
                lines.append(f"{pad}_stack += [{', '.join(pending)}]")
            lines.append(f"{pad}return {target}, steps + {count}, lam, power, saved, at, None")

        for pc in range(start, stop):
            if pc in leaders:
                if pending is not None:
                    leave(pc - 1, pc)
                pending, below, count, pad = [], 0, 0, "   "
                lines.append(f"  if _to == {pc}:")
            if pending is None:
                continue
            instr = prog[pc]
            t = type(instr)
            count += 1
            if t is LoadI:
                pending.append(repr(instr.value))
            elif t is Load:
                pending.append(local[instr.name])
            elif t is Add:
                top = operand()
                lines.append(f"{pad}t{pc} = {operand()} + {top}")
                pending.append(f"t{pc}")
            elif t is Store:
                value, name = operand(), local[instr.name]
                if name in pending:  # the stack keeps the value it loaded
                    lines.append(f"{pad}t{pc} = {name}")
                    pending = [f"t{pc}" if entry == name else entry for entry in pending]
                lines.append(f"{pad}{name} = {value}")
            elif t is Jmp:
                leave(pc, pc + 1 + instr.offset)
                pending = None
            else:
                top = operand()
                lines.append(f"{pad}if {operand()} {_JUMPS[t]} {top}:")
                pad += " "
                leave(pc, pc + 1 + instr.offset)
                lines.append(f"{pad[:-1]}else:")
        if pending is not None:
            leave(stop - 1, stop)
        return lines

    env = _generated(source)
    return None if env is None or stop == start else (env.pop("_unit"), deepest, start if loops else stop)


def _run(prog: Program, cfg: MachineConfig, fuel: int) -> tuple[MachineConfig, int, StopReason]:
    """Run from cfg for at most fuel steps (none when fuel is negative): the
    last configuration, the steps taken, and why the run stopped.  A
    configuration that cannot step is classified as such even when the fuel
    is spent, so halting exactly at the limit is a halt.  A non-instruction
    raises TypeError when the loop would step it.  Underflow is checked only
    before a popping instruction steps, and at the fuel limit.

    The pc, the stack (top at the end of a list) and the store live in
    locals; zero bindings are dropped when the final `State` is built.

    The pc is looked up among the units after each taken backward jump and
    after each unit, and the tables of arrivals and units are made at the
    first backward jump: a run that takes none pays nothing for them, and a
    forward jump costs the step loop nothing more.

    Every run that never ends takes a backward jump infinitely often, so the
    configuration after each taken backward jump, by an instruction or a
    unit, is sampled for Brent's check.  A repeat proves the configuration
    recurs every `period` steps from then on, so whole periods of the
    remaining fuel are skipped: the result is that of the full run."""
    pc, end, steps = cfg.pc, len(prog), 0
    stack = list(reversed(cfg.stack))
    store = dict(cfg.state._bindings)
    push, pop = stack.append, stack.pop
    reason = None  # while the run goes on
    saved_pc, saved_stack, saved_store, saved_steps = None, None, None, 0
    power, lam, repeated = 1, 0, False
    heat, units = None, None  # by pc: arrivals, and units (None where none compiles)
    after = pc  # a pc below `after` was reached by a backward jump
    while 0 <= pc < end:
        if pc < after:
            if repeated or pc == saved_pc and stack == saved_stack and store == saved_store:
                period = steps - saved_steps
                steps += (fuel - steps) // period * period
                repeated = False
            lam += 1
            if lam == power:
                saved_pc, saved_stack, saved_store, saved_steps = pc, stack[:], dict(store), steps
                power, lam = 2 * power, 0
            if heat is None:
                heat, units = {}, {}
        if heat is not None:
            unit = units.get(pc)
            if unit is None:
                heat[pc] = arrivals = heat.get(pc, 0) + 1
                if arrivals == _HOT:
                    unit = units[pc] = _unit(prog, pc)
            if unit is not None and len(stack) >= unit[1]:
                start, depth, same = pc, len(stack), pc == saved_pc and stack == saved_stack
                pc, steps, lam, power, saved, at, repeated = unit[0](stack, store, steps, fuel, lam, power, saved_store, same)
                if saved is not saved_store:
                    saved_pc, saved_stack, saved_store, saved_steps = start, stack[:depth], saved, at
                if repeated is not False:  # a repeat is handled above, as one found there
                    after = pc + 1 if repeated else unit[2]
                    continue
        after = end  # the stepping below stops at a backward jump, below `end`
        while 0 <= pc < end:  # step by step up to a backward jump
            instr = prog[pc]
            t = type(instr)
            if steps >= fuel:
                reason = StopReason.STACK_UNDERFLOW if len(stack) < _POPS.get(t, 0) else StopReason.FUEL_EXHAUSTED
                break
            steps += 1
            pc += 1
            if t is Load:
                push(store.get(instr.name, 0))
                continue
            if t is LoadI:
                push(instr.value)
                continue
            if len(stack) < _POPS.get(t, 0):  # the step is not taken
                steps -= 1
                pc -= 1
                reason = StopReason.STACK_UNDERFLOW
                break
            if t is Add:
                top = pop()
                stack[-1] += top
                continue
            if t is Store:
                store[instr.name] = pop()
                continue
            if t is JmpGe:
                top = pop()
                if pop() < top:
                    continue
            elif t is JmpLess:
                top = pop()
                if pop() >= top:
                    continue
            elif t is not Jmp:
                raise TypeError(f"not an instruction: {instr!r}")
            offset = instr.offset
            pc += offset
            if offset < 0:
                break
        if reason is not None:
            break
    return MachineConfig(pc, State(store), tuple(reversed(stack))), steps, reason or StopReason.OUT_OF_PROGRAM


def exec1(prog: Program, cfg: MachineConfig) -> Optional[MachineConfig]:
    """One machine step, the run loop's one-step case: None when the pc is
    outside the program; raises StackUnderflowError when the step pops an
    empty stack."""
    last, steps, reason = _run(prog, cfg, 1)
    if steps:
        return last
    if reason is StopReason.STACK_UNDERFLOW:
        raise StackUnderflowError(cfg)
    return None


def execute(prog: Program, cfg: MachineConfig, fuel: int) -> MachineOutcome:
    """Run until clean halt, stack underflow, or fuel exhaustion."""
    last, steps, reason = _run(prog, cfg, fuel)
    if reason is StopReason.OUT_OF_PROGRAM:
        return Halted(last, steps)
    return StuckOrExhausted(last, steps, reason)


def exec_n(prog: Program, cfg: MachineConfig, n: int) -> Union[MachineConfig, StuckOrExhausted]:
    """Exactly n steps; on an early stop, reports steps completed and why."""
    last, steps, reason = _run(prog, cfg, n)
    return last if steps >= n else StuckOrExhausted(last, steps, reason)


def steps_to_halt(prog: Program, cfg: MachineConfig, fuel: int) -> Optional[int]:
    """Steps until a clean halt, or None if the run does not halt in fuel."""
    _, steps, reason = _run(prog, cfg, fuel)
    return steps if reason is StopReason.OUT_OF_PROGRAM else None


# --- compiler -------------------------------------------------------------------


# A compile builds `Add`, `LoadI`, `Load` and `Store` through these, so equal
# instructions are one object; the caches are bounded, so fresh literals cannot
# grow them without limit.
_ADD = Add()
_LOAD_I, _LOAD, _STORE = (lru_cache(maxsize=4096)(cls) for cls in (LoadI, Load, Store))


def acomp(a: AExp) -> list[Instr]:
    """Compile an arithmetic expression to code leaving its value on top,
    walking a sum down its left spine: calls nest only for parentheses."""
    rights = []
    while type(a) is Plus:
        rights.append(a.right)
        a = a.left
    t = type(a)
    if t is not NumLit and t is not Var:
        raise TypeError(f"not an arithmetic expression: {a!r}")
    code: list[Instr] = [_LOAD_I(a.value) if t is NumLit else _LOAD(a.name)]
    for right in reversed(rights):
        t = type(right)
        if t is NumLit:
            code.append(_LOAD_I(right.value))
        elif t is Var:
            code.append(_LOAD(right.name))
        else:
            code += acomp(right)
        code.append(_ADD)
    return code


def bcomp(b: Assertion, jump_if: bool, offset: int) -> list[Instr]:
    """Compile a condition to code that jumps `offset` past its own end when
    the condition evaluates to `jump_if`, and falls through otherwise.

    A condition is an assertion built from `ATrue`, `AFalse`, `ANot`, `AAnd`
    and `ACmp` with `<` alone; any other assertion raises TypeError.
    Conjunctions short-circuit; only forward jumps are ever requested.
    """
    if offset < 0:
        raise ValueError("bcomp offsets must be non-negative")
    t = type(b)
    if t is ATrue or t is AFalse:
        return [Jmp(offset)] if (t is ATrue) == jump_if else []
    if t is ANot:
        return bcomp(b.inner, not jump_if, offset)
    if t is AAnd:
        code_right = bcomp(b.right, jump_if, offset)
        skip = len(code_right) if jump_if else len(code_right) + offset
        return bcomp(b.left, False, skip) + code_right
    if t is ACmp and b.op is _LT:
        jump = JmpLess(offset) if jump_if else JmpGe(offset)
        return acomp(b.left) + acomp(b.right) + [jump]
    raise TypeError(f"not a condition: {b!r}")


def ccomp(c: Com) -> list[Instr]:
    """Compile a command.  Compiled code ends with the pc one past the end."""
    code: list[Instr] = []
    stack: list[Com] = [c]
    while stack:
        node = stack.pop()
        t = type(node)
        if t is Seq:
            stack.append(node.second)
            stack.append(node.first)
        elif t is Skip:
            pass
        elif t is Assign:
            code += acomp(node.rhs)
            code.append(_STORE(node.target))
        elif t is If:
            code_then = ccomp(node.then_branch)
            code_else = ccomp(node.else_branch)
            code += bcomp(node.cond, False, len(code_then) + 1)
            code += code_then
            code.append(Jmp(len(code_else)))
            code += code_else
        elif t is While:
            body = ccomp(node.body)
            cond = bcomp(node.cond, False, len(body) + 1)
            code += cond
            code += body
            code.append(Jmp(-(len(cond) + len(body) + 1)))
        else:
            raise TypeError(f"not a command: {node!r}")
    return code
