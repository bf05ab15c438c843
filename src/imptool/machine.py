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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Union

from .syntax import (
    AExp,
    And,
    Assign,
    BExp,
    BoolLit,
    Com,
    If,
    Less,
    Not,
    NumLit,
    Plus,
    Seq,
    Skip,
    State,
    Var,
    While,
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


class StackUnderflowError(Exception):
    def __init__(self, config: MachineConfig) -> None:
        super().__init__(f"instruction at pc={config.pc} pops an empty stack")
        self.config = config


# --- execution -----------------------------------------------------------------


def _run(prog: Program, cfg: MachineConfig, fuel: int) -> tuple[MachineConfig, int, StopReason]:
    """Run from cfg for at most fuel steps (none when fuel is negative): the
    last configuration, the steps taken, and why the run stopped.  A
    configuration that cannot step is classified as such even when the fuel
    is spent, so halting exactly at the limit is a halt.  A non-instruction
    raises TypeError when the loop would step it.

    The pc, the stack (top at the end of a list) and the store live in
    locals; zero bindings are dropped when the final `State` is built."""
    pc, end, steps = cfg.pc, len(prog), 0
    stack = list(reversed(cfg.stack))
    store = dict(cfg.state.items())
    push, pop = stack.append, stack.pop
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
            push(store.get(instr.name, 0))
        elif t is LoadI:
            push(instr.value)
        elif t is Add:
            top = pop()
            stack[-1] += top
        elif t is Store:
            store[instr.name] = pop()
        elif t is JmpGe:
            top = pop()
            if pop() >= top:
                pc += instr.offset
        elif t is JmpLess:
            top = pop()
            if pop() < top:
                pc += instr.offset
        elif t is Jmp:
            pc += instr.offset
        else:
            raise TypeError(f"not an instruction: {instr!r}")
    return MachineConfig(pc, State(store), tuple(reversed(stack))), steps, reason


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


def acomp(a: AExp) -> list[Instr]:
    """Compile an arithmetic expression to code leaving its value on top."""
    t = type(a)
    if t is NumLit:
        return [LoadI(a.value)]
    if t is Var:
        return [Load(a.name)]
    if t is Plus:
        return acomp(a.left) + acomp(a.right) + [Add()]
    raise TypeError(f"not an arithmetic expression: {a!r}")


def bcomp(b: BExp, jump_if: bool, offset: int) -> list[Instr]:
    """Compile a condition to code that jumps `offset` past its own end when
    the condition evaluates to `jump_if`, and falls through otherwise.

    Conjunctions short-circuit; only forward jumps are ever requested.
    """
    if offset < 0:
        raise ValueError("bcomp offsets must be non-negative")
    t = type(b)
    if t is BoolLit:
        return [Jmp(offset)] if b.value == jump_if else []
    if t is Not:
        return bcomp(b.inner, not jump_if, offset)
    if t is And:
        code_right = bcomp(b.right, jump_if, offset)
        skip = len(code_right) if jump_if else len(code_right) + offset
        return bcomp(b.left, False, skip) + code_right
    if t is Less:
        jump = JmpLess(offset) if jump_if else JmpGe(offset)
        return acomp(b.left) + acomp(b.right) + [jump]
    raise TypeError(f"not a boolean expression: {b!r}")


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
            code.append(Store(node.target))
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

