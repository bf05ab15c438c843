"""Stack machine: instruction set, executable semantics, and the compiler.

The machine is a program counter, a store, and an integer stack (top first).
It halts cleanly as soon as the pc leaves [0, len(program)); a negative pc
halts exactly like running off the end.  Popping an empty stack is an error,
reported on the step it occurs.

`exec1` is the single-step semantics.  One run loop iterates it, keeping
only the current configuration; `execute`, `exec_n` and `steps_to_halt`
read their answers off that loop.
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


def exec1(prog: Program, cfg: MachineConfig) -> Optional[MachineConfig]:
    """One machine step; None when the pc is outside the program."""
    pc = cfg.pc
    if pc < 0 or pc >= len(prog):
        return None
    instr = prog[pc]
    t = type(instr)
    s = cfg.state
    stk = cfg.stack
    if t is LoadI:
        return MachineConfig(pc + 1, s, (instr.value,) + stk)
    if t is Load:
        return MachineConfig(pc + 1, s, (s.read(instr.name),) + stk)
    if t is Add:
        if len(stk) < 2:
            raise StackUnderflowError(cfg)
        return MachineConfig(pc + 1, s, (stk[1] + stk[0],) + stk[2:])
    if t is Store:
        if not stk:
            raise StackUnderflowError(cfg)
        return MachineConfig(pc + 1, s.update(instr.name, stk[0]), stk[1:])
    if t is Jmp:
        return MachineConfig(pc + 1 + instr.offset, s, stk)
    if t is JmpLess:
        if len(stk) < 2:
            raise StackUnderflowError(cfg)
        taken = stk[1] < stk[0]
        return MachineConfig(pc + 1 + (instr.offset if taken else 0), s, stk[2:])
    if t is JmpGe:
        if len(stk) < 2:
            raise StackUnderflowError(cfg)
        taken = stk[1] >= stk[0]
        return MachineConfig(pc + 1 + (instr.offset if taken else 0), s, stk[2:])
    raise TypeError(f"not an instruction: {instr!r}")


def _run(prog: Program, cfg: MachineConfig, fuel: int) -> tuple[MachineConfig, int, StopReason]:
    """Iterate `exec1` from cfg for at most fuel steps (none when fuel is
    negative): the last configuration, the steps taken, and why the run
    stopped.  A configuration that cannot step is classified as such even
    when the fuel is spent, so halting exactly at the limit is a halt."""
    steps = 0
    while True:
        try:
            nxt = exec1(prog, cfg)
        except StackUnderflowError:
            return cfg, steps, StopReason.STACK_UNDERFLOW
        if nxt is None:
            return cfg, steps, StopReason.OUT_OF_PROGRAM
        if steps >= fuel:
            return cfg, steps, StopReason.FUEL_EXHAUSTED
        cfg = nxt
        steps += 1


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


def jumps_in_range(prog: Program) -> bool:
    """True iff every jump lands inside [0, len(prog)]."""
    size = len(prog)
    for i, instr in enumerate(prog):
        t = type(instr)
        if t is Jmp or t is JmpLess or t is JmpGe:
            target = i + 1 + instr.offset
            if target < 0 or target > size:
                return False
    return True
