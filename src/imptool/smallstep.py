"""Small-step semantics for IMP: single steps and their closure.

The step relation is deterministic, so the closure from a configuration is
one sequence.  `small_steps` yields it lazily, also on programs that never
end, and the `trace` command prints it as it goes; `small_step` is its second
element, and `star_run` keeps only the last configuration of a bounded prefix.

All three read off one refocused stepper (Danvy & Nielsen, BRICS RS-04-26,
2004): a focus, the command being reduced and never a `Seq`; a stack of the
pending `Seq` seconds; and a mutable store.  A step rewrites the focus instead
of plugging the program together and taking it apart again, and a
`ProgConfig` is built only where one is returned.

A configuration that comes back proves the run never ends.  `star_run` finds
one by Brent's cycle-finding algorithm (Brent, BIT 20, 1980) on the focus,
stack and store, sampled only where the focus is a `while` loop, as big-step
samples where a loop test holds and the machine after a taken backward jump.
It steps out only the fuel left after whole periods, so it returns exactly
what the full run would.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Iterator, Optional

from .syntax import Assign, Com, If, Seq, Skip, State, While, aval, bval

_SKIP = Skip()


@dataclass(frozen=True, slots=True)
class ProgConfig:
    command: Com
    state: State

    @property
    def is_final(self) -> bool:
        return type(self.command) is Skip


class TraceStatus(Enum):
    COMPLETED = "completed"
    FUEL_EXHAUSTED = "fuel-exhausted"


@dataclass(frozen=True, slots=True)
class StepTrace:
    last: ProgConfig
    steps_taken: int
    status: TraceStatus


def _focuses(c: Com, stack: list[Com], store: dict[str, int]) -> Iterator[Com]:
    """Yield the focus of each configuration from c in front of `stack` (top
    last) and `store` (no zeros), up to a final one; steps update both."""
    state = State.__new__(State)
    state._bindings = store
    while True:
        while type(c) is Seq:
            stack.append(c.second)
            c = c.first
        yield c
        t = type(c)
        if t is Skip:
            if not stack:
                return
            c = stack.pop()
        elif t is Assign:
            if value := aval(c.rhs, state):
                store[c.target] = value
            else:
                store.pop(c.target, None)
            c = _SKIP
        elif t is If:
            c = c.then_branch if bval(c.cond, state) else c.else_branch
        elif t is While:
            c = If(c.cond, Seq(c.body, c), _SKIP)
        else:
            raise TypeError(f"not a command: {c!r}")


def small_steps(cfg: ProgConfig) -> Iterator[ProgConfig]:
    """Yield cfg and then each successor, stopping after a final configuration."""
    yield cfg
    stack, store, state = [], dict(cfg.state._bindings), cfg.state
    for focus in islice(_focuses(cfg.command, stack, store), 1, None):
        if focus is _SKIP:  # only an assignment changes the store, and it leaves _SKIP
            state = State.__new__(State)  # `store` holds no zero
            state._bindings = dict(store)
        for second in reversed(stack):
            focus = Seq(focus, second)
        yield ProgConfig(focus, state)


def small_step(cfg: ProgConfig) -> Optional[ProgConfig]:
    """One step of execution, or None when the configuration is final."""
    return next(islice(small_steps(cfg), 1, None), None)


def star_run(cfg: ProgConfig, max_steps: int) -> StepTrace:
    """Run small steps from cfg, stopping at a final config or at max_steps;
    a negative max_steps takes no step.  Where the focus is a `while`, as it
    is infinitely often in a run that never ends, Brent's check compares the
    loop (by identity: unfolding reuses the node), stack and store with the
    1st, 2nd, 4th, 8th, ... such configuration.  A repeat `p` steps later
    recurs every `p` steps, so only the fuel left modulo `p` is stepped."""
    fuel = max(max_steps, 0)
    stack, store = [], dict(cfg.state._bindings)
    focuses = _focuses(cfg.command, stack, store)
    saved_focus, saved_stack, saved_store, saved_steps = None, None, None, 0
    power, lam = 1, 0
    for steps, focus in enumerate(focuses):
        if steps == fuel:
            break
        if type(focus) is While:
            if focus is saved_focus and stack == saved_stack and store == saved_store:
                for focus in islice(focuses, (fuel - steps) % (steps - saved_steps)):
                    pass
                steps = fuel
                break
            lam += 1
            if lam == power:
                saved_focus, saved_stack, saved_store, saved_steps = focus, stack[:], dict(store), steps
                power, lam = 2 * power, 0
    status = TraceStatus.COMPLETED if type(focus) is Skip and not stack else TraceStatus.FUEL_EXHAUSTED
    for second in reversed(stack):
        focus = Seq(focus, second)
    return StepTrace(ProgConfig(focus, State(store)), steps, status)
