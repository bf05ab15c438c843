"""Small-step semantics for IMP: single steps and their closure.

The step relation is deterministic, so the closure from a configuration is
one sequence.  `small_steps` yields it lazily, also on programs that never
end, and the `trace` command prints it as it goes; `small_step` is its second
element, and `star_run` keeps only the last configuration of a bounded prefix.

All three read off one refocused stepper (Danvy & Nielsen, BRICS RS-04-26,
2004): a focus, the command being reduced and never a `Seq`; a stack of the
pending `Seq` seconds; and a mutable store.  A step rewrites the focus instead
of plugging the program together and taking it apart again, a loop is
unfolded into its `if` once per run rather than once per iteration, and a
`ProgConfig` is built only where one is returned.

A configuration that comes back proves the run never ends.  `star_run` finds
one by Brent's cycle-finding algorithm (Brent, BIT 20, 1980) on the focus,
stack and store, sampled only where the focus is a `while` loop, as big-step
samples where a loop test holds and the machine after a taken backward jump.
It steps out only the fuel left after whole periods, so it returns exactly
what the full run would.

`star_run` runs a hot innermost loop, one it has reached `_HOT` times, as
big-step does, through `syntax._iterations`: whole iterations on the shared
store, each path's steps one constant, Brent's sample at the `while` focus.
The stepper stays suspended at that focus, whose stack whole iterations
leave as it was, so `small_steps`, `small_step` and `trace` still read off
the one stepper.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Iterator, Optional

from .syntax import _HOT, Assign, Com, If, Seq, Skip, State, While, _iterations, aval, bval

_SKIP = Skip()
# The steps each node of a loop body takes, the pop of the stack after it
# included, and each iteration's own (to the `if`, and into the body).
_COSTS = {Seq: 0, Assign: 2, Skip: 1, If: 1, While: 2}


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
    last) and `store` (no zeros), up to a final one; steps update both.  Each
    `While` node is unfolded once per call, so every iteration steps to the
    same `If`."""
    state = State.__new__(State)
    state._bindings = store
    unfolded: dict[int, If] = {}  # by id: each value keeps its loop alive
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
            loop = c
            c = unfolded.get(id(loop))
            if c is None:
                c = unfolded[id(loop)] = If(loop.cond, Seq(loop.body, loop), _SKIP)
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
    steps, heat, loops = -1, None, None  # by id: arrivals at each loop, and compiled loops
    for focus in focuses:
        steps += 1
        if steps == fuel:
            break
        if type(focus) is not While:
            continue
        repeated = focus is saved_focus and stack == saved_stack and store == saved_store
        if not repeated:
            lam += 1
            if lam == power:
                saved_focus, saved_stack, saved_store, saved_steps = focus, stack[:], dict(store), steps
                power, lam = 2 * power, 0
            if heat is None:
                heat, loops = {}, {}
            run = loops.get(key := id(focus))
            if run is None:
                heat[key] = arrivals = heat.get(key, 0) + 1
                if arrivals == _HOT:
                    run = loops[key] = _iterations(focus, _COSTS, True)
                if run is None:
                    continue
            same = focus is saved_focus and stack == saved_stack
            steps, lam, power, saved, at, repeated = run(store, steps, fuel, lam, power, saved_store, same)
            if saved is not saved_store:
                saved_focus, saved_stack, saved_store, saved_steps = focus, stack[:], saved, at
        if repeated:
            for focus in islice(focuses, (fuel - steps) % (steps - saved_steps)):
                pass
            steps = fuel
            break
    status = TraceStatus.COMPLETED if type(focus) is Skip and not stack else TraceStatus.FUEL_EXHAUSTED
    for second in reversed(stack):
        focus = Seq(focus, second)
    return StepTrace(ProgConfig(focus, State(store)), steps, status)
