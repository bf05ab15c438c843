"""Small-step semantics for IMP: single steps and their closure.

The step function `small_step` is deterministic, so the reflexive-transitive
closure from a configuration is one sequence.  `small_steps` yields it lazily,
one configuration at a time, and works on programs that never end; the `trace`
command prints it as it goes.  `star_run` takes a bounded prefix of it and
keeps only the last configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Iterator, Optional

from .syntax import Assign, Com, If, Seq, Skip, State, While, aval, bval


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


def small_step(cfg: ProgConfig) -> Optional[ProgConfig]:
    """One step of execution, or None when the configuration is final.

    The left spine of nested sequences is walked iteratively, so stepping
    inside very deep sequence chains never recurses.
    """
    c = cfg.command
    s = cfg.state
    ctx: list[Com] = []
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


def small_steps(cfg: ProgConfig) -> Iterator[ProgConfig]:
    """Yield cfg and then each successor, stopping after a final configuration.

    The iterator is lazy, so on a program that never ends it runs for as long
    as it is read; bound it with `itertools.islice`.
    """
    while cfg is not None:
        yield cfg
        cfg = small_step(cfg)


def star_run(cfg: ProgConfig, max_steps: int) -> StepTrace:
    """Run small steps from cfg, stopping at a final config or at max_steps.

    Only the last configuration is kept.  A negative max_steps takes no step.
    """
    steps = 0
    for steps, cfg in enumerate(islice(small_steps(cfg), max(max_steps, 0) + 1)):
        pass
    status = TraceStatus.COMPLETED if cfg.is_final else TraceStatus.FUEL_EXHAUSTED
    return StepTrace(cfg, steps, status)
