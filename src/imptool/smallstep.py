"""Small-step semantics for IMP: single steps, bounded runs, and traces.

The step function is deterministic.  `star_closure` is the generic bounded
reflexive-transitive closure, and `star_run` instantiates it for program
configurations.  The stack machine does not use it: its run loop keeps only
the current configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, TypeVar

from .syntax import Assign, Com, If, Seq, Skip, State, While, aval, bval

T = TypeVar("T")

# Fault-injection hook: when set, the If rule picks the wrong branch.  Used
# by the harness self-checks to prove the differential suites can fail.
SWAP_IF_BRANCHES = False


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
    configs: tuple[ProgConfig, ...]
    status: TraceStatus

    @property
    def last(self) -> ProgConfig:
        return self.configs[-1]

    @property
    def steps_taken(self) -> int:
        return len(self.configs) - 1


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
        taken = bval(c.cond, s)
        if SWAP_IF_BRANCHES:
            taken = not taken
        inner = c.then_branch if taken else c.else_branch
    elif t is While:
        inner = If(c.cond, Seq(c.body, c), Skip())
    else:
        raise TypeError(f"not a command: {c!r}")
    for second in reversed(ctx):
        inner = Seq(inner, second)
    return ProgConfig(inner, s)


def star_closure(step: Callable[[T], Optional[T]], start: T, fuel: int) -> list[T]:
    """Iterate `step` from `start` at most `fuel` times, collecting the chain.

    Stops early when `step` returns None.  The result always contains the
    start element, so its length is one more than the number of steps taken.
    """
    chain = [start]
    current = start
    for _ in range(fuel):
        nxt = step(current)
        if nxt is None:
            break
        chain.append(nxt)
        current = nxt
    return chain


def star_run(cfg: ProgConfig, max_steps: int) -> StepTrace:
    """Run small steps from cfg, stopping at a final config or at max_steps."""
    chain = star_closure(small_step, cfg, max_steps)
    status = TraceStatus.COMPLETED if chain[-1].is_final else TraceStatus.FUEL_EXHAUSTED
    return StepTrace(tuple(chain), status)


def trace_records(trace: StepTrace) -> list[dict]:
    """JSON-ready records for a trace, one per configuration."""
    from .parser import pretty_com

    return [
        {
            "step_index": i,
            "command_text": pretty_com(cfg.command),
            "state_bindings": dict(cfg.state.items()),
        }
        for i, cfg in enumerate(trace.configs)
    ]
