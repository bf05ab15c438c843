"""Fueled big-step evaluator for IMP commands.

Fuel counts big-step rule applications, one per AST node visited by the
derivation.  The evaluator keeps an explicit work list instead of recursing,
so sequence chains hundreds of thousands of commands deep evaluate without
touching the interpreter call stack.

A configuration (work list and state) that comes back proves the run never
ends.  `big_step` looks for one with Brent's cycle-finding algorithm (Brent,
BIT 20, 1980), sampled each time a `while` condition holds, and then returns
`FuelExhausted` at once, as the full run would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .syntax import Assign, Com, If, Seq, Skip, State, While, aval, bval


@dataclass(frozen=True, slots=True)
class Terminated:
    final: State
    rules_applied: int


@dataclass(frozen=True, slots=True)
class FuelExhausted:
    """Evaluation ran out of fuel before finishing."""


BigStepOutcome = Union[Terminated, FuelExhausted]


def big_step(c: Com, s: State, fuel: int) -> BigStepOutcome:
    """Evaluate a command, spending one unit of fuel per rule application;
    a repeated configuration returns `FuelExhausted` at once."""
    todo: list[Com] = [c]
    count = 0
    saved_bindings = None
    saved_todo: list[Com] = []
    power, lam = 1, 0
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
        elif t is Skip:
            pass
        elif t is If:
            todo.append(node.then_branch if bval(node.cond, s) else node.else_branch)
        elif t is While:
            if bval(node.cond, s):
                todo.append(node)
                todo.append(node.body)
                # States compare by their binding dicts, with no method call.
                if s._bindings == saved_bindings and todo == saved_todo:
                    return FuelExhausted()
                lam += 1
                if lam == power:
                    saved_bindings, saved_todo, power, lam = s._bindings, todo[:], 2 * power, 0
        else:
            raise TypeError(f"not a command: {node!r}")
    return Terminated(s, count)

