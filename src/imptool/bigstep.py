"""Fueled big-step evaluator for IMP commands.

Fuel counts big-step rule applications, one per AST node visited by the
derivation.  The evaluator keeps an explicit work list instead of recursing,
so sequence chains hundreds of thousands of commands deep evaluate without
touching the interpreter call stack.  Assignments update one mutable store in
place, read through the one `State` that wraps it and is returned.

A configuration (work list and state) that comes back proves the run never
ends.  `big_step` looks for one with Brent's cycle-finding algorithm (Brent,
BIT 20, 1980), sampled each time a `while` condition holds, and then returns
`FuelExhausted` at once, as the full run would, marked `repeated`.

A hot innermost loop, one whose test has held `_HOT` times in the run, runs
as one generated function of whole iterations (`syntax._iterations`): each
path's rules are one constant, an iteration runs only where its longest path
fits in the fuel, and Brent's sample stays where the test holds, so every
count, fuel-out point and `repeated` flag is the stepped run's.  The work
list below the loop cannot change inside it, so it is compared with the
saved one once, where the compiled run starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .syntax import _HOT, Assign, Com, If, Seq, Skip, State, While, _iterations, aval, bval

# The rules each node of a loop body applies, and each iteration's own (the
# loop's, where its test holds).
_COSTS = {Seq: 1, Assign: 1, Skip: 1, If: 1, While: 1}


@dataclass(frozen=True, slots=True)
class Terminated:
    final: State
    rules_applied: int


@dataclass(frozen=True, slots=True)
class FuelExhausted:
    """Evaluation ran out of fuel before finishing; `repeated` (not compared)
    where it came back to a configuration, so no fuel would finish it."""

    repeated: bool = field(default=False, compare=False, repr=False)


BigStepOutcome = Union[Terminated, FuelExhausted]


def big_step(c: Com, s: State, fuel: int) -> BigStepOutcome:
    """Evaluate a command, spending one unit of fuel per rule application;
    a repeated configuration returns `FuelExhausted` at once."""
    todo: list[Com] = [c]
    count = 0
    state = State(s._bindings)
    store = state._bindings
    saved_store = None
    saved_todo: list[Com] = []
    power, lam = 1, 0
    heat = loops = None  # by id: arrivals at each loop whose test holds, and compiled loops
    while todo:
        if count >= fuel:
            return FuelExhausted()
        node = todo.pop()
        count += 1
        t = type(node)
        if t is Assign:
            if value := aval(node.rhs, state):
                store[node.target] = value
            else:
                store.pop(node.target, None)
        elif t is Seq:
            todo.append(node.second)
            todo.append(node.first)
        elif t is Skip:
            pass
        elif t is If:
            todo.append(node.then_branch if bval(node.cond, state) else node.else_branch)
        elif t is While:
            if bval(node.cond, state):
                todo.append(node)
                todo.append(node.body)
                if store == saved_store and todo == saved_todo:
                    return FuelExhausted(True)
                lam += 1
                if lam == power:
                    saved_store, saved_todo, power, lam = dict(store), todo[:], 2 * power, 0
                if heat is None:
                    heat, loops = {}, {}
                run = loops.get(key := id(node))
                if run is None:
                    heat[key] = arrivals = heat.get(key, 0) + 1
                    if arrivals == _HOT:
                        run = loops[key] = _iterations(node, _COSTS, False)
                if run is not None:
                    count, lam, power, saved, _, why = run(store, count, fuel, lam, power, saved_store, todo == saved_todo)
                    if why:
                        return FuelExhausted(True)
                    if saved is not saved_store:
                        saved_store, saved_todo = saved, todo[:]
                    if why is False:  # the loop is done
                        del todo[-2:]
        else:
            raise TypeError(f"not a command: {node!r}")
    return Terminated(state, count)
