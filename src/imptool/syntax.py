"""Abstract syntax for the IMP toy language and the store it runs on.

IMP programs operate on a single store mapping identifiers to unbounded
integers.  Everything in this module is an immutable value: updating a
state returns a fresh one, and syntax nodes can be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Union

if TYPE_CHECKING:
    from .hoare import Assertion
    from .parser import SourceSpan


# --- arithmetic expressions -------------------------------------------------


@dataclass(frozen=True, slots=True)
class NumLit:
    value: int


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class Plus:
    left: "AExp"
    right: "AExp"


AExp = Union[NumLit, Var, Plus]


# --- boolean expressions ----------------------------------------------------


@dataclass(frozen=True, slots=True)
class BoolLit:
    value: bool


@dataclass(frozen=True, slots=True)
class Not:
    inner: "BExp"


@dataclass(frozen=True, slots=True)
class And:
    left: "BExp"
    right: "BExp"


@dataclass(frozen=True, slots=True)
class Less:
    left: AExp
    right: AExp


BExp = Union[BoolLit, Not, And, Less]


# --- commands ----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Skip:
    pass


@dataclass(frozen=True, slots=True)
class Assign:
    target: str
    rhs: AExp


@dataclass(frozen=True, slots=True)
class Seq:
    first: "Com"
    second: "Com"


@dataclass(frozen=True, slots=True)
class If:
    cond: BExp
    then_branch: "Com"
    else_branch: "Com"


@dataclass(frozen=True, slots=True)
class While:
    """A loop.  The verifier reads the optional invariant and measure; every
    semantics ignores them.  They take part in equality, so two commands are
    equal iff they print the same; the source position does not."""

    cond: BExp
    body: "Com"
    invariant: Optional[Assertion] = None
    measure: Optional[AExp] = None
    span: Optional[SourceSpan] = field(default=None, compare=False)


Com = Union[Skip, Assign, Seq, If, While]


def seq_chain(parts: list[Com]) -> Com:
    """The right-nested sequence of one or more commands, the only nesting
    the concrete syntax writes."""
    node = parts[-1]
    for part in reversed(parts[:-1]):
        node = Seq(part, node)
    return node


def seq_spine(c: Com) -> list[Com]:
    """The commands along c's right-nested Seq spine, in order; [c] when c
    is not a Seq.  Inverts `seq_chain`."""
    parts = []
    while type(c) is Seq:
        parts.append(c.first)
        c = c.second
    parts.append(c)
    return parts


# --- program state -----------------------------------------------------------


class State:
    """Total mapping from identifiers to integers; unbound names read as 0.

    States are persistent: `update` returns a new state and never mutates
    the receiver.  Two states are equal iff they agree on every identifier,
    so bindings to zero are normalized away at construction.
    """

    __slots__ = ("_bindings",)

    def __init__(
        self,
        bindings: Mapping[str, int] | Iterable[tuple[str, int]] | None = None,
    ) -> None:
        cleaned: dict[str, int] = {}
        if bindings is not None:
            items = bindings.items() if isinstance(bindings, Mapping) else bindings
            for name, value in items:
                if value != 0:
                    cleaned[name] = value
                else:
                    cleaned.pop(name, None)
        self._bindings = cleaned

    @classmethod
    def of(cls, **bindings: int) -> "State":
        return cls(bindings)

    def read(self, name: str) -> int:
        return self._bindings.get(name, 0)

    def update(self, name: str, value: int) -> "State":
        new = dict(self._bindings)
        if value != 0:
            new[name] = value
        else:
            new.pop(name, None)
        out = State.__new__(State)
        out._bindings = new
        return out

    def bound_names(self) -> frozenset[str]:
        """Names currently holding a nonzero value."""
        return frozenset(self._bindings)

    def items(self) -> tuple[tuple[str, int], ...]:
        return tuple(sorted(self._bindings.items()))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, State) and self._bindings == other._bindings

    def __hash__(self) -> int:
        return hash(frozenset(self._bindings.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={value}" for name, value in self.items())
        return f"State({inner})"


# --- evaluation ---------------------------------------------------------------


def aval(a: AExp, s: State) -> int:
    """Value of an arithmetic expression in a state."""
    t = type(a)
    if t is NumLit:
        return a.value
    if t is Var:
        return s.read(a.name)
    if t is Plus:
        return aval(a.left, s) + aval(a.right, s)
    raise TypeError(f"not an arithmetic expression: {a!r}")


def bval(b: BExp, s: State) -> bool:
    """Truth value of a boolean expression in a state."""
    t = type(b)
    if t is BoolLit:
        return b.value
    if t is Not:
        return not bval(b.inner, s)
    if t is And:
        return bval(b.left, s) and bval(b.right, s)
    if t is Less:
        return aval(b.left, s) < aval(b.right, s)
    raise TypeError(f"not a boolean expression: {b!r}")


def vars_of(node: Com | BExp | AExp) -> set[str]:
    """Identifiers occurring (read or written) in a command or expression.

    Iterative so that very deep sequence chains do not hit the call stack.
    """
    seen: set[str] = set()
    stack: list[Com | BExp | AExp] = [node]
    while stack:
        n = stack.pop()
        t = type(n)
        if t is Var:
            seen.add(n.name)
        elif t is NumLit or t is BoolLit or t is Skip:
            pass
        elif t is Plus or t is And or t is Less:
            stack.append(n.left)
            stack.append(n.right)
        elif t is Not:
            stack.append(n.inner)
        elif t is Assign:
            seen.add(n.target)
            stack.append(n.rhs)
        elif t is Seq:
            stack.append(n.first)
            stack.append(n.second)
        elif t is If:
            stack.append(n.cond)
            stack.append(n.then_branch)
            stack.append(n.else_branch)
        elif t is While:
            stack.append(n.cond)
            stack.append(n.body)
        else:
            raise TypeError(f"not an IMP syntax node: {n!r}")
    return seen


def node_count(node: Com | BExp | AExp) -> int:
    """Total number of AST nodes, expressions included."""
    count = 0
    stack: list[Com | BExp | AExp] = [node]
    while stack:
        n = stack.pop()
        count += 1
        t = type(n)
        if t is Plus or t is And or t is Less:
            stack.append(n.left)
            stack.append(n.right)
        elif t is Not:
            stack.append(n.inner)
        elif t is Assign:
            stack.append(n.rhs)
        elif t is Seq:
            stack.append(n.first)
            stack.append(n.second)
        elif t is If:
            stack.append(n.cond)
            stack.append(n.then_branch)
            stack.append(n.else_branch)
        elif t is While:
            stack.append(n.cond)
            stack.append(n.body)
    return count
