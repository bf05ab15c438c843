"""Abstract syntax for the IMP toy language and the store it runs on.

The whole abstract syntax lives here: arithmetic expressions, assertions,
commands, and the source span a parsed loop carries.  The test of an `if` or
a `while`, a condition, is the assertion it denotes, built from `true`,
`false`, `!`, `&&` and `<` alone.  IMP programs operate on a single store
mapping identifiers to unbounded integers.  Everything in this module is an
immutable value: updating a state returns a fresh one, and syntax nodes can be
shared freely.  Built in bulk, they get from `slot_inits` an `__init__` that
sets each slot through its descriptor's `__set__`, a third cheaper than the
dataclass's `object.__setattr__`.

`_CHILDREN` says once, for every node class, what its children are;
`vars_of` and `node_count` are both short loops over it, for expressions,
assertions and commands alike.  `aval` walks a sum down its left spine, so a
sum of any length evaluates without recursion, and `linear` reads any sum as
its linear form.

`hoare` and `machine` compile the Python they generate through `_generated`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from types import CodeType, FunctionType
from typing import Callable, Iterable, Mapping, Optional, Union


def slot_inits(*classes: type) -> None:
    """Give each frozen slotted dataclass with fields an `__init__` that sets every
    slot through its descriptor: `_(self, a0, ...)` calling `_a0(self, a0)`, ..., with the fields' names."""
    codes: dict[int, CodeType] = {}
    for cls in classes:
        names, generated = cls.__slots__, cls.__init__
        if (n := len(names)) not in codes:
            args = [f"a{k}" for k in range(n)]
            exec(f"def _(self, {', '.join(args)}): " + "; ".join(f"_{a}(self, {a})" for a in args), space := {})
            codes[n] = space["_"].__code__
        setters = {"__name__": cls.__module__} | {f"_a{k}": cls.__dict__[name].__set__ for k, name in enumerate(names)}
        code = codes[n].replace(co_varnames=("self", *names))
        init = cls.__init__ = FunctionType(code, setters, "__init__", generated.__defaults__)
        init.__qualname__, init.__annotations__ = generated.__qualname__, generated.__annotations__


# How many distinct generated sources a process keeps compiled.
_COMPILED_SOURCES = 512


@functools.lru_cache(maxsize=_COMPILED_SOURCES)
def _code(source: str) -> CodeType:
    """The compiled generated source; a source CPython refuses raises, and is
    not kept."""
    return compile(source, "<generated>", "exec")


def _generated(build: Callable[[], list[str]]) -> Optional[dict[str, object]]:
    """The names defined by the Python lines `build()` returns, compiled once
    per distinct source and run in a fresh namespace without builtins, or
    None where CPython refuses the source.  It refuses by raising SyntaxError
    (too many nested parentheses, indentation levels or statically nested
    blocks), RecursionError or MemoryError (too deep for its compiler or
    parser), or ValueError (a literal past the int-to-text limit).  Pop each
    function out: it and its globals form a cycle."""
    env: dict[str, object] = {"__builtins__": {}}
    try:
        exec(_code("\n".join(build())), env)
    except (SyntaxError, RecursionError, MemoryError, ValueError):
        return None
    return env


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


# --- assertions ---------------------------------------------------------------


class CmpOp(Enum):
    LT = "<"
    LE = "<="
    EQ = "="


@dataclass(frozen=True, slots=True)
class ATrue:
    pass


@dataclass(frozen=True, slots=True)
class AFalse:
    pass


@dataclass(frozen=True, slots=True)
class ACmp:
    op: CmpOp
    left: AExp
    right: AExp


@dataclass(frozen=True, slots=True)
class ANot:
    inner: "Assertion"


@dataclass(frozen=True, slots=True)
class AAnd:
    left: "Assertion"
    right: "Assertion"


@dataclass(frozen=True, slots=True)
class AOr:
    left: "Assertion"
    right: "Assertion"


@dataclass(frozen=True, slots=True)
class AImp:
    premise: "Assertion"
    conclusion: "Assertion"


Assertion = Union[ATrue, AFalse, ACmp, ANot, AAnd, AOr, AImp]
_LT = CmpOp.LT  # a global reads faster than an Enum member through its class


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
    cond: Assertion
    then_branch: "Com"
    else_branch: "Com"


@dataclass(frozen=True, slots=True)
class While:
    """A loop.  The verifier reads the optional invariant and measure; every
    semantics ignores them.  They take part in equality, so two commands are
    equal iff they print the same; the source position does not."""

    cond: Assertion
    body: "Com"
    invariant: Optional[Assertion] = None
    measure: Optional[AExp] = None
    span: Optional[SourceSpan] = field(default=None, compare=False)


Com = Union[Skip, Assign, Seq, If, While]
slot_inits(NumLit, Var, Plus, ACmp, ANot, AAnd, AOr, AImp, Assign, Seq, If, While)


@dataclass(frozen=True, slots=True)
class SourceSpan:
    """1-based, inclusive region of the source text."""

    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def __str__(self) -> str:
        return f"{self.start_line}:{self.start_col}"


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
        return State({**self._bindings, name: value})

    def bound_names(self) -> frozenset[str]:
        """Names currently holding a nonzero value."""
        return frozenset(self._bindings)

    def items(self) -> tuple[tuple[str, int], ...]:
        return tuple(sorted(self._bindings.items()))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, State) and self._bindings == other._bindings

    def __hash__(self) -> int:
        return hash(frozenset(self._bindings.items()))

    def __str__(self) -> str:
        """The bindings as `x=1, y=2`, sorted by name; empty for the zero state."""
        return ", ".join(f"{name}={value}" for name, value in self.items())

    def __repr__(self) -> str:
        return f"State({self})"


# --- evaluation ---------------------------------------------------------------


def aval(a: AExp, s: State) -> int:
    """Value of an arithmetic expression in a state.  Only a parenthesised
    right operand of `+` recurses."""
    bindings = s._bindings
    total = 0
    while (t := type(a)) is Plus:
        right = a.right
        r = type(right)
        if r is NumLit:
            total += right.value
        elif r is Var:
            total += bindings.get(right.name, 0)
        else:
            total += aval(right, s)
        a = a.left
    if t is NumLit:
        return total + a.value
    if t is Var:
        return total + bindings.get(a.name, 0)
    raise TypeError(f"not an arithmetic expression: {a!r}")


def linear(a: AExp) -> tuple[int, tuple[tuple[str, int], ...]]:
    """The linear form `c + Σ k·x` of an expression as `(c, ((x, k), ...))`:
    literals folded into `c`, each variable once with its number `k` of
    occurrences, in left-to-right order of first occurrence.  Iterative."""
    constant = 0
    coefficients: dict[str, int] = {}
    stack = [a]
    while stack:
        node = stack.pop()
        t = type(node)
        if t is Plus:
            stack.append(node.right)
            stack.append(node.left)
        elif t is Var:
            coefficients[node.name] = coefficients.get(node.name, 0) + 1
        elif t is NumLit:
            constant += node.value
        else:
            raise TypeError(f"not an arithmetic expression: {node!r}")
    return constant, tuple(coefficients.items())


def bval(b: Assertion, s: State) -> bool:
    """Truth value of a condition in a state.  A condition is an assertion
    built from `ATrue`, `AFalse`, `ANot`, `AAnd` and `ACmp` with `<` alone;
    any other assertion raises TypeError."""
    t = type(b)
    if t is ACmp and b.op is _LT:
        return aval(b.left, s) < aval(b.right, s)
    if t is ATrue or t is AFalse:
        return t is ATrue
    if t is ANot:
        return not bval(b.inner, s)
    if t is AAnd:
        return bval(b.left, s) and bval(b.right, s)
    raise TypeError(f"not a condition: {b!r}")


# The children of each node class, as a function to a tuple; None marks a
# leaf.  A loop's invariant and measure are annotations, not children.
_CHILDREN = {
    **dict.fromkeys((NumLit, Var, ATrue, AFalse, Skip)),
    **dict.fromkeys((Plus, ACmp, AAnd, AOr), attrgetter("left", "right")),
    ANot: lambda n: (n.inner,),
    AImp: attrgetter("premise", "conclusion"),
    Assign: lambda n: (n.rhs,),
    Seq: attrgetter("first", "second"),
    If: attrgetter("cond", "then_branch", "else_branch"),
    While: attrgetter("cond", "body"),
}


def vars_of(node: AExp | Assertion | Com) -> set[str]:
    """Identifiers occurring (read or written) in a command, expression or
    assertion.  Iterative, so that very deep sequence chains do not hit the
    call stack."""
    seen: set[str] = set()
    stack = [node]
    try:
        while stack:
            n = stack.pop()
            t = type(n)
            if t is Var:
                seen.add(n.name)
            elif (children := _CHILDREN[t]) is not None:
                if t is Assign:
                    seen.add(n.target)
                stack += children(n)
    except KeyError:
        raise TypeError(f"not an IMP syntax node: {n!r}") from None
    return seen


def node_count(node: AExp | Assertion | Com) -> int:
    """Total number of AST nodes, expressions included."""
    count = 0
    stack = [node]
    while stack:
        n = stack.pop()
        count += 1
        if (children := _CHILDREN.get(type(n))) is not None:
            stack += children(n)
    return count
