"""Abstract syntax for the IMP toy language and the store it runs on.

The whole abstract syntax lives here: arithmetic expressions, assertions,
commands, and the source span a parsed loop carries.  The test of an `if` or
a `while`, a condition, is the assertion it denotes, built from `true`,
`false`, `!`, `&&` and `<` alone.  IMP programs operate on a single store
mapping identifiers to unbounded integers.  Everything in this module is an
immutable value: updating a state returns a fresh one, and syntax nodes can be
shared freely.  Nodes, like the package's other value classes, are `record`s:
frozen slotted dataclasses whose methods run code compiled once per arity.

`_CHILDREN` says once, for every node class, what its children are;
`vars_of` and `node_count` are both short loops over it, for expressions,
assertions and commands alike.  `aval` walks a sum down its left spine, so a
sum of any length evaluates without recursion, and `linear` reads any sum as
its linear form.

`hoare` and `machine` compile the Python they generate through `_generated`,
and so does `_iterations`, which compiles a hot innermost loop for `bigstep`
and `smallstep`.  Over one local per variable, `_command_lines` writes a
command for it and for `hoare`'s triple search, counting by a cost table, and
`_source` and `_sum_source` write conditions, assertions and sums for all.
"""

from __future__ import annotations

import functools
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields
from enum import Enum
from operator import attrgetter
from types import CodeType, FunctionType
from typing import Callable, Iterable, Mapping, Optional, Union


def _assign(self: object, name: str, value: object) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delete(self: object, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _restore(self: object, state: list) -> None:
    for name, value in zip(self.__slots__, state):
        object.__setattr__(self, name, value)


@functools.cache
def _methods(arity: int, post: bool) -> dict[str, CodeType]:
    """The code of a record's methods over fields `f0`, ...: `__init__` sets field K
    through the global `_aK`, then calls `__post_init__` where `post`; `__repr__` fills in `_fmt`."""
    names = [f"f{k}" for k in range(arity)]
    own, other = ("".join(f"{whose}.{name}, " for name in names) for whose in ("self", "other"))
    sets = [f"_a{k}(self, {name})" for k, name in enumerate(names)] + ["self.__post_init__()"] * post
    module = compile(
        f"def __init__(self, {', '.join(names)}): {'; '.join(sets) or 'pass'}\n"
        f"def __eq__(self, other):\n if other.__class__ is self.__class__: return ({own}) == ({other})\n return NotImplemented\n"
        f"def __hash__(self): return hash(({own}))\ndef __repr__(self): return _fmt % ({own})\n"
        f"def __getstate__(self): return [{own}]", "<record>", "exec")
    return {code.co_name: code for code in module.co_consts if type(code) is CodeType}


def record(cls: type) -> type:
    """`cls` as a frozen slotted dataclass whose methods run the code `_methods`
    compiled for their arity, with the fields' names put in, so nothing is
    compiled per class.  Its `__init__` sets each slot through its descriptor, a
    third cheaper than `object.__setattr__`."""
    doc, cls.__doc__ = cls.__doc__, "-"  # with a doc, `dataclass` calls no `inspect.signature`
    cls = dataclass(slots=True, init=False, repr=False, eq=False)(cls)
    every = fields(cls)
    params = (f"{f.name}: {f.type!r}" + ("" if f.default is MISSING else f" = {f.default!r}") for f in every)
    cls.__doc__ = doc or f"{cls.__name__}({', '.join(params)})"
    compared, shown = [f.name for f in every if f.compare], [f.name for f in every if f.repr]
    env = {"__name__": cls.__module__, "_fmt": f"{cls.__qualname__}({', '.join(f'{name}=%r' for name in shown)})"}
    env |= {f"_a{k}": cls.__dict__[name].__set__ for k, name in enumerate(cls.__slots__)}
    for method, names in (("__init__", cls.__slots__), ("__getstate__", cls.__slots__), ("__eq__", compared),
                          ("__hash__", compared), ("__repr__", shown)):
        code = _methods(len(names), method == "__init__" and hasattr(cls, "__post_init__"))[method]
        rename = {f"f{k}": name for k, name in enumerate(names)}.get
        code = code.replace(co_names=tuple(rename(n, n) for n in code.co_names),
                            co_varnames=tuple(rename(n, n) for n in code.co_varnames))
        setattr(cls, method, function := FunctionType(code, env, method))
        function.__qualname__ = f"{cls.__qualname__}.{method}"
    cls.__init__.__defaults__ = tuple(f.default for f in every if f.default is not MISSING) or None
    cls.__init__.__annotations__ = {f.name: f.type for f in every} | {"return": None}
    cls.__setattr__, cls.__delattr__, cls.__setstate__ = _assign, _delete, _restore
    return cls


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


@record
class NumLit:
    value: int


@record
class Var:
    name: str


@record
class Plus:
    left: "AExp"
    right: "AExp"


AExp = Union[NumLit, Var, Plus]


# --- assertions ---------------------------------------------------------------


class CmpOp(Enum):
    LT = "<"
    LE = "<="
    EQ = "="


@record
class ATrue:
    pass


@record
class AFalse:
    pass


@record
class ACmp:
    op: CmpOp
    left: AExp
    right: AExp


@record
class ANot:
    inner: "Assertion"


@record
class AAnd:
    left: "Assertion"
    right: "Assertion"


@record
class AOr:
    left: "Assertion"
    right: "Assertion"


@record
class AImp:
    premise: "Assertion"
    conclusion: "Assertion"


Assertion = Union[ATrue, AFalse, ACmp, ANot, AAnd, AOr, AImp]
_LT = CmpOp.LT  # a global reads faster than an Enum member through its class


# --- commands ----------------------------------------------------------------


@record
class Skip:
    pass


@record
class Assign:
    target: str
    rhs: AExp


@record
class Seq:
    first: "Com"
    second: "Com"


@record
class If:
    cond: Assertion
    then_branch: "Com"
    else_branch: "Com"


@record
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


@record
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


# --- generated source: one local per variable ---------------------------------------

# Each comparison operator's Python source, and its truth between two ints.
_CMP_SOURCE = {CmpOp.LT: ("<", int.__lt__), CmpOp.LE: ("<=", int.__le__), CmpOp.EQ: ("==", int.__eq__)}
_NEGATED = {"True": "False", "False": "True"}


def _local(name: str) -> str:
    """The Python local holding an IMP variable in generated code."""
    return "v_" + name


def _identifiers(names: Iterable[str]) -> bool:
    """Whether every name is an ASCII identifier, as its local needs (`v_x.y` reads an attribute)."""
    return all(name.isascii() and name.isidentifier() for name in names)


def _sum_source(constant: int, terms: Iterable[tuple[str, int]]) -> str:
    """The linear form `Σ k·x + constant` as one flat sum over the locals:
    each variable once, times its coefficient, then the constant unless it is 0."""
    parts = [_local(name) if k == 1 else f"{k} * {_local(name)}" for name, k in terms]
    if constant or not parts:
        parts.append(str(constant))
    return " + ".join(parts)


def _comparison(a: ACmp) -> tuple[list[tuple[str, int]], int]:
    """The normal form `Σ k·x op c` of a comparison, `linear(a.left) -
    linear(a.right) op 0`: the terms (x, k) with a nonzero net coefficient k,
    in order of first occurrence, and the constant c."""
    left, terms = linear(a.left)
    right, subtracted = linear(a.right)
    net = dict(terms)
    for name, k in subtracted:
        net[name] = net.get(name, 0) - k
    return [(name, k) for name, k in net.items() if k], right - left


def _folded(parts: list[str], conjunction: bool) -> str:
    """The sources `parts` joined by `and` or by `or`, each in parentheses,
    with `True` and `False` folded away."""
    unit, zero = ("True", "False") if conjunction else ("False", "True")
    if zero in parts:
        return zero
    return (" and " if conjunction else " or ").join(f"({p})" for p in parts if p != unit) or unit


def _source(a: Assertion) -> str:
    """Python source true exactly where `a` holds: each comparison as one
    difference, and `True` or `False` for a part without variables, which
    the connectives around it fold away.  Recurses only where the
    connective changes."""
    t = type(a)
    if t is ATrue or t is AFalse:
        return str(t is ATrue)
    if t is ACmp:
        terms, c = _comparison(a)
        symbol, holds = _CMP_SOURCE[a.op]
        return f"{_sum_source(0, terms)} {symbol} {c}" if terms else str(holds(0, c))
    if t is ANot:
        negated = False
        while type(a) is ANot:
            a, negated = a.inner, not negated
        inner = _source(a)
        return _NEGATED.get(inner, f"not ({inner})") if negated else inner
    if t is AImp:
        parts = []
        while type(a) is AImp:
            premise = _source(a.premise)
            parts.append(_NEGATED.get(premise, f"not ({premise})"))
            a = a.conclusion
        return _folded([*parts, _source(a)], False)
    parts = []
    stack = [a]
    while stack:
        node = stack.pop()
        if type(node) is t:
            stack.append(node.right)
            stack.append(node.left)
        else:
            parts.append(_source(node))
    return _folded(parts, t is AAnd)


def _condition(b: Assertion) -> Assertion:
    """`b` if it is a condition, a test `bval` and `bcomp` accept; else TypeError."""
    t = type(b)
    if t is AAnd:
        _condition(b.left)
        _condition(b.right)
    elif t is ANot:
        _condition(b.inner)
    elif not (t is ATrue or t is AFalse or t is ACmp and b.op is CmpOp.LT):
        raise TypeError(f"not a condition: {b!r}")
    return b


def _command_lines(c: Com, costs: Mapping[type, int], loop: Callable[..., None], lines: list[str], indent: str,
                   pending: int = 0, below: tuple = ()) -> tuple[int, int]:
    """Append `c` as Python at `indent`, an assignment rebinding its local and
    each node adding `costs[class]` to `pending`; an `if` adds its path's count
    in each branch, and `loop(node, indent, pending, work list below its body)`
    writes a `while`, leaving nothing pending (`below`: big-step's work list
    below `c`).  Return the count pending after `c` and its largest path's."""
    todo, largest = [c], 0
    while todo:
        node = todo.pop()
        t = type(node)
        if t not in costs:
            raise TypeError(f"not a command: {node!r}")
        pending, largest = pending + costs[t], largest + costs[t]
        if t is Seq:
            todo += (node.second, node.first)
        elif t is Assign:
            lines.append(f"{indent}{_local(node.target)} = {_sum_source(*linear(node.rhs))}")
        elif t is If:
            under = (*below, *todo)
            lines.append(f"{indent}if {_source(_condition(node.cond))}:")
            then, then_largest = _command_lines(node.then_branch, costs, loop, lines, indent + " ", pending, under)
            lines += [f"{indent} n += {then}", f"{indent}else:"]
            other, other_largest = _command_lines(node.else_branch, costs, loop, lines, indent + " ", pending, under)
            lines.append(f"{indent} n += {other}")
            pending, largest = 0, largest + max(then_largest, other_largest)
        elif t is While:
            loop(node, indent, pending, (*below, *todo, node))
            pending = 0
    return pending, largest


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


# --- compiled loops -------------------------------------------------------------


# A loop, or a pc, reached this many times in one run is compiled, as trace
# compilers count loop headers (Gal et al., PLDI 2009).  On 2 vCPUs, CPython
# 3.11, the bench's `branching` loop compiles in 190 us with `_code` cleared
# and 28 us warm, and the machine unit of its code in 240 and 30 us, so short
# loops stay below it; `differential` ran no slower at 4, 16, 32 and 64.
_HOT = 32


def _iterations(loop: While, costs: Mapping[type, int], tested_first: bool) -> Optional[Callable[..., tuple]]:
    """An innermost loop's whole iterations, compiled: `_loop(store, n, fuel,
    lam, power, saved, same)` runs them on the store (no zeros) and returns
    `(n, lam, power, saved, at, why)`.  `costs` gives what each body node,
    and under `While` each iteration, adds to `n`; an iteration runs only
    where `n` plus its largest path stays below `fuel`, and ends by writing
    the variables it assigns to the store.  Brent's sample sits before the
    test where `tested_first`, else after it holds: the store is compared
    with `saved` where `same` (the rest of the configuration is the saved
    one's), and saved at the `power`-th sample, when `n` is `at`.  `why` is
    True on a repeat, False where the test fails after the body, else None.
    None where the body holds a loop, a non-command, a non-condition or a
    name that is not an identifier, or CPython refuses the source: that loop
    is stepped."""
    names, assigned, todo = sorted(vars_of(loop)), set(), [loop.body]
    while todo:
        node = todo.pop()
        if type(node) is Assign:
            assigned.add(node.target)
        elif type(node) is Seq or type(node) is If:
            todo += _CHILDREN[type(node)](node)

    def nested(node: While, *_: object) -> None:
        raise TypeError(f"not a loop-free command: {node!r}")

    def source() -> list[str]:
        body: list[str] = []
        pending, largest = _command_lines(loop.body, costs, nested, body, "  ", costs[While])
        test = _source(_condition(loop.cond))
        lines = ["def _loop(_store, n, fuel, lam, power, saved, same, at=None):"]
        lines += [f" {_local(name)} = _store.get({name!r}, 0)" for name in names]
        lines.append(f" _limit = fuel - {largest + costs[While]}")
        if tested_first:
            lines += [f" while {test}:", "  if n >= _limit: break"]
        else:
            lines.append(" while n < _limit:")
        lines += body
        if pending:
            lines.append(f"  n += {pending}")
        for name in sorted(assigned):
            lines += [f"  if {_local(name)}: _store[{name!r}] = {_local(name)}", f"  else: _store.pop({name!r}, None)"]
        if not tested_first:
            lines.append(f"  if not ({test}): return n, lam, power, saved, at, False")
        return [
            *lines,
            "  if same and _store == saved: return n, lam, power, saved, at, True",
            "  lam += 1",
            "  if lam == power: saved = _store.copy(); at = n; power += power; lam = 0; same = True",
            " return n, lam, power, saved, at, None",
        ]

    try:
        env = _generated(source) if _identifiers(names) else None
    except TypeError:
        return None
    return None if env is None else env.pop("_loop")
