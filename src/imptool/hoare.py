"""Hoare-logic tooling for IMP: assertion evaluation and substitution,
weakest preconditions for loop-free code, verification conditions, and
bounded semantic checking of triples.  The assertion syntax itself lives in
`syntax`, with the rest of the abstract syntax.

There is one command type, `Com`: a `While` node carries its own optional
invariant and measure, which `vcgen` reads and every semantics ignores.

One backward walk, `_VcCompiler.walk`, turns a command into a short list of
items per VC, and two back ends read them.  `_render` compiles every VC to
one Python function whose size is linear in the command's: an assignment
rebinds a local, and an `if` branches and joins again.  `_tree` builds the
weakest precondition as an assertion, copying the postcondition into both
branches of an `if`.  VCs are decided by the compiled functions, not by their
formulas; the formulas (`wp_loop_free`, the computed precondition, each VC's
`formula`) are built only when asked for, as when a report is printed.

A triple is checked by running its command from every enumerated state that
satisfies the precondition, by one Python function compiled per check that
counts rules, and so runs out of fuel, exactly as `big_step` does; like
`big_step`, it stops at once where a loop repeats a state.

Assertions are quantifier-free formulas over program variables, evaluated
directly on states.  Entailment and triple validity are decided by
exhaustively enumerating states within a bound, so a Valid verdict always
means valid-within-bound and a counterexample is always a genuine state.
The bound must be non-negative.

Each check compiles every assertion it evaluates once, into a Python function
over the enumerated values (Feeley & Lapalme, "Using closures for code
generation", 1987), and enumerates plain value tuples; a State is built only
where one is needed.

All generated code passes one gate, `_generated`, which compiles it and
reports where CPython refuses it: source nested deeper than its compiler
takes (200 parentheses, 100 indentation levels, 20 nested loops), or a
literal longer than its int-to-text limit.  There each caller falls back on
its reference: an assertion is evaluated by `eval_assertion`, the VCs are
decided on their formulas, and a triple's command is run by `big_step`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Union

from .bigstep import Terminated, big_step
from .parser import pretty_assertion
from .syntax import (
    AAnd,
    ACmp,
    AExp,
    AFalse,
    AImp,
    ANot,
    AOr,
    Assertion,
    Assign,
    ATrue,
    CmpOp,
    Com,
    If,
    NumLit,
    Plus,
    Seq,
    Skip,
    SourceSpan,
    State,
    Var,
    While,
    aval,
    linear,
    seq_chain,
    seq_spine,
    vars_of,
)

# Snapshot variables introduced by total-correctness VCs use this prefix;
# the parser rejects it in user programs so they can never collide.
SNAPSHOT_PREFIX = "__z"

# Entailment refuses to enumerate more states than this.
ENUMERATION_LIMIT = 10**7


# --- assertions -----------------------------------------------------------------


def eval_assertion(a: Assertion, s: State) -> bool:
    t = type(a)
    if t is ATrue:
        return True
    if t is AFalse:
        return False
    if t is ACmp:
        lv = aval(a.left, s)
        rv = aval(a.right, s)
        if a.op is CmpOp.LT:
            return lv < rv
        if a.op is CmpOp.LE:
            return lv <= rv
        return lv == rv
    if t is ANot:
        return not eval_assertion(a.inner, s)
    if t is AAnd:
        return eval_assertion(a.left, s) and eval_assertion(a.right, s)
    if t is AOr:
        return eval_assertion(a.left, s) or eval_assertion(a.right, s)
    if t is AImp:
        return (not eval_assertion(a.premise, s)) or eval_assertion(a.conclusion, s)
    raise TypeError(f"not an assertion: {a!r}")


# --- substitution ----------------------------------------------------------------


def subst_aexp(a: AExp, name: str, replacement: AExp) -> AExp:
    t = type(a)
    if t is Var:
        return replacement if a.name == name else a
    if t is NumLit:
        return a
    if t is Plus:
        return Plus(subst_aexp(a.left, name, replacement), subst_aexp(a.right, name, replacement))
    raise TypeError(f"not an arithmetic expression: {a!r}")


def subst_assertion(a: Assertion, name: str, replacement: AExp) -> Assertion:
    """Substitute an arithmetic expression for a variable in an assertion."""
    t = type(a)
    if t is ATrue or t is AFalse:
        return a
    if t is ACmp:
        return ACmp(a.op, subst_aexp(a.left, name, replacement), subst_aexp(a.right, name, replacement))
    if t is ANot:
        return ANot(subst_assertion(a.inner, name, replacement))
    if t is AAnd:
        return AAnd(subst_assertion(a.left, name, replacement), subst_assertion(a.right, name, replacement))
    if t is AOr:
        return AOr(subst_assertion(a.left, name, replacement), subst_assertion(a.right, name, replacement))
    if t is AImp:
        return AImp(subst_assertion(a.premise, name, replacement), subst_assertion(a.conclusion, name, replacement))
    raise TypeError(f"not an assertion: {a!r}")


# --- bounded entailment -----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Valid:
    pass


@dataclass(frozen=True, slots=True)
class CounterexampleFound:
    state: State


@dataclass(frozen=True, slots=True)
class Unknown:
    detail: str = ""


Verdict = Union[Valid, CounterexampleFound, Unknown]


def state_space_size(variables: Iterable[str], bound: int) -> int:
    return (2 * bound + 1) ** len(set(variables))


def _value_tuples(arity: int, bound: int) -> Iterator[tuple[int, ...]]:
    """Every assignment of values in [-bound, bound] to `arity` positions, in
    lexicographic order with values ascending: the enumeration order."""
    return itertools.product(range(-bound, bound + 1), repeat=arity)


def _enumerated_names(variables: Iterable[str], bound: int) -> Union[list[str], Unknown]:
    """The sorted names a check enumerates, or the Unknown verdict of every
    check whose state space exceeds the enumeration limit."""
    if bound < 0:
        raise ValueError(f"bound must be non-negative, got {bound}")
    names = sorted(set(variables))
    if state_space_size(names, bound) > ENUMERATION_LIMIT:
        return Unknown(f"state space exceeds {ENUMERATION_LIMIT} states")
    return names


def _satisfying(test: Callable[..., bool], arity: int, bound: int) -> Iterator[tuple[int, ...]]:
    """The value tuples on which `test` holds, in enumeration order."""
    return itertools.compress(
        _value_tuples(arity, bound), itertools.starmap(test, _value_tuples(arity, bound))
    )


def _search(falsified: Callable[..., bool], names: list[str], bound: int) -> Verdict:
    """The first enumerated state of `names` on which `falsified` holds, as a
    counterexample, or Valid when there is none."""
    first = next(_satisfying(falsified, len(names), bound), None)
    if first is not None:
        return CounterexampleFound(State(zip(names, first)))
    return Valid()


# --- compiled assertions ---------------------------------------------------------


_CMP_SOURCE = {CmpOp.LT: "<", CmpOp.LE: "<=", CmpOp.EQ: "=="}


def _local(name: str) -> str:
    """The Python local holding an IMP variable in generated code."""
    return "v_" + name


def _sum_source(a: AExp) -> str:
    """`linear(a)` as one flat sum over the locals: each variable once, times
    its multiplicity, then the constant unless it is 0."""
    constant, coefficients = linear(a)
    terms = [_local(name) if k == 1 else f"{k} * {_local(name)}" for name, k in coefficients]
    if constant or not terms:
        terms.append(str(constant))
    return " + ".join(terms)


def _source(a: Assertion) -> str:
    """Python source true exactly where `a` holds.  Recurses only where the
    connective changes."""
    t = type(a)
    if t is ATrue:
        return "True"
    if t is AFalse:
        return "False"
    if t is ACmp:
        return f"{_sum_source(a.left)} {_CMP_SOURCE[a.op]} {_sum_source(a.right)}"
    if t is ANot:
        negated = False
        while type(a) is ANot:
            a, negated = a.inner, not negated
        return f"not ({_source(a)})" if negated else _source(a)
    if t is AImp:
        parts = []
        while type(a) is AImp:
            parts.append(f"not ({_source(a.premise)})")
            a = a.conclusion
        parts.append(f"({_source(a)})")
        return " or ".join(parts)
    parts = []
    stack = [a]
    while stack:
        node = stack.pop()
        if type(node) is t:
            stack.append(node.right)
            stack.append(node.left)
        else:
            parts.append(f"({_source(node)})")
    return (" and " if t is AAnd else " or ").join(parts)


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


def _generated(build: Callable[[], list[str]]) -> Optional[dict[str, object]]:
    """The names defined by the Python lines `build()` returns, compiled and
    run once without builtins, or None where CPython refuses the source.  It
    refuses by raising SyntaxError (too many nested parentheses, indentation
    levels or statically nested blocks), RecursionError or MemoryError (too
    deep for its compiler or parser), or ValueError (a literal past the
    int-to-text limit)."""
    env: dict[str, object] = {"__builtins__": {}}
    try:
        exec(compile("\n".join(build()), "<generated>", "exec"), env)
    except (SyntaxError, RecursionError, MemoryError, ValueError):
        return None
    return env


def _predicate(names: list[str], a: Assertion) -> Callable[..., bool]:
    """A predicate over the values of `names`, in order, true where `a`
    holds: compiled once, or walked by `eval_assertion` where CPython refuses
    to compile it.  Any other variable reads 0."""
    others = sorted(vars_of(a).difference(names))
    params = ", ".join([*map(_local, names), *(f"{_local(name)}=0" for name in others)])
    env = _generated(lambda: [f"def _holds({params}):", f" return {_source(a)}"])
    if env is None:
        return lambda *values: eval_assertion(a, State(zip(names, values)))
    return env["_holds"]


def entails(p: Assertion, q: Assertion, variables: Iterable[str], bound: int) -> Verdict:
    """Does p entail q on every enumerated state?

    Returns the first falsifying state in enumeration order, or Unknown when
    the state space would exceed the enumeration limit.  Raises ValueError
    on a negative bound.
    """
    names = _enumerated_names(variables, bound)
    return names if type(names) is Unknown else _search(_predicate(names, AAnd(p, ANot(q))), names, bound)


# --- verification conditions -------------------------------------------------------------


def erase(c: Com) -> Com:
    """The command with every loop's invariant and measure dropped."""
    t = type(c)
    if t is Seq:
        return seq_chain([erase(part) for part in seq_spine(c)])
    if t is If:
        return If(c.cond, erase(c.then_branch), erase(c.else_branch))
    if t is While:
        return While(c.cond, erase(c.body), span=c.span)
    if t is Skip or t is Assign:
        return c
    raise TypeError(f"not a command: {c!r}")


class Mode(Enum):
    PARTIAL = "partial"
    TOTAL = "total"


class MissingAnnotationError(Exception):
    def __init__(self, message: str, span: Optional[SourceSpan] = None) -> None:
        if span is not None:
            message = f"{span}: {message}"
        super().__init__(message)
        self.span = span


ENTRY_LABEL = "entry: precondition establishes computed precondition"


@dataclass(frozen=True, slots=True)
class VerificationCondition:
    """One VC: its label, its free variables in enumeration order, and a
    predicate over their values that holds exactly where the VC fails.
    `formula`, the VC as an assertion, is built when read."""

    label: str
    variables: tuple[str, ...]
    falsified: Callable[..., bool]
    _formula: Callable[[], Assertion] = field(repr=False, compare=False)

    @property
    def formula(self) -> Assertion:
        return self._formula()


@dataclass(frozen=True)
class VcResult:
    """Every loop's VCs in order, and the entry VC, that a stated precondition
    establishes the computed one (None without a stated precondition).
    `precondition`, the computed precondition, is built on first read, and
    that one build is also the conclusion of the entry VC's formula."""

    conditions: tuple[VerificationCondition, ...]
    entry: Optional[VerificationCondition]
    _precondition: Callable[[], Assertion] = field(repr=False, compare=False)

    @property
    def precondition(self) -> Assertion:
        return self._precondition()


def _loop_annotations(node: While, ordinal: int, mode: Mode) -> tuple[str, Assertion, AExp]:
    """A loop's label, invariant and measure; raises MissingAnnotationError
    without an invariant, or in total mode without a measure."""
    label = f"loop#{ordinal}" if node.span is None else f"loop@{node.span}"
    if node.invariant is None:
        raise MissingAnnotationError(f"{label}: loop needs an invariant annotation", node.span)
    if mode is Mode.TOTAL and node.measure is None:
        raise MissingAnnotationError(
            f"{label}: total-correctness check needs a measure annotation", node.span
        )
    return label, node.invariant, node.measure


# --- compiled verification conditions ----------------------------------------------------
#
# Each VC is compiled to one Python function over the values of its free
# variables, true where the VC fails:
#
#     def _vc(v_x, v_y):
#      if not (<premise>): return False
#      v_y = v_y + 1                 # an assignment rebinds a local
#      if v_x < 3:                   # an `if` branches and joins again
#       v_x = v_x + 1
#      else:
#       return not (<invariant>)     # a loop ends the walk with its invariant
#      return not (<postcondition>)
#
# so the code after an `if` appears once, not once per branch as in the wp
# tree.  Code is built backwards from the postcondition, in continuation-
# passing form, as a list of items: an Assign (emitted only when its target is
# live, i.e. read later), an (assertion, then items, else items) tuple for an
# `if`, and an assertion to return for a loop or the end.  `_render` emits the
# items as Python; `_tree` reads the wp formula off the same items.


class _Code(NamedTuple):
    """Items for part of a command.  `fv` holds the variables read before
    being written, from here to the end of the VC: the free variables of the
    wp tree at this point.  `returns` when every path ends in a return."""

    items: list
    fv: frozenset[str]
    returns: bool


# A continuation: the code that runs next, and the continuation after it
# (None after code that returns).
_Cont = tuple  # (_Code, Optional[_Cont])


def _returning(a: Assertion) -> _Cont:
    """The continuation that returns `a`."""
    return (_Code([a], frozenset(vars_of(a)), True), None)


def _items(k: _Cont) -> list:
    """The items that run from continuation `k` up to its first return."""
    code, rest = k
    items = list(code.items)
    while not code.returns:
        code, rest = rest
        items += code.items
    return items


def _render(items: list, indent: str, lines: list[str]) -> None:
    """The Python back end: `items` as statements, returning True where the
    VC fails."""
    if not items:
        lines.append(f"{indent}pass")
    for item in items:
        t = type(item)
        if t is Assign:
            lines.append(f"{indent}{_local(item.target)} = {_sum_source(item.rhs)}")
        elif t is tuple:
            cond, then_items, else_items = item
            lines.append(f"{indent}if {_source(cond)}:")
            _render(then_items, indent + " ", lines)
            lines.append(f"{indent}else:")
            _render(else_items, indent + " ", lines)
        else:
            lines.append(f"{indent}return not ({_source(item)})")


def _tree(items: list, post: Optional[Assertion] = None) -> Assertion:
    """The formula back end: the weakest precondition of `items` for `post`,
    the assertion holding where they fall through.  An assignment
    substitutes, an `if` copies the post into both branches, and a returned
    assertion replaces it."""
    for item in reversed(items):
        t = type(item)
        if t is Assign:
            post = subst_assertion(post, item.target, item.rhs)
        elif t is tuple:
            cond, then_items, else_items = item
            post = AAnd(AImp(cond, _tree(then_items, post)), AImp(ANot(cond), _tree(else_items, post)))
        else:
            post = item
    return post


def _compiled(
    specs: list[tuple[str, Assertion, frozenset[str], _Cont]], wp: Callable[[_Cont], Assertion]
) -> tuple[VerificationCondition, ...]:
    """VCs given as (label, premise, its variables, continuation k), each the
    VC `premise -> wp(k)`, compiled together: one compile costs less than one
    per VC.  Each formula is built when read, or at once where CPython
    refuses the source and the VC is decided on it."""
    variables = [sorted(premise_vars | k[0].fv) for _, _, premise_vars, k in specs]

    def source() -> list[str]:
        lines: list[str] = []
        for i, ((_, premise, _, k), names) in enumerate(zip(specs, variables)):
            lines.append(f"def _vc{i}({', '.join(map(_local, names))}):")
            lines.append(f" if not ({_source(premise)}): return False")
            _render(_items(k), " ", lines)
        return lines

    env = _generated(source)
    conditions = []
    for i, ((label, premise, _, k), names) in enumerate(zip(specs, variables)):
        if env is None:
            formula = AImp(premise, wp(k))
            falsified, read = _predicate(names, ANot(formula)), lambda f=formula: f
        else:
            falsified, read = env[f"_vc{i}"], lambda p=premise, k=k: AImp(p, wp(k))
        conditions.append(VerificationCondition(label, tuple(names), falsified, read))
    return tuple(conditions)


class _VcCompiler:
    """The one backward walk of an annotated command: returns the code of the
    command and collects each loop's VCs, in vcgen's order, as (label,
    premise, premise variables, continuation).  Without a mode, as for
    `wp_loop_free`, a loop raises ValueError."""

    def __init__(self, mode: Optional[Mode]) -> None:
        self.mode = mode
        self.loops = 0
        self.pending: list[tuple[str, Assertion, frozenset[str], _Cont]] = []

    def walk(self, c: Com, k: _Cont) -> _Code:
        """The code of `c`, which falls through to `k` unless it returns."""
        t = type(c)
        live = k[0].fv
        if t is Skip or (t is Assign and c.target not in live):
            return _Code([], live, False)
        if t is Assign:
            return _Code([c], (live - {c.target}) | vars_of(c.rhs), False)
        if t is Seq:
            codes = []
            for part in reversed(seq_spine(c)):
                codes.append(self.walk(part, k))
                k = (codes[-1], k)
            items: list = []
            for code in reversed(codes):
                items += code.items
                if code.returns:
                    break
            return _Code(items, codes[-1].fv, code.returns)
        if t is If:
            then, other = self.walk(c.then_branch, k), self.walk(c.else_branch, k)
            items = [(_condition(c.cond), then.items, other.items)]
            return _Code(items, then.fv | other.fv | vars_of(c.cond), then.returns and other.returns)
        if t is While:
            return self.loop(c, k)
        raise TypeError(f"not a command: {c!r}")

    def loop(self, node: While, k: _Cont) -> _Code:
        if self.mode is None:
            raise ValueError("wp_loop_free: command contains a while loop")
        label, inv, measure = _loop_annotations(node, self.loops, self.mode)
        snapshot = f"{SNAPSHOT_PREFIX}{self.loops}"
        self.loops += 1
        cond = _condition(node.cond)
        at_head = _returning(inv)
        inv_vars = at_head[0].fv
        head_vars = inv_vars | vars_of(cond)
        body, body_k, preserved = node.body, at_head, f"{label}: invariant preserved"
        if self.mode is Mode.TOTAL:
            body = Seq(Assign(snapshot, measure), body)
            body_k = _returning(AAnd(inv, ACmp(CmpOp.LT, measure, Var(snapshot))))
            preserved += " and measure decreases"
        self.pending.append((preserved, AAnd(inv, cond), head_vars, (self.walk(body, body_k), body_k)))
        if self.mode is Mode.TOTAL:
            nonnegative = _returning(ACmp(CmpOp.LE, NumLit(0), measure))
            self.pending.append((f"{label}: measure non-negative", inv, inv_vars, nonnegative))
        self.pending.append(
            (f"{label}: exit establishes postcondition", AAnd(inv, ANot(cond)), head_vars, k)
        )
        return at_head[0]


def wp_loop_free(c: Com, post: Assertion) -> Assertion:
    """Weakest precondition of a loop-free command.

    Raises ValueError if the command contains a while loop.
    """
    return _tree(_VcCompiler(None).walk(c, _returning(post)).items, post)


def vcgen(c: Com, post: Assertion, mode: Mode, pre: Optional[Assertion] = None) -> VcResult:
    """Verification conditions and computed precondition for a command whose
    loops carry annotations, against a postcondition, and with a stated
    precondition `pre` also the entry VC.

    Every loop needs an invariant; in total mode also a measure.  Each VC is
    compiled to a predicate whose size is linear in the command's; the
    formulas are built from the same walk, and only when read.  Where
    CPython refuses to compile the VCs, they are decided on the formulas.
    """
    compiler = _VcCompiler(mode)
    end = _returning(post)
    top = (compiler.walk(c, end), end)
    precondition = functools.cache(lambda: _tree(_items(top)))
    specs = compiler.pending
    if pre is not None:
        specs.append((ENTRY_LABEL, pre, frozenset(vars_of(pre)), top))
    # The entry VC's formula shares the precondition's one build.
    conditions = _compiled(specs, lambda k: precondition() if k is top else _tree(_items(k)))
    if pre is None:
        return VcResult(conditions, None, precondition)
    return VcResult(conditions[:-1], conditions[-1], precondition)


# --- semantic triple checking ---------------------------------------------------------------
#
# A triple's command is compiled to one Python function.  Its local `n`
# counts the rules `big_step` applies, one per node visited, with the counts
# of straight-line code folded into constants.  A loop becomes `while True:`
# that breaks where its test fails; each iteration adds the body's rules and
# the next test to `n`, and returns None once `n` exceeds the fuel, as the
# function does at its end.  Loop `i` also keeps one saved state, the locals
# `s<i>_<name>`: a back edge where `n` has reached `t<i>` saves the state and
# sets `t<i>` to `2 * n` (Brent, "An improved Monte Carlo factorization
# algorithm", BIT 1980).  A back edge that finds the saved state again has
# repeated a configuration, so the run never ends: it returns None at once,
# as `big_step` returns FuelExhausted.


def _triple_run(command: Com, names: list[str], out_names: list[str], fuel: int) -> Callable[..., Optional[tuple]]:
    """A function from the values of `names` to the final values of
    `out_names`, None where the fuel runs out or a loop repeats a state:
    `command` compiled, or run by `big_step` where CPython refuses to
    compile it."""
    lines = [f"def _run({', '.join(map(_local, names))}):", " n = 0"]
    # Only the command's variables change, so they alone tell states apart.
    changing = sorted(vars_of(command))
    lines += [f" {_local(name)} = 0" for name in sorted(set(changing + out_names) - set(names))]
    loops = itertools.count()

    def block(c: Com, depth: int, pending: int) -> int:
        """Append the code of `c`; return the rules counted since the last `n +=`."""
        indent = " " * depth
        todo = [c]
        while todo:
            node = todo.pop()
            pending += 1
            t = type(node)
            if t is Seq:
                todo += [node.second, node.first]
            elif t is Assign:
                lines.append(f"{indent}{_local(node.target)} = {_sum_source(node.rhs)}")
            elif t is If:
                lines.append(f"{indent}if {_source(_condition(node.cond))}:")
                lines.append(f"{indent} n += {block(node.then_branch, depth + 1, pending)}")
                lines.append(f"{indent}else:")
                lines.append(f"{indent} n += {block(node.else_branch, depth + 1, pending)}")
                pending = 0
            elif t is While:
                i = next(loops)
                saved = [(f"s{i}_{name}", _local(name)) for name in changing]
                lines.append(f"{indent}n += {pending}")
                lines.append(f"{indent}while True:")
                lines.append(f"{indent} if not ({_source(_condition(node.cond))}): break")
                lines.append(f"{indent} n += {block(node.body, depth + 1, 1)}")
                lines.append(f"{indent} if n > {fuel}: return None")
                lines.append(f"{indent} if {' and '.join([f't{i}', *(f'{v} == {s}' for s, v in saved)])}: return None")
                lines.append(f"{indent} if n >= t{i}: {''.join(f'{s} = {v}; ' for s, v in saved)}t{i} = 2 * n")
                pending = 0
            elif t is not Skip:
                raise TypeError(f"not a command: {node!r}")
        return pending

    def source() -> list[str]:
        lines.append(f" n += {block(command, 1, 0)}")
        lines.append(f" if n > {fuel}: return None")
        lines.append(f" return ({''.join(_local(name) + ', ' for name in out_names)})")
        lines[2:2] = [f" t{i} = 0" for i in range(next(loops))]  # next(loops) is the loop count
        return lines

    env = _generated(source)
    if env is not None:
        return env["_run"]

    def run(*values: int) -> Optional[tuple[int, ...]]:
        outcome = big_step(command, State(zip(names, values)), fuel)
        return tuple(map(outcome.final.read, out_names)) if type(outcome) is Terminated else None
    return run


def check_triple(
    pre_assertion: Assertion,
    command: Com,
    post_assertion: Assertion,
    variables: Iterable[str],
    bound: int,
    fuel: int,
    mode: Mode = Mode.PARTIAL,
) -> Verdict:
    """Check a triple semantically by running the command, compiled once to
    count fuel exactly as `big_step` does, from every enumerated initial
    state satisfying the precondition.

    In partial mode fuel exhaustion is never a counterexample, only tallied;
    in total mode termination within fuel is part of the claim.  Raises
    ValueError on a negative bound.
    """
    names = _enumerated_names(variables, bound)
    if type(names) is Unknown:
        return names
    pre_holds = _predicate(names, pre_assertion)
    post_names = sorted(vars_of(post_assertion))
    post_holds = _predicate(post_names, post_assertion)
    run = _triple_run(command, names, post_names, fuel)
    exhausted = 0
    for values in _satisfying(pre_holds, len(names), bound):
        final = run(*values)
        if final is None and mode is Mode.PARTIAL:
            exhausted += 1
        elif final is None or not post_holds(*final):
            return CounterexampleFound(State(zip(names, values)))
    if exhausted:
        return Unknown(f"{exhausted} initial state(s) ran out of fuel")
    return Valid()


# --- verification reports ---------------------------------------------------------------------


@dataclass(frozen=True)
class ReportEntry:
    condition: VerificationCondition
    verdict: Verdict

    @property
    def label(self) -> str:
        return self.condition.label

    @property
    def formula(self) -> Assertion:
        return self.condition.formula


@dataclass(frozen=True)
class VerificationReport:
    mode: Mode
    bound: int
    vcs: tuple[ReportEntry, ...]
    triple_verdict: Verdict
    vc_result: VcResult

    @property
    def precondition(self) -> Assertion:
        return self.vc_result.precondition

    @property
    def all_valid(self) -> bool:
        return all(type(entry.verdict) is Valid for entry in self.vcs) and (
            type(self.triple_verdict) is Valid
        )

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode.value,
            "bound": self.bound,
            "precondition_text": pretty_assertion(self.precondition),
            "vcs": [
                {
                    "label": entry.label,
                    "formula_text": pretty_assertion(entry.formula),
                    **_verdict_json(entry.verdict),
                }
                for entry in self.vcs
            ],
            "triple_verdict": _verdict_json(self.triple_verdict),
        }


def _verdict_json(v: Verdict) -> dict:
    t = type(v)
    if t is Valid:
        return {"verdict": "valid"}
    if t is CounterexampleFound:
        return {"verdict": "counterexample", "counterexample": dict(v.state.items())}
    return {"verdict": "unknown", "detail": v.detail}


def _decide(vc: VerificationCondition, bound: int) -> Verdict:
    """Validity of a VC over its enumerated states."""
    names = _enumerated_names(vc.variables, bound)
    return names if type(names) is Unknown else _search(vc.falsified, names, bound)


def verify(
    command: Com,
    precondition: Assertion,
    postcondition: Assertion,
    bound: int,
    fuel: int,
    mode: Mode,
) -> VerificationReport:
    """Full pipeline: VCs via vcgen, each decided by its compiled predicate
    over its own variables, plus a semantic check of the whole triple.

    The first report entry checks that the stated precondition establishes
    the computed one; snapshot variables are enumerated where they occur.  A
    triple whose precondition holds on no enumerated state is Unknown, not
    vacuously Valid.  No formula is built until the report is printed.
    """
    result = vcgen(command, postcondition, mode, precondition)
    entries = tuple(
        ReportEntry(vc, _decide(vc, bound)) for vc in (result.entry, *result.conditions)
    )
    triple_vars = vars_of(command) | vars_of(precondition) | vars_of(postcondition)
    triple = check_triple(precondition, command, postcondition, triple_vars, bound, fuel, mode)
    # Every enumeration contains the all-zero state, so a precondition that
    # holds there needs no search.
    if (
        type(triple) is Valid
        and not eval_assertion(precondition, State())
        and type(entails(precondition, AFalse(), triple_vars, bound)) is Valid
    ):
        triple = Unknown("precondition holds on no enumerated state")
    return VerificationReport(mode, bound, entries, triple, result)
