"""Hoare-logic tooling for IMP: assertion evaluation and substitution,
weakest preconditions for loop-free code, verification conditions, and
bounded semantic checking of triples.  The assertion syntax itself lives in
`syntax`, with the rest of the abstract syntax.

There is one command type, `Com`: a `While` node carries its own optional
invariant and measure, which `vcgen` reads and every semantics ignores.

One backward walk, `_VcCompiler.walk`, turns a command into a short list of
items per VC, and two back ends read them.  `_render` writes every VC as
Python code whose size is linear in the command's: an assignment rebinds a
local, and an `if` branches and joins again.  `_tree` builds the weakest
precondition as an assertion, copying the postcondition into both branches
of an `if`.  VCs are decided by the generated code, not by their formulas;
the formulas (`wp_loop_free`, the computed precondition, each VC's
`formula`) are built only when asked for, as when a report is printed.

Assertions are quantifier-free formulas over program variables, evaluated
directly on states.  Entailments, VCs and triples are decided by
exhaustively enumerating states within a bound, so a Valid verdict always
means valid-within-bound and a counterexample is always a genuine state.
The bound must be non-negative.  A search skips the states that the
top-level conjuncts of its premise (an entailment's left side, a triple's
precondition, a VC's premise) exclude, as `_box` reads them: every state
cut fails the premise, so the order, the first counterexample and the count
of runs out of fuel are those of the full box, to which the enumeration
limit still applies.

Each such check is one generated Python function, a search (Feeley &
Lapalme, "Using closures for code generation", 1987): it runs the
enumeration itself, unpacking each value tuple into locals, and returns the
first on which the check fails, so it makes no Python call per state.  A
process compiles each distinct source once, and an entailment or triple
whose box holds no state compiles nothing: over no state every search
returns Valid.  Each comparison in a search is one difference `Σ k·x op c`,
and a part left without variables folds away as a constant.  A triple's
search runs the command inline, as `syntax._command_lines` writes it (for
hot loops too) with `big_step`'s rule table, counting rules, running out of
fuel and finding a repeated configuration just as `big_step` does.  All
generated code passes one gate, `syntax._generated`, which reports where
CPython refuses it: source nested deeper than its compiler takes (200
parentheses, 100 indentation levels, 20 nested loops, the search's own among
them), or a literal past its int-to-text limit.  There, and where a name is
not an identifier, the whole check runs its reference, `eval_assertion` and
`big_step`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import field
from enum import Enum
from typing import Callable, Iterable, NamedTuple, Optional, Union

from .bigstep import _COSTS, Terminated, big_step
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
    _command_lines,
    _comparison,
    _condition,
    _generated,
    _identifiers,
    _local,
    _source,
    _sum_source,
    aval,
    linear,
    record,
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
    """Substitute an arithmetic expression for a variable in another.  Only
    a parenthesised right operand of `+` recurses."""
    rights = []
    while type(a) is Plus:
        rights.append(a.right)
        a = a.left
    if type(a) is Var and a.name == name:
        a = replacement
    elif type(a) is not Var and type(a) is not NumLit:
        raise TypeError(f"not an arithmetic expression: {a!r}")
    for right in reversed(rights):
        a = Plus(a, subst_aexp(right, name, replacement))
    return a


def subst_assertion(a: Assertion, name: str, replacement: AExp) -> Assertion:
    """Substitute an arithmetic expression for a variable in an assertion.
    Iterative, so that a long chain of connectives, as a parsed `->` chain,
    does not hit the call stack."""
    done: list[Assertion] = []
    todo: list = [a]
    while todo:
        node = todo.pop()
        t = type(node)
        if t is tuple:  # (connective, arity): its operands are done
            connective, arity = node
            done[-arity:] = [connective(*done[-arity:])]
        elif t is ACmp:
            done.append(ACmp(node.op, subst_aexp(node.left, name, replacement), subst_aexp(node.right, name, replacement)))
        elif t is ATrue or t is AFalse:
            done.append(node)
        elif t is ANot or t is AAnd or t is AOr or t is AImp:
            operands = [getattr(node, slot) for slot in t.__slots__]
            todo += ((t, len(operands)), *reversed(operands))
        else:
            raise TypeError(f"not an assertion: {node!r}")
    return done[0]


# --- bounded entailment -----------------------------------------------------------


@record
class Valid:
    pass


@record
class CounterexampleFound:
    state: State


@record
class Unknown:
    detail: str = ""


Verdict = Union[Valid, CounterexampleFound, Unknown]


def state_space_size(variables: Iterable[str], bound: int) -> int:
    return (2 * bound + 1) ** len(set(variables))


def _enumerated_names(variables: Iterable[str], bound: int) -> Union[list[str], Unknown]:
    """The sorted names a check enumerates, or the Unknown verdict of every
    check whose state space exceeds the enumeration limit."""
    if bound < 0:
        raise ValueError(f"bound must be non-negative, got {bound}")
    names = sorted(set(variables))
    if state_space_size(names, bound) > ENUMERATION_LIMIT:
        return Unknown(f"state space exceeds {ENUMERATION_LIMIT} states")
    return names


def _verdict(names: list[str], found: Union[tuple[int, ...], int, None]) -> Verdict:
    """The verdict of a search over the values of `names`: from the first
    tuple on which its check fails, else the count of runs out of fuel."""
    if type(found) is tuple:
        return CounterexampleFound(State(zip(names, found)))
    return Unknown(f"{found} initial state(s) ran out of fuel") if found else Valid()


def _walked(
    names: list[str], pre: Assertion, post: Assertion, command: Com = Skip(), fuel: int = 1, total: bool = False
) -> Callable[[Iterable[tuple[int, ...]]], Union[tuple[int, ...], int, None]]:
    """The reference search of the triple {pre} command {post}, or with
    `skip` of an entailment, by `eval_assertion` and `big_step`."""

    def search(states: Iterable[tuple[int, ...]]) -> Union[tuple[int, ...], int, None]:
        out = 0
        for values in states:
            s = State(zip(names, values))
            if eval_assertion(pre, s):
                outcome = big_step(command, s, fuel)
                if type(outcome) is Terminated:
                    if not eval_assertion(post, outcome.final):
                        return values
                elif total and outcome.repeated:
                    return values
                else:
                    out += 1
        return out
    return search


# --- compiled assertions ---------------------------------------------------------


def _box(premise: Assertion, names: list[str], bound: int) -> Iterable[tuple[int, ...]]:
    """The tuples of values of `names` in [-bound, bound] in enumeration
    order (lexicographic, values ascending), clipped to the interval that
    each top-level conjunct of `premise` puts on one variable x: `k·x <= c`,
    `<` or `=`, or `!` of a `<` or `<=`, read as its complement (the interval
    domain; Cousot & Cousot, POPL 1977).  A name not enumerated reads 0, and
    a conjunct with no variable left that fails leaves no tuple, so every
    tuple cut fails the premise.  Where no tuple is left, this is `()`."""
    low, high = dict.fromkeys(names, -bound), dict.fromkeys(names, bound)
    todo = [premise]
    while todo:
        a, sign = todo.pop(), 1
        while type(a) is ANot:
            a, sign = a.inner, -sign
        t = type(a)
        if t is AAnd and sign > 0:
            todo += (a.right, a.left)
        elif t is AFalse or t is ATrue:
            if (t is AFalse) == (sign > 0):
                return ()
        elif t is ACmp and (sign > 0 or a.op is not CmpOp.EQ):
            terms, c = _comparison(a)
            terms = [(name, sign * k) for name, k in terms if name in low]
            # as Σ <= c or Σ = c: Σ < c is Σ <= c - 1, !(Σ < c) is -Σ <= -c,
            # and !(Σ <= c) is -Σ <= -c - 1
            c, equal = sign * c - ((a.op is CmpOp.LT) == (sign > 0)), a.op is CmpOp.EQ
            if not terms and (c < 0 or equal and c):
                return ()
            if len(terms) == 1:
                [(name, k)] = terms  # an equation k·x = c has ⌈c / k⌉ <= x <= ⌊c / k⌋
                if equal or k > 0:  # x <= ⌊c / k⌋
                    high[name] = min(high[name], c // k)
                if equal or k < 0:  # x >= ⌈c / k⌉
                    low[name] = max(low[name], -(c // -k))
    ranges = [range(low[name], high[name] + 1) for name in names]
    return itertools.product(*ranges) if all(ranges) else ()


def _search_lines(signature: str, names: list[str], zeroed: Iterable[str], body: list[str]) -> list[str]:
    """The search `def signature`, over `_states`: for each tuple `_s` of
    values of `names`, it sets their locals, and each in `zeroed` to 0, and
    runs `body`, lines at indent two that return `_s` where the check fails."""
    head = [f"def {signature}:", " for _s in _states:", f"  [{', '.join(map(_local, names))}] = _s"]
    if zeroed := sorted(zeroed):
        head.append(f"  {' = '.join(zeroed)} = 0")
    return [*head, *body]


def entails(p: Assertion, q: Assertion, variables: Iterable[str], bound: int) -> Verdict:
    """Does p entail q on every enumerated state?

    Returns the first falsifying state in enumeration order, or Unknown when
    the state space would exceed the enumeration limit.  Raises ValueError
    on a negative bound.
    """
    names = _enumerated_names(variables, bound)
    if type(names) is Unknown:
        return names
    states = _box(p, names, bound)
    if not states:
        return Valid()
    read = vars_of(p) | vars_of(q)
    others = map(_local, read.difference(names))
    check = lambda: _search_lines("_entails(_states)", names, others, [f"  if {_source(AAnd(p, ANot(q)))}: return _s"])
    env = _generated(check) if _identifiers(read.union(names)) else None
    search = _walked(names, p, q) if env is None else env.pop("_entails")
    return _verdict(names, search(states))


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


@record
class VerificationCondition:
    """One VC: its label, its free variables in enumeration order, its
    premise, which clips the box it is decided on, and its search, from
    tuples of their values to the first on which the VC fails.  `formula`,
    the VC as an assertion, is built when read."""

    label: str
    variables: tuple[str, ...]
    premise: Assertion = field(repr=False, compare=False)
    search: Callable[[Iterable[tuple[int, ...]]], Union[tuple[int, ...], int, None]] = field(repr=False, compare=False)
    _formula: Callable[[], Assertion] = field(repr=False, compare=False)

    @property
    def formula(self) -> Assertion:
        return self._formula()

    def falsified(self, *values: int) -> bool:
        """Whether the VC fails where its variables have these values."""
        return type(self.search([values])) is tuple


@record
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
# Each VC is compiled to one search over the values of its free variables,
# whose body, run for each tuple `_s`, reads
#
#     if not (<premise>): continue
#     v_y = v_y + 1                       # an assignment rebinds a local
#     if v_x < 3:                         # an `if` branches and joins again
#      v_x = v_x + 1
#     else:
#      if not (<invariant>): return _s    # a loop ends the walk with its invariant
#      continue
#     if not (<postcondition>): return _s
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


def _render(items: list, indent: str, lines: list[str], tail: bool = True) -> None:
    """The Python back end: `items` as statements in a search, which return
    `_s` where the VC fails and go on to the next `_s` where it holds."""
    if not items:
        lines.append(f"{indent}pass")
    for i, item in enumerate(items, 1 - len(items)):  # i is 0 at the last item
        t = type(item)
        if t is Assign:
            lines.append(f"{indent}{_local(item.target)} = {_sum_source(*linear(item.rhs))}")
        elif t is tuple:
            cond, then_items, else_items = item
            lines.append(f"{indent}if {_source(cond)}:")
            _render(then_items, indent + " ", lines, tail and not i)
            lines.append(f"{indent}else:")
            _render(else_items, indent + " ", lines, tail and not i)
        else:
            lines.append(f"{indent}if not ({_source(item)}): return _s")
            if not tail:
                lines.append(f"{indent}continue")


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
    specs: list[tuple[str, Assertion, frozenset[str], _Cont]], wp: Callable[[_Cont], Assertion], named: set[str]
) -> tuple[VerificationCondition, ...]:
    """VCs given as (label, premise, its variables, continuation k), each the
    VC `premise -> wp(k)`, their searches compiled together: one compile
    costs less than one per VC.  Each formula is built when read, or at once
    where CPython refuses the source or a name, a VC's or one in `named` (the
    command's), is not an identifier, and the VC is decided on it."""
    variables = [sorted(premise_vars | k[0].fv) for _, _, premise_vars, k in specs]

    def source() -> list[str]:
        lines: list[str] = []
        for i, ((_, premise, _, k), names) in enumerate(zip(specs, variables)):
            body = [f"  if not ({_source(premise)}): continue"]
            _render(_items(k), "  ", body)
            lines += _search_lines(f"_vc{i}(_states)", names, (), body)
        return lines

    env = _generated(source) if _identifiers(named.union(*variables)) else None
    conditions = []
    for i, ((label, premise, _, k), names) in enumerate(zip(specs, variables)):
        if env is None:
            formula = AImp(premise, wp(k))
            search, read = _walked(names, ATrue(), formula), lambda f=formula: f
        else:
            search, read = env.pop(f"_vc{i}"), lambda p=premise, k=k: AImp(p, wp(k))
        conditions.append(VerificationCondition(label, tuple(names), premise, search, read))
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
    conditions = _compiled(specs, lambda k: precondition() if k is top else _tree(_items(k)), vars_of(c))
    if pre is None:
        return VcResult(conditions, None, precondition)
    return VcResult(conditions[:-1], conditions[-1], precondition)


# --- semantic triple checking ---------------------------------------------------------------
#
# A triple's search runs its command inline, written by `syntax._command_lines`
# with big-step's own rule table: its local `n` counts the rules `big_step`
# applies, with the counts of straight-line code folded into constants, and
# is exact at each loop test.  Where a test holds, the loop head takes
# `big_step`'s own steps: it stops if n > fuel, stops with a repeat if the
# configuration is the one saved (`p`, the head numbered by the work list
# `big_step` holds there, and the locals `s_<name>`), and saves it at the
# 1st, 3rd, 7th, ... such event, counted in `e` (Brent, BIT 20, 1980).  A
# repeat in partial mode, like spent fuel, leaves n past the fuel, so every
# later loop test breaks its loop at once, and the run is counted in `_out`.


def _run_lines(command: Com, changing: list[str], fuel: int, total: bool) -> list[str]:
    """The run of `command` as lines at indent two of a triple's search.
    Only the variables in `changing` tell configurations apart."""
    lines: list[str] = []
    heads: list[tuple[Com, ...]] = []
    repeated = "return _s" if total else f"n = {fuel + 1}; break"
    same = "".join(f" and {_local(name)} == s_{name}" for name in changing)
    save = "".join(f"s_{name} = {_local(name)}; " for name in changing)

    def head(node: While, indent: str, pending: int, below: tuple[Com, ...]) -> None:
        """Append the loop `node`, after `pending` rules, over the work list `below` its body."""
        if below not in heads:
            heads.append(below)
        k = heads.index(below) + 1
        lines.extend([f"{indent}n += {pending}", f"{indent}while {_source(_condition(node.cond))}:"])
        lines.extend([f"{indent} if n > {fuel}: break", f"{indent} if p == {k}{same}: {repeated}"])
        lines.extend([f"{indent} e += 1", f"{indent} if e > t: p = {k}; {save}t = 2 * e"])
        lines.append(f"{indent} n += {_command_lines(node.body, _COSTS, head, lines, indent + ' ', 0, below)[0] + _COSTS[While]}")

    lines.append(f"  n += {_command_lines(command, _COSTS, head, lines, '  ')[0]}")
    del head  # it calls itself through its cell: a reference cycle
    return lines


def check_triple(
    pre_assertion: Assertion,
    command: Com,
    post_assertion: Assertion,
    variables: Iterable[str],
    bound: int,
    fuel: int,
    mode: Mode = Mode.PARTIAL,
) -> Verdict:
    """Check a triple semantically by running the command, counting fuel as
    `big_step` does, from every enumerated state satisfying the precondition.

    A run ending outside the postcondition is a counterexample, and so in
    total mode is one that repeats a configuration.  A run that otherwise
    spends its fuel is tallied, and then the verdict is Unknown.  Raises
    ValueError on a negative bound.
    """
    names = _enumerated_names(variables, bound)
    if type(names) is Unknown:
        return names
    states = _box(pre_assertion, names, bound)
    if not states:
        return Valid()
    changing = sorted(vars_of(command))
    read = vars_of(pre_assertion) | vars_of(post_assertion) | set(changing)

    def source() -> list[str]:
        run = _run_lines(command, changing, fuel, mode is Mode.TOTAL)
        body = [f"  if not ({_source(pre_assertion)}): continue", *run, f"  if n > {fuel}: _out += 1; continue"]
        body.append(f"  if not ({_source(post_assertion)}): return _s")
        zeroed = [*map(_local, read.difference(names)), "n", "e", "t", "p"]
        return [*_search_lines("_triple(_states, _out=0)", names, zeroed, body), " return _out"]

    env = _generated(source) if _identifiers(read.union(names)) else None
    search = _walked(names, pre_assertion, post_assertion, command, fuel, mode is Mode.TOTAL) if env is None else env.pop("_triple")
    return _verdict(names, search(states))


# --- verification reports ---------------------------------------------------------------------


@record
class ReportEntry:
    condition: VerificationCondition
    verdict: Verdict

    @property
    def label(self) -> str:
        return self.condition.label

    @property
    def formula(self) -> Assertion:
        return self.condition.formula


@record
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
    return names if type(names) is Unknown else _verdict(names, vc.search(_box(vc.premise, names, bound)))


def verify(
    command: Com,
    precondition: Assertion,
    postcondition: Assertion,
    bound: int,
    fuel: int,
    mode: Mode,
) -> VerificationReport:
    """Full pipeline: VCs via vcgen, each decided by its search over its own
    variables, plus a semantic check of the whole triple.

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
