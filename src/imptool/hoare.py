"""Hoare-logic tooling for IMP: evaluable assertions, weakest preconditions
for loop-free code, verification conditions, and bounded semantic checking
of triples.

There is one command type, `Com`: a `While` node carries its own optional
invariant and measure, which `vcgen` reads and every semantics ignores.
`wp_loop_free` and `vcgen` share one weakest-precondition walk and differ
only in what they do at a loop.

Assertions are quantifier-free formulas over program variables, evaluated
directly on states.  Entailment and triple validity are decided by
exhaustively enumerating states within a bound, so a Valid verdict always
means valid-within-bound and a counterexample is always a genuine state.
The bound must be non-negative.

Each check compiles every assertion it evaluates once, into a Python lambda
over the enumerated values (Feeley & Lapalme, "Using closures for code
generation", 1987), and enumerates plain value tuples; a State is built only
where one is needed.  Formulas too large or too deeply nested for CPython's
compiler are evaluated by `eval_assertion`, which remains the reference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Union

from .bigstep import Terminated, big_step
from .syntax import (
    AExp,
    And,
    Assign,
    BExp,
    BoolLit,
    Com,
    If,
    Less,
    Not,
    NumLit,
    Plus,
    Seq,
    Skip,
    State,
    Var,
    While,
    aval,
    seq_chain,
    seq_spine,
    vars_of,
)

if TYPE_CHECKING:
    from .parser import SourceSpan

# Snapshot variables introduced by total-correctness VCs use this prefix;
# the parser rejects it in user programs so they can never collide.
SNAPSHOT_PREFIX = "__z"

# Entailment refuses to enumerate more states than this.
ENUMERATION_LIMIT = 10**7

# Assertions within both limits are compiled to Python source; larger ones
# are evaluated by walking the tree.  Compiling costs time in proportion to
# the formula's size, which a check whose premise rarely holds never earns
# back, and CPython's tokenizer rejects source nested more than 200
# parentheses deep (generated source nests at most two per level).
_CODEGEN_MAX_NODES = 2048
_CODEGEN_MAX_DEPTH = 50


# --- assertions -----------------------------------------------------------------


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


def assertion_vars(a: Assertion) -> set[str]:
    """Identifiers occurring in an assertion."""
    seen: set[str] = set()
    stack: list[Assertion] = [a]
    while stack:
        node = stack.pop()
        t = type(node)
        if t is ACmp:
            seen |= vars_of(node.left)
            seen |= vars_of(node.right)
        elif t is ANot:
            stack.append(node.inner)
        elif t is AAnd or t is AOr:
            stack.append(node.left)
            stack.append(node.right)
        elif t is AImp:
            stack.append(node.premise)
            stack.append(node.conclusion)
    return seen


def bexp_to_assertion(b: BExp) -> Assertion:
    """The assertion holding exactly where the boolean expression is true."""
    t = type(b)
    if t is BoolLit:
        return ATrue() if b.value else AFalse()
    if t is Not:
        return ANot(bexp_to_assertion(b.inner))
    if t is And:
        return AAnd(bexp_to_assertion(b.left), bexp_to_assertion(b.right))
    if t is Less:
        return ACmp(CmpOp.LT, b.left, b.right)
    raise TypeError(f"not a boolean expression: {b!r}")


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


def _enumerated_names(variables: Iterable[str], bound: int) -> Optional[list[str]]:
    """The sorted names a check enumerates, or None when their state space
    exceeds the enumeration limit."""
    if bound < 0:
        raise ValueError(f"bound must be non-negative, got {bound}")
    names = sorted(set(variables))
    return names if state_space_size(names, bound) <= ENUMERATION_LIMIT else None


def _satisfying(test: Callable[..., bool], arity: int, bound: int) -> Iterator[tuple[int, ...]]:
    """The value tuples on which `test` holds, in enumeration order."""
    return itertools.compress(
        _value_tuples(arity, bound), itertools.starmap(test, _value_tuples(arity, bound))
    )


# --- compiled assertions ---------------------------------------------------------


_CMP_SOURCE = {CmpOp.LT: "<", CmpOp.LE: "<=", CmpOp.EQ: "=="}


def _fits_codegen(a: Assertion) -> bool:
    """Whether `a` is small and shallow enough to compile.

    One iterative pass counts every node, arithmetic included, and measures
    the nesting of the generated source: a chain of one connective (and the
    conclusions of an implication chain) is emitted flat, and so is all
    arithmetic, so only a change of connective nests.  Literals must be
    plain ints.
    """
    nodes = 0
    stack: list[tuple[object, int]] = [(a, 1)]  # depth 0: an arithmetic node
    while stack:
        node, depth = stack.pop()
        nodes += 1
        if nodes > _CODEGEN_MAX_NODES or depth > _CODEGEN_MAX_DEPTH:
            return False
        t = type(node)
        if depth == 0:
            if t is Plus:
                stack.append((node.left, 0))
                stack.append((node.right, 0))
            elif not (t is Var or (t is NumLit and type(node.value) is int)):
                return False
        elif t is ACmp:
            if node.op not in _CMP_SOURCE:
                return False
            stack.append((node.left, 0))
            stack.append((node.right, 0))
        elif t is ANot:
            stack.append((node.inner, depth + (type(node.inner) is not ANot)))
        elif t is AAnd or t is AOr:
            stack.append((node.left, depth + (type(node.left) is not t)))
            stack.append((node.right, depth + (type(node.right) is not t)))
        elif t is AImp:
            stack.append((node.premise, depth + 1))
            stack.append((node.conclusion, depth + (type(node.conclusion) is not AImp)))
        elif not (t is ATrue or t is AFalse):
            return False
    return True


def _sum_source(a: AExp, slots: dict[str, str]) -> str:
    """A `+` tree as one flat sum: its literals folded into a constant and each
    variable once, times its multiplicity.  Unlisted variables read 0."""
    constant = 0
    counts: dict[str, int] = {}
    stack = [a]
    while stack:
        node = stack.pop()
        t = type(node)
        if t is Plus:
            stack.append(node.right)
            stack.append(node.left)
        elif t is Var:
            slot = slots.get(node.name)
            if slot is not None:
                counts[slot] = counts.get(slot, 0) + 1
        else:
            constant += node.value
    terms = [slot if k == 1 else f"{k} * {slot}" for slot, k in counts.items()]
    if constant or not terms:
        terms.append(str(constant))
    return " + ".join(terms)


def _source(a: Assertion, slots: dict[str, str]) -> str:
    """Python source true exactly where `a` holds.  Recurses only where the
    connective changes, so its depth is what `_fits_codegen` measured."""
    t = type(a)
    if t is ATrue:
        return "True"
    if t is AFalse:
        return "False"
    if t is ACmp:
        return f"{_sum_source(a.left, slots)} {_CMP_SOURCE[a.op]} {_sum_source(a.right, slots)}"
    if t is ANot:
        negated = False
        while type(a) is ANot:
            a, negated = a.inner, not negated
        return f"not ({_source(a, slots)})" if negated else _source(a, slots)
    if t is AImp:
        parts = []
        while type(a) is AImp:
            parts.append(f"not ({_source(a.premise, slots)})")
            a = a.conclusion
        parts.append(f"({_source(a, slots)})")
        return " or ".join(parts)
    parts = []
    stack = [a]
    while stack:
        node = stack.pop()
        if type(node) is t:
            stack.append(node.right)
            stack.append(node.left)
        else:
            parts.append(f"({_source(node, slots)})")
    return (" and " if t is AAnd else " or ").join(parts)


def _walker(a: Assertion, names: list[str]) -> Callable[..., bool]:
    return lambda *values: eval_assertion(a, State(zip(names, values)))


def _predicate(template: str, names: list[str], *assertions: Assertion) -> Callable[..., bool]:
    """A predicate over the values of `names`, in order: `template` with each
    `{}` replaced by the next assertion's source, compiled once.  An
    assertion too large to compile is evaluated by `eval_assertion`."""
    params = ", ".join(f"_{i}" for i in range(len(names)))
    slots = {name: f"_{i}" for i, name in enumerate(names)}
    env: dict[str, object] = {"__builtins__": {}}
    sources = []
    for a in assertions:
        if _fits_codegen(a):
            sources.append(_source(a, slots))
        else:
            walker = f"_walk{len(sources)}"
            env[walker] = _walker(a, names)
            sources.append(f"{walker}({params})")
    code = compile(f"lambda {params}: {template.format(*sources)}", "<assertion>", "eval")
    return eval(code, env)


def entails(p: Assertion, q: Assertion, variables: Iterable[str], bound: int) -> Verdict:
    """Does p entail q on every enumerated state?

    Returns the first falsifying state in enumeration order, or Unknown when
    the state space would exceed the enumeration limit.  Raises ValueError
    on a negative bound.
    """
    names = _enumerated_names(variables, bound)
    if names is None:
        return Unknown(f"state space exceeds {ENUMERATION_LIMIT} states")
    falsified = _predicate("({}) and not ({})", names, p, q)
    first = next(_satisfying(falsified, len(names), bound), None)
    if first is not None:
        return CounterexampleFound(State(zip(names, first)))
    return Valid()


def check_valid(formula: Assertion, variables: Iterable[str], bound: int) -> Verdict:
    """Validity of a formula over the enumerated states."""
    return entails(ATrue(), formula, variables, bound)


# --- weakest preconditions ----------------------------------------------------------


def _wp(c: Com, post: Assertion, loop: Callable[[While, Assertion], Assertion]) -> Assertion:
    """Weakest precondition of `c` for `post`; each loop's precondition is
    whatever `loop(node, post)` returns."""
    t = type(c)
    if t is Skip:
        return post
    if t is Assign:
        return subst_assertion(post, c.target, c.rhs)
    if t is Seq:
        for part in reversed(seq_spine(c)):
            post = _wp(part, post, loop)
        return post
    if t is If:
        cond = bexp_to_assertion(c.cond)
        return AAnd(
            AImp(cond, _wp(c.then_branch, post, loop)),
            AImp(ANot(cond), _wp(c.else_branch, post, loop)),
        )
    if t is While:
        return loop(c, post)
    raise TypeError(f"not a command: {c!r}")


def _no_loops(c: While, post: Assertion) -> Assertion:
    raise ValueError("wp_loop_free: command contains a while loop")


def wp_loop_free(c: Com, post: Assertion) -> Assertion:
    """Weakest precondition of a loop-free command.

    Raises ValueError if the command contains a while loop.
    """
    return _wp(c, post, _no_loops)


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


# --- verification conditions -------------------------------------------------------------


class Mode(Enum):
    PARTIAL = "partial"
    TOTAL = "total"


class MissingAnnotationError(Exception):
    def __init__(self, message: str, span: "Optional[SourceSpan]" = None) -> None:
        if span is not None:
            message = f"{span.start_line}:{span.start_col}: {message}"
        super().__init__(message)
        self.span = span


@dataclass(frozen=True, slots=True)
class VerificationCondition:
    label: str
    formula: Assertion


@dataclass(frozen=True)
class VcResult:
    conditions: tuple[VerificationCondition, ...]
    precondition: Assertion


def vcgen(c: Com, post: Assertion, mode: Mode) -> VcResult:
    """Verification conditions and computed precondition for a command whose
    loops carry annotations, against a postcondition.

    Every loop needs an invariant; in total mode also a measure.  Each loop
    in total mode gets a fresh snapshot variable `__z0`, `__z1`, ... that
    freezes the measure across one body iteration.
    """
    conditions: list[VerificationCondition] = []
    counters = {"snapshot": 0, "loop": 0}

    def loop(node: While, post: Assertion) -> Assertion:
        ordinal = counters["loop"]
        counters["loop"] += 1
        if node.span is not None:
            label = f"loop@{node.span.start_line}:{node.span.start_col}"
        else:
            label = f"loop#{ordinal}"
        inv = node.invariant
        if inv is None:
            raise MissingAnnotationError(
                f"{label}: loop needs an invariant annotation", node.span
            )
        cond = bexp_to_assertion(node.cond)
        if mode is Mode.TOTAL:
            if node.measure is None:
                raise MissingAnnotationError(
                    f"{label}: total-correctness check needs a measure annotation",
                    node.span,
                )
            snapshot = Var(f"{SNAPSHOT_PREFIX}{counters['snapshot']}")
            counters["snapshot"] += 1
            body_post = AAnd(inv, ACmp(CmpOp.LT, node.measure, snapshot))
            body_pre = _wp(node.body, body_post, loop)
            conditions.append(
                VerificationCondition(
                    f"{label}: invariant preserved and measure decreases",
                    AImp(
                        AAnd(AAnd(inv, cond), ACmp(CmpOp.EQ, node.measure, snapshot)),
                        body_pre,
                    ),
                )
            )
            conditions.append(
                VerificationCondition(
                    f"{label}: measure non-negative",
                    AImp(inv, ACmp(CmpOp.LE, NumLit(0), node.measure)),
                )
            )
        else:
            body_pre = _wp(node.body, inv, loop)
            conditions.append(
                VerificationCondition(
                    f"{label}: invariant preserved",
                    AImp(AAnd(inv, cond), body_pre),
                )
            )
        conditions.append(
            VerificationCondition(
                f"{label}: exit establishes postcondition",
                AImp(AAnd(inv, ANot(cond)), post),
            )
        )
        return inv

    precondition = _wp(c, post, loop)
    return VcResult(tuple(conditions), precondition)


# --- semantic triple checking ---------------------------------------------------------------


def check_triple(
    pre_assertion: Assertion,
    command: Com,
    post_assertion: Assertion,
    variables: Iterable[str],
    bound: int,
    fuel: int,
    mode: Mode = Mode.PARTIAL,
) -> Verdict:
    """Check a triple semantically by running the command from every
    enumerated initial state satisfying the precondition.

    In partial mode fuel exhaustion is never a counterexample, only tallied;
    in total mode termination within fuel is part of the claim.  Raises
    ValueError on a negative bound.
    """
    names = _enumerated_names(variables, bound)
    if names is None:
        return Unknown(f"state space exceeds {ENUMERATION_LIMIT} states")
    pre_holds = _predicate("{}", names, pre_assertion)
    post_names = sorted(assertion_vars(post_assertion))
    post_holds = _predicate("{}", post_names, post_assertion)
    exhausted = 0
    for values in _satisfying(pre_holds, len(names), bound):
        s = State(zip(names, values))
        outcome = big_step(command, s, fuel)
        if type(outcome) is Terminated:
            if not post_holds(*map(outcome.final.read, post_names)):
                return CounterexampleFound(s)
        elif mode is Mode.TOTAL:
            return CounterexampleFound(s)
        else:
            exhausted += 1
    if exhausted:
        return Unknown(f"{exhausted} initial state(s) ran out of fuel")
    return Valid()


# --- verification reports ---------------------------------------------------------------------


@dataclass(frozen=True)
class ReportEntry:
    label: str
    formula: Assertion
    verdict: Verdict


@dataclass(frozen=True)
class VerificationReport:
    mode: Mode
    bound: int
    precondition: Assertion
    vcs: tuple[ReportEntry, ...]
    triple_verdict: Verdict

    @property
    def all_valid(self) -> bool:
        return all(type(entry.verdict) is Valid for entry in self.vcs) and (
            type(self.triple_verdict) is Valid
        )

    def to_json_dict(self) -> dict:
        from .parser import pretty_assertion

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


def verify(
    command: Com,
    precondition: Assertion,
    postcondition: Assertion,
    bound: int,
    fuel: int,
    mode: Mode,
) -> VerificationReport:
    """Full pipeline: VCs via vcgen, each checked by bounded entailment, plus
    a semantic check of the whole triple.

    The first report entry checks that the stated precondition establishes
    the computed one; each VC is checked over its own variables, so snapshot
    variables are enumerated where they occur.
    """
    result = vcgen(command, postcondition, mode)
    entries = [
        ReportEntry(
            "entry: precondition establishes computed precondition",
            AImp(precondition, result.precondition),
            entails(
                precondition,
                result.precondition,
                assertion_vars(precondition) | assertion_vars(result.precondition),
                bound,
            ),
        )
    ]
    for vc in result.conditions:
        entries.append(
            ReportEntry(vc.label, vc.formula, check_valid(vc.formula, assertion_vars(vc.formula), bound))
        )
    triple_vars = vars_of(command) | assertion_vars(precondition) | assertion_vars(postcondition)
    triple = check_triple(precondition, command, postcondition, triple_vars, bound, fuel, mode)
    return VerificationReport(mode, bound, result.precondition, tuple(entries), triple)
