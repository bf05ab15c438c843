"""The record contract of every frozen value class: each is a frozen slotted
dataclass whose methods come from code shared by all records of one arity."""

import copy
import dataclasses
import inspect
import pickle

import pytest

from imptool.bigstep import FuelExhausted, Terminated
from imptool.harness import CaseFailure, GenConfig, SuiteResult
from imptool.hoare import (
    CounterexampleFound,
    Mode,
    ReportEntry,
    Unknown,
    Valid,
    VcResult,
    VerificationCondition,
    VerificationReport,
)
from imptool.machine import Add, Halted, Jmp, JmpGe, JmpLess, Load, LoadI, MachineConfig, StopReason, Store, StuckOrExhausted
from imptool.smallstep import ProgConfig, StepTrace, TraceStatus
from imptool.syntax import (
    AAnd,
    ACmp,
    AFalse,
    AImp,
    ANot,
    AOr,
    Assign,
    ATrue,
    CmpOp,
    If,
    NumLit,
    Plus,
    Seq,
    Skip,
    SourceSpan,
    State,
    Var,
    While,
)

_CONFIG = MachineConfig(3, State.of(x=1), (4, 5))
_PROG = ProgConfig(Assign("x", NumLit(1)), State.of(y=2))
# Every field picklable: a builtin as the search, a class as the formula.
_VC = VerificationCondition("loop@1:1", ("x",), ATrue(), len, AFalse)
_VCS = VcResult((_VC,), _VC, ATrue)
_ENTRY = ReportEntry(_VC, Unknown("bound"))
_FAILURE = CaseFailure(1, 2, "skip", State.of(x=1), "agree", "differ")
_VC_TEXT = "VerificationCondition(label='loop@1:1', variables=('x',))"
_VCS_TEXT = f"VcResult(conditions=({_VC_TEXT},), entry={_VC_TEXT})"
_ENTRY_TEXT = f"ReportEntry(condition={_VC_TEXT}, verdict=Unknown(detail='bound'))"
_FAILURE_TEXT = (
    "CaseFailure(case_index=1, seed=2, program_text='skip', initial_state=State(x=1), expectation='agree', observed='differ')"
)

# One instance of every record class, each field other than its default, and
# its repr as the generated dataclass methods printed it.
RECORDS = (
    (NumLit(1), "NumLit(value=1)"),
    (Var("x"), "Var(name='x')"),
    (Plus(NumLit(1), Var("x")), "Plus(left=NumLit(value=1), right=Var(name='x'))"),
    (ATrue(), "ATrue()"),
    (AFalse(), "AFalse()"),
    (ACmp(CmpOp.LE, Var("x"), NumLit(2)), "ACmp(op=<CmpOp.LE: '<='>, left=Var(name='x'), right=NumLit(value=2))"),
    (ANot(ATrue()), "ANot(inner=ATrue())"),
    (AAnd(ATrue(), AFalse()), "AAnd(left=ATrue(), right=AFalse())"),
    (AOr(AFalse(), ATrue()), "AOr(left=AFalse(), right=ATrue())"),
    (AImp(ATrue(), AFalse()), "AImp(premise=ATrue(), conclusion=AFalse())"),
    (Skip(), "Skip()"),
    (Assign("x", NumLit(1)), "Assign(target='x', rhs=NumLit(value=1))"),
    (Seq(Skip(), Assign("y", Var("x"))), "Seq(first=Skip(), second=Assign(target='y', rhs=Var(name='x')))"),
    (If(ATrue(), Skip(), Skip()), "If(cond=ATrue(), then_branch=Skip(), else_branch=Skip())"),
    (
        While(ATrue(), Skip(), AFalse(), Var("x"), SourceSpan(1, 1, 1, 9)),
        "While(cond=ATrue(), body=Skip(), invariant=AFalse(), measure=Var(name='x'), "
        "span=SourceSpan(start_line=1, start_col=1, end_line=1, end_col=9))",
    ),
    (SourceSpan(1, 2, 3, 4), "SourceSpan(start_line=1, start_col=2, end_line=3, end_col=4)"),
    (Terminated(State.of(x=1), 3), "Terminated(final=State(x=1), rules_applied=3)"),
    (FuelExhausted(True), "FuelExhausted()"),
    (LoadI(3), "LoadI(value=3)"),
    (Load("x"), "Load(name='x')"),
    (Add(), "Add()"),
    (Store("y"), "Store(name='y')"),
    (Jmp(-2), "Jmp(offset=-2)"),
    (JmpLess(1), "JmpLess(offset=1)"),
    (JmpGe(2), "JmpGe(offset=2)"),
    (_CONFIG, "MachineConfig(pc=3, state=State(x=1), stack=(4, 5))"),
    (Halted(_CONFIG, 7), "Halted(final=MachineConfig(pc=3, state=State(x=1), stack=(4, 5)), steps_taken=7)"),
    (
        StuckOrExhausted(MachineConfig(0, State()), 2, StopReason.STACK_UNDERFLOW),
        "StuckOrExhausted(last=MachineConfig(pc=0, state=State(), stack=()), steps_taken=2, "
        "reason=<StopReason.STACK_UNDERFLOW: 'stack-underflow'>)",
    ),
    (_PROG, "ProgConfig(command=Assign(target='x', rhs=NumLit(value=1)), state=State(y=2))"),
    (
        StepTrace(_PROG, 4, TraceStatus.FUEL_EXHAUSTED),
        "StepTrace(last=ProgConfig(command=Assign(target='x', rhs=NumLit(value=1)), state=State(y=2)), "
        "steps_taken=4, status=<TraceStatus.FUEL_EXHAUSTED: 'fuel-exhausted'>)",
    ),
    (Valid(), "Valid()"),
    (CounterexampleFound(State.of(x=-1)), "CounterexampleFound(state=State(x=-1))"),
    (Unknown("bound"), "Unknown(detail='bound')"),
    (_VC, _VC_TEXT),
    (_VCS, _VCS_TEXT),
    (_ENTRY, _ENTRY_TEXT),
    (
        VerificationReport(Mode.TOTAL, 3, (_ENTRY,), Valid(), _VCS),
        f"VerificationReport(mode=<Mode.TOTAL: 'total'>, bound=3, vcs=({_ENTRY_TEXT},), triple_verdict=Valid(), "
        f"vc_result={_VCS_TEXT})",
    ),
    (GenConfig(2, 3, (-1, 1), 0.5, 9), "GenConfig(max_depth=2, max_vars=3, literal_range=(-1, 1), loop_probability=0.5, seed=9)"),
    (_FAILURE, _FAILURE_TEXT),
    (SuiteResult(3, 2, 1, (_FAILURE,)), f"SuiteResult(cases_run=3, cases_passed=2, cases_skipped_divergent=1, failures=({_FAILURE_TEXT},))"),
)
CLASSES = tuple(type(node) for node, _ in RECORDS)

# The doc `dataclass` wrote for each class without a docstring of its own.
DOCS = {
    NumLit: "NumLit(value: 'int')",
    Var: "Var(name: 'str')",
    Plus: "Plus(left: \"'AExp'\", right: \"'AExp'\")",
    ATrue: "ATrue()",
    AFalse: "AFalse()",
    ACmp: "ACmp(op: 'CmpOp', left: 'AExp', right: 'AExp')",
    ANot: "ANot(inner: \"'Assertion'\")",
    AAnd: "AAnd(left: \"'Assertion'\", right: \"'Assertion'\")",
    AOr: "AOr(left: \"'Assertion'\", right: \"'Assertion'\")",
    AImp: "AImp(premise: \"'Assertion'\", conclusion: \"'Assertion'\")",
    Skip: "Skip()",
    Assign: "Assign(target: 'str', rhs: 'AExp')",
    Seq: "Seq(first: \"'Com'\", second: \"'Com'\")",
    If: "If(cond: 'Assertion', then_branch: \"'Com'\", else_branch: \"'Com'\")",
    Terminated: "Terminated(final: 'State', rules_applied: 'int')",
    LoadI: "LoadI(value: 'int')",
    Load: "Load(name: 'str')",
    Add: "Add()",
    Store: "Store(name: 'str')",
    Jmp: "Jmp(offset: 'int')",
    JmpLess: "JmpLess(offset: 'int')",
    JmpGe: "JmpGe(offset: 'int')",
    MachineConfig: "MachineConfig(pc: 'int', state: 'State', stack: 'tuple[int, ...]' = ())",
    Halted: "Halted(final: 'MachineConfig', steps_taken: 'int')",
    StuckOrExhausted: "StuckOrExhausted(last: 'MachineConfig', steps_taken: 'int', reason: 'StopReason')",
    ProgConfig: "ProgConfig(command: 'Com', state: 'State')",
    StepTrace: "StepTrace(last: 'ProgConfig', steps_taken: 'int', status: 'TraceStatus')",
    Valid: "Valid()",
    CounterexampleFound: "CounterexampleFound(state: 'State')",
    Unknown: "Unknown(detail: 'str' = '')",
    ReportEntry: "ReportEntry(condition: 'VerificationCondition', verdict: 'Verdict')",
    VerificationReport: "VerificationReport(mode: 'Mode', bound: 'int', vcs: 'tuple[ReportEntry, ...]', "
    "triple_verdict: 'Verdict', vc_result: 'VcResult')",
    GenConfig: "GenConfig(max_depth: 'int' = 6, max_vars: 'int' = 4, literal_range: 'tuple[int, int]' = (-4, 4), "
    "loop_probability: 'float' = 0.25, seed: 'int' = 12648430)",
    CaseFailure: "CaseFailure(case_index: 'int', seed: 'int', program_text: 'str', initial_state: 'State', "
    "expectation: 'str', observed: 'str')",
    SuiteResult: "SuiteResult(cases_run: 'int', cases_passed: 'int', cases_skipped_divergent: 'int', "
    "failures: 'tuple[CaseFailure, ...]')",
}


def _values(node):
    return [getattr(node, f.name) for f in dataclasses.fields(node)]


@pytest.mark.parametrize(("node", "text"), RECORDS, ids=[cls.__name__ for cls in CLASSES])
def test_record_contract(node, text):
    """Fields, frozen set and delete, signature and defaults, keyword
    construction, `replace`, copies, pickles, equality over the compared
    fields and a hash equal to theirs, the repr and the doc."""
    cls, fields = type(node), dataclasses.fields(node)
    names = [f.name for f in fields]
    assert dataclasses.is_dataclass(cls) and cls.__match_args__ == tuple(names)
    assert repr(node) == text
    assert cls.__doc__ == DOCS[cls] if cls in DOCS else not cls.__doc__.startswith(f"{cls.__name__}(")
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(node, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(node, name)
    assert inspect.signature(cls) == inspect.Signature(
        [
            inspect.Parameter(
                f.name,
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
                default=inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default,
                annotation=f.type,
            )
            for f in fields
        ],
        return_annotation=None,
    )
    values = _values(node)
    built = cls(**dict(zip(names, values)))
    assert built == cls(*values) == node and all(a is b for a, b in zip(_values(built), values))
    required = [v for f, v in zip(fields, values) if f.default is dataclasses.MISSING]
    assert [getattr(cls(*required), f.name) for f in fields if f.default is not dataclasses.MISSING] == [
        f.default for f in fields if f.default is not dataclasses.MISSING
    ]
    with pytest.raises(TypeError):
        cls(*values, None)
    assert dataclasses.replace(node) == node
    if names:
        changed = dataclasses.replace(node, **{names[-1]: names[-1]})
        assert _values(changed) == [*values[:-1], names[-1]] and (changed == node) is not fields[-1].compare
    for twin in (copy.copy(node), copy.deepcopy(node), *(pickle.loads(pickle.dumps(node, p)) for p in range(2, pickle.HIGHEST_PROTOCOL + 1))):
        assert type(twin) is cls and twin == node and repr(twin) == text
        assert _values(twin) == values
    compared = tuple(v for f, v in zip(fields, values) if f.compare)
    assert hash(node) == hash(cls(*values)) == hash(compared)
    if compared:  # the last such field, which no `__post_init__` checks
        assert dataclasses.replace(node, **{[f.name for f in fields if f.compare][-1]: object()}) != node
    assert node.__eq__(compared) is NotImplemented


def test_post_init_checks_construction_and_replace():
    assert GenConfig() == GenConfig(6, 4, (-4, 4), 0.25, 0xC0FFEE)
    with pytest.raises(ValueError, match="literal_range"):
        GenConfig(literal_range=(2, 1))
    with pytest.raises(ValueError, match="max_vars"):
        dataclasses.replace(GenConfig(), max_vars=0)


def test_records_of_one_arity_share_their_code():
    """Every record's `__init__`, `__eq__`, `__hash__` and `__repr__` run the
    one code body of their arity, and all share one `__setattr__`,
    `__delattr__` and `__setstate__`: only names differ between classes."""
    assert len(set(CLASSES)) == 40
    bodies: dict[object, set] = {}
    for cls in CLASSES:
        fields = dataclasses.fields(cls)
        compared, shown = sum(f.compare for f in fields), sum(f.repr for f in fields)
        arities = {"__init__": (len(fields), hasattr(cls, "__post_init__")), "__eq__": compared, "__hash__": compared}
        for method, arity in {**arities, "__repr__": shown}.items():
            code = getattr(cls, method).__code__
            bodies.setdefault((method, arity), set()).add((code.co_code, code.co_consts))
        for method in ("__setattr__", "__delattr__", "__setstate__"):
            bodies.setdefault(method, set()).add(getattr(cls, method, None))
    assert [key for key, shared in bodies.items() if len(shared) > 1] == []


@pytest.mark.parametrize("node", [node for node, _ in RECORDS], ids=[cls.__name__ for cls in CLASSES])
def test_records_are_slotted_and_refuse_any_name(node):
    """Every record keeps its fields in slots, with no `__dict__`, and refuses to
    set or delete any name with `FrozenInstanceError`.  (A slotted frozen
    dataclass raises TypeError on a name that is not a field, from a stale
    `super(cls, self)`; an unslotted one has a `__dict__`.)"""
    cls = type(node)
    assert cls.__slots__ == cls.__match_args__ and not hasattr(node, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field 'extra'"):
        node.extra = None
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot delete field 'extra'"):
        del node.extra
