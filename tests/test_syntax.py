import ast
import copy
import dataclasses
import inspect
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

import imptool.parser
import imptool.syntax
from conftest import aexps, assertions, bexps, coms, names, reference_assertion_vars, reference_aval, small_ints, states
from imptool.bigstep import big_step
from imptool.hoare import Mode, check_triple, erase, vcgen
from imptool.machine import Jmp, JmpGe, JmpLess, Load, LoadI, MachineConfig, Store, ccomp
from imptool.parser import parse_assertion
from imptool.smallstep import ProgConfig, star_run
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
    aval,
    bval,
    linear,
    node_count,
    vars_of,
)


class TestState:
    def test_empty_reads_zero(self):
        assert State().read("x") == 0

    def test_of_builds_bindings(self):
        s = State.of(x=1, y=-2)
        assert s.read("x") == 1
        assert s.read("y") == -2
        assert s.read("z") == 0

    def test_zero_bindings_normalize_away(self):
        # equality must be agreement on every identifier
        assert State.of(x=0) == State()
        assert State.of(x=1, y=0) == State.of(x=1)
        assert State.of(x=0).bound_names() == frozenset()

    def test_update_is_persistent(self):
        s = State.of(x=1)
        t = s.update("x", 2)
        assert s.read("x") == 1
        assert t.read("x") == 2

    def test_update_last_write_wins(self):
        s = State().update("x", 1).update("x", 2)
        assert s == State.of(x=2)
        assert s.bound_names() == frozenset({"x"})

    def test_update_to_zero_unbinds(self):
        s = State.of(x=3).update("x", 0)
        assert s == State()
        assert s.bound_names() == frozenset()

    def test_items_sorted_by_name(self):
        s = State.of(z=1, a=2, m=3)
        assert s.items() == (("a", 2), ("m", 3), ("z", 1))

    def test_repr_is_stable(self):
        assert repr(State.of(y=2, x=1)) == "State(x=1, y=2)"
        assert repr(State()) == "State()"

    @given(states(), names, small_ints)
    def test_read_after_update(self, s, x, v):
        t = s.update(x, v)
        assert t.read(x) == v

    @given(states(), names, names, small_ints)
    def test_update_preserves_other_names(self, s, x, y, v):
        if x == y:
            return
        assert s.update(x, v).read(y) == s.read(y)

    @given(states(), states())
    def test_equality_is_extensional(self, s, t):
        same = all(
            s.read(n) == t.read(n) for n in s.bound_names() | t.bound_names()
        )
        assert (s == t) == same
        if s == t:
            assert hash(s) == hash(t)


AVAL_CASES = [
    (NumLit(7), State(), 7),
    (Var("x"), State.of(x=2), 2),
    (Var("missing"), State(), 0),
    (Plus(NumLit(1), Var("x")), State.of(x=2), 3),
    (Plus(Plus(Var("x"), Var("x")), NumLit(-1)), State.of(x=4), 7),
]


@pytest.mark.parametrize("expr,state,expected", AVAL_CASES)
def test_aval_golden(expr, state, expected):
    assert aval(expr, state) == expected


BVAL_CASES = [
    (ATrue(), State(), True),
    (AFalse(), State.of(x=9), False),
    (ACmp(CmpOp.LT, NumLit(1), NumLit(2)), State(), True),
    (ACmp(CmpOp.LT, NumLit(2), NumLit(2)), State(), False),
    (ANot(ATrue()), State(), False),
    (AAnd(ATrue(), ACmp(CmpOp.LT, Var("x"), NumLit(1))), State(), True),
    (AAnd(ANot(AFalse()), ACmp(CmpOp.LT, Var("x"), NumLit(0))), State.of(x=-1), True),
]


@pytest.mark.parametrize("expr,state,expected", BVAL_CASES)
def test_bval_golden(expr, state, expected):
    assert bval(expr, state) == expected


@given(aexps(), states())
def test_aval_total_and_repeatable(a, s):
    v = aval(a, s)
    assert isinstance(v, int)
    assert aval(a, s) == v


@given(bexps(), states())
def test_bval_total_and_repeatable(b, s):
    v = bval(b, s)
    assert isinstance(v, bool)
    assert bval(b, s) == v


@given(aexps(), states())
def test_aval_matches_reference(a, s):
    assert aval(a, s) == reference_aval(a, s)


def test_aval_of_a_long_sum():
    # 50,000 terms nested to the left, far past the interpreter's recursion limit
    a = Var("x")
    for _ in range(50_000):
        a = Plus(a, NumLit(1))
    assert aval(a, State.of(x=-7)) == 49_993


@given(aexps(), states())
def test_linear_form_denotes_the_expression(a, s):
    constant, terms = linear(a)
    assert aval(a, s) == constant + sum(k * s.read(x) for x, k in terms)
    assert all(k >= 1 for _, k in terms)
    assert len({x for x, _ in terms}) == len(terms)
    # names in left-to-right order of first occurrence
    assert [x for x, _ in terms] == list(dict.fromkeys(leaf.name for leaf in _leaves(a) if type(leaf) is Var))


def _leaves(a):
    return _leaves(a.left) + _leaves(a.right) if type(a) is Plus else [a]


def test_linear_golden():
    a = Plus(Plus(Var("y"), NumLit(2)), Plus(Var("x"), Plus(Var("y"), NumLit(-5))))
    assert linear(a) == (-3, (("y", 2), ("x", 1)))
    assert linear(NumLit(4)) == (4, ())
    with pytest.raises(TypeError, match="not an arithmetic expression"):
        linear(Plus(Var("x"), ATrue()))


@pytest.mark.parametrize("nest_left", [True, False], ids=["left-nested", "right-nested"])
def test_linear_of_a_long_sum(nest_left):
    # 5,000 terms, far past the interpreter's recursion limit either way
    terms = [Var("y"), Var("x")] + [NumLit(1)] * 4_998
    a = terms[0] if nest_left else terms[-1]
    for term in terms[1:] if nest_left else reversed(terms[:-1]):
        a = Plus(a, term) if nest_left else Plus(term, a)
    assert linear(a) == (4_998, (("y", 1), ("x", 1)))


@given(aexps(), states(), small_ints)
def test_aval_depends_only_on_its_variables(a, s, v):
    # writing a variable the expression never mentions cannot change its value
    before = aval(a, s)
    assert aval(a, s.update("unrelated", v)) == before


@given(bexps(), states())
def test_bval_matches_restriction_to_own_variables(b, s):
    restricted = State((n, s.read(n)) for n in vars_of(b))
    assert bval(b, restricted) == bval(b, s)


# Tests no condition denotes: no type separates them from programs, so every
# semantics must reject them alike.
OUT_OF_LANGUAGE = [
    ACmp(CmpOp.LE, Var("x"), NumLit(1)),
    ACmp(CmpOp.EQ, Var("x"), NumLit(0)),
    AOr(ATrue(), AFalse()),
    AImp(AFalse(), ATrue()),
]


@pytest.mark.parametrize("test", OUT_OF_LANGUAGE, ids=["le", "eq", "or", "imp"])
@pytest.mark.parametrize("loop", [False, True], ids=["if", "while"])
@pytest.mark.parametrize(
    "run",
    [
        lambda c: big_step(c, State(), 100),
        lambda c: star_run(ProgConfig(c, State()), 100),
        ccomp,
        lambda c: check_triple(ATrue(), c, ATrue(), {"x"}, 1, 100),
        lambda c: vcgen(c, ATrue(), Mode.PARTIAL),
    ],
    ids=["big_step", "star_run", "ccomp", "check_triple", "vcgen"],
)
def test_a_test_outside_the_condition_language_is_rejected(run, loop, test):
    # the loop carries an invariant for vcgen; every semantics ignores it
    c = While(test, Skip(), ATrue()) if loop else If(test, Skip(), Skip())
    with pytest.raises(TypeError, match="not a condition"):
        run(c)


def test_vars_of_golden():
    assert vars_of(Skip()) == frozenset()
    assert vars_of(Assign("x", Plus(Var("y"), NumLit(1)))) == {"x", "y"}
    loop = While(ACmp(CmpOp.LT, Var("i"), NumLit(3)), Assign("i", Plus(Var("i"), NumLit(1))))
    assert vars_of(loop) == {"i"}
    branch = If(ATrue(), Assign("a", NumLit(0)), Seq(Skip(), Assign("b", Var("c"))))
    assert vars_of(branch) == {"a", "b", "c"}


def test_node_count_golden():
    assert node_count(Skip()) == 1
    assert node_count(Assign("x", NumLit(1))) == 2
    assert node_count(Seq(Skip(), Skip())) == 3
    loop = While(ACmp(CmpOp.LT, Var("i"), NumLit(3)), Assign("i", Plus(Var("i"), NumLit(1))))
    assert node_count(loop) == 8


@given(st.one_of(aexps(), bexps()))
def test_node_count_positive(node):
    assert node_count(node) >= 1


# One instance of every class whose `__init__` comes from `slot_inits`, each
# field set to a value other than its default.
SLOT_INIT_NODES = (
    NumLit(1),
    Var("x"),
    Plus(NumLit(1), Var("x")),
    ACmp(CmpOp.LE, Var("x"), NumLit(2)),
    ANot(ATrue()),
    AAnd(ATrue(), AFalse()),
    AOr(AFalse(), ATrue()),
    AImp(ATrue(), AFalse()),
    Assign("x", NumLit(1)),
    Seq(Skip(), Assign("y", Var("x"))),
    If(ATrue(), Skip(), Skip()),
    While(ATrue(), Skip(), AFalse(), Var("x"), SourceSpan(1, 1, 1, 9)),
    LoadI(3),
    Load("x"),
    Store("y"),
    Jmp(-2),
    JmpLess(1),
    JmpGe(2),
    MachineConfig(3, State.of(x=1), (4, 5)),
)


@pytest.mark.parametrize("node", SLOT_INIT_NODES, ids=lambda node: type(node).__name__)
def test_ast_nodes_are_immutable(node):
    """A node built through its slots' descriptors keeps every part of the
    dataclass contract: frozen fields, the generated signature and defaults,
    keyword construction, `replace`, copying, pickling, equality and hash."""
    cls, fields = type(node), dataclasses.fields(node)
    assert "_a0" in cls.__init__.__code__.co_names  # the slot_inits __init__
    values = {f.name: getattr(node, f.name) for f in fields}
    for name in values:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
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
    assert cls(**values) == cls(*values.values()) == node
    required = [getattr(node, f.name) for f in fields if f.default is dataclasses.MISSING]
    assert all(getattr(cls(*required), f.name) == f.default for f in fields if f.default is not dataclasses.MISSING)
    with pytest.raises(TypeError):
        cls(*values.values(), None)
    assert dataclasses.replace(node) == node
    assert copy.copy(node) == node
    assert pickle.loads(pickle.dumps(node)) == node
    compared = tuple(getattr(node, f.name) for f in fields if f.compare)
    assert hash(node) == hash(cls(*values.values())) == hash(compared)
    assert node != cls(*[object() for _ in values])


def test_keywords_and_defaults_of_a_loop_and_a_machine_configuration():
    span = SourceSpan(2, 3, 4, 5)
    loop = While(ATrue(), Skip(), span=span)
    assert (loop.invariant, loop.measure, loop.span) == (None, None, span)
    assert loop == While(ATrue(), Skip()) and hash(loop) == hash(While(ATrue(), Skip()))
    assert dataclasses.replace(loop, body=Seq(Skip(), Skip())).span is span
    assert MachineConfig(0, State()) == MachineConfig(pc=0, state=State(), stack=())


class TestOneWalk:
    """`vars_of` and `node_count` read one child table for every node class."""

    @given(assertions())
    def test_vars_of_an_assertion_matches_the_reference(self, a):
        assert vars_of(a) == reference_assertion_vars(a)

    def test_node_count_of_an_assertion(self):
        assert node_count(parse_assertion("x < 1 && !true")) == 6
        assert node_count(parse_assertion("x <= y -> false || z = 0 + w")) == 11

    @given(coms(annotated=True))
    def test_a_loop_annotation_is_not_walked(self, c):
        assert vars_of(c) == vars_of(erase(c))
        assert node_count(c) == node_count(erase(c))

    def test_a_non_node_is_a_type_error(self):
        with pytest.raises(TypeError, match="not an IMP syntax node: 3"):
            vars_of(Seq(Skip(), 3))


def _imported_modules(module):
    """The modules `module`'s source imports, relative ones as `.name`."""
    tree = ast.parse(inspect.getsource(module))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module is None:
            found.update("." * node.level + alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add("." * node.level + node.module)
        elif isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
    return found


def test_syntax_imports_no_other_module_of_the_package():
    assert not {m for m in _imported_modules(imptool.syntax) if m.startswith((".", "imptool"))}


def test_parser_does_not_import_the_verifier():
    assert not _imported_modules(imptool.parser) & {".hoare", "imptool.hoare"}
