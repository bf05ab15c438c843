"""Shared hypothesis strategies over the language ASTs.

Command strategies only build right-nested Seq spines, matching what the
concrete syntax can express; round-trip tests rely on that.
"""

from hypothesis import strategies as st

from imptool.hoare import AAnd, ACmp, AFalse, AImp, ANot, AOr, ATrue, CmpOp
from imptool.syntax import (
    And,
    Assign,
    BoolLit,
    If,
    Less,
    NumLit,
    Not,
    Plus,
    Seq,
    Skip,
    State,
    Var,
    While,
)

names = st.sampled_from(("x", "y", "z", "w"))
small_ints = st.integers(min_value=-6, max_value=6)


def aexps(max_leaves: int = 12):
    return st.recursive(
        st.builds(NumLit, small_ints) | st.builds(Var, names),
        lambda sub: st.builds(Plus, sub, sub),
        max_leaves=max_leaves,
    )


def bexps(max_leaves: int = 12):
    atoms = st.builds(BoolLit, st.booleans()) | st.builds(Less, aexps(4), aexps(4))
    return st.recursive(
        atoms,
        lambda sub: st.builds(Not, sub) | st.builds(And, sub, sub),
        max_leaves=max_leaves,
    )


def assertions(max_leaves: int = 10):
    atoms = (
        st.just(ATrue())
        | st.just(AFalse())
        | st.builds(ACmp, st.sampled_from(tuple(CmpOp)), aexps(4), aexps(4))
    )
    return st.recursive(
        atoms,
        lambda sub: st.builds(ANot, sub)
        | st.builds(AAnd, sub, sub)
        | st.builds(AOr, sub, sub)
        | st.builds(AImp, sub, sub),
        max_leaves=max_leaves,
    )


def _seq_chain(stmts):
    node = stmts[-1]
    for stmt in reversed(stmts[:-1]):
        node = Seq(stmt, node)
    return node


def coms(max_leaves: int = 10, loops: bool = True, annotated: bool = False):
    """Random commands; loops=False keeps every program terminating.

    annotated=True gives some loops an invariant, and some of those a measure
    too (the concrete syntax has no measure without an invariant).
    """
    base = st.just(Skip()) | st.builds(Assign, names, aexps(6))
    annotations = st.just((None, None))
    if annotated:
        annotations = annotations | st.tuples(assertions(4), st.none() | aexps(4))

    def compound(sub):
        block = st.lists(sub, min_size=1, max_size=3).map(_seq_chain)
        out = st.builds(If, bexps(6), block, block)
        if loops:
            out = out | st.builds(
                lambda cond, body, ann: While(cond, body, *ann), bexps(6), block, annotations
            )
        return out

    return st.recursive(base, compound, max_leaves=max_leaves)


def states():
    return st.dictionaries(names, small_ints, max_size=4).map(
        lambda d: State(d.items())
    )
