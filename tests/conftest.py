"""Shared test helpers: hypothesis strategies over the language ASTs, a
random instruction-list generator, and a swapped-branch mutant of the
small-step semantics.

Command strategies only build right-nested Seq spines, matching what the
concrete syntax can express; round-trip tests rely on that.
"""

from hypothesis import strategies as st

from imptool.hoare import AAnd, ACmp, AFalse, AImp, ANot, AOr, ATrue, CmpOp
from imptool.machine import Add, Jmp, JmpGe, JmpLess, Load, LoadI, Store
from imptool.smallstep import ProgConfig
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
    aval,
    bval,
    seq_chain,
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
        block = st.lists(sub, min_size=1, max_size=3).map(seq_chain)
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


def swapped_small_step(cfg):
    """`smallstep.small_step` with the If rule taking the wrong branch: a
    mutant that the differential suites must catch.  Patch it over
    `smallstep.small_step`."""
    c, s, ctx = cfg.command, cfg.state, []
    while type(c) is Seq and type(c.first) is not Skip:
        ctx.append(c.second)
        c = c.first
    t = type(c)
    if t is Skip:
        return None
    if t is Seq:
        inner = c.second
    elif t is Assign:
        s = s.update(c.target, aval(c.rhs, s))
        inner = Skip()
    elif t is If:
        inner = c.else_branch if bval(c.cond, s) else c.then_branch
    else:
        inner = If(c.cond, Seq(c.body, c), Skip())
    for second in reversed(ctx):
        inner = Seq(inner, second)
    return ProgConfig(inner, s)


def gen_instrs(rng, length, variables=("x", "y", "z", "w")):
    """A random instruction list (not necessarily a sensible program)."""
    makers = (
        lambda: LoadI(rng.randint(-9, 9)),
        lambda: Load(rng.choice(variables)),
        Add,
        lambda: Store(rng.choice(variables)),
        lambda: Jmp(rng.randint(-8, 8)),
        lambda: JmpLess(rng.randint(-8, 8)),
        lambda: JmpGe(rng.randint(-8, 8)),
    )
    return [makers[rng.randrange(7)]() for _ in range(length)]
