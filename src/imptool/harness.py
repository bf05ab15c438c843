"""Deterministic random-program generation and differential test suites.

Each case derives its own seed from the base seed with a SplitMix64-style
mix, then drives a dedicated Mersenne Twister instance, so suites are pure
functions of (cases, config): same inputs, byte-identical reports.

Generated loops are biased toward progress (the loop-condition variable gets
incremented toward its limit) so that most loopy programs terminate within
the suite fuel; cases where both semantics run out of fuel are skipped as
agreement-on-divergence and reported.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

from .bigstep import FuelExhausted, Terminated, big_step
from .hoare import (
    AAnd,
    ACmp,
    AFalse,
    AImp,
    ANot,
    AOr,
    Assertion,
    ATrue,
    CmpOp,
    CounterexampleFound,
    Mode,
    Valid,
    assertion_vars,
    check_triple,
    entails,
    verify,
    wp_loop_free,
)
from .machine import Halted, MachineConfig, ccomp, exec_n, execute, steps_to_halt
from .smallstep import ProgConfig, TraceStatus, star_run
from .syntax import (
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
    Skip,
    State,
    Var,
    While,
    node_count,
    seq_chain,
    seq_spine,
    vars_of,
)

DEFAULT_SEED = 0xC0FFEE
SUITE_FUEL = 10_000
COMPILER_FUEL_FACTOR = 16

_VAR_POOL = ("x", "y", "z", "w")


def cross_fuel(fuel: int) -> int:
    """Fuel considered 'sufficiently large' for the other semantics when one
    side finished within `fuel`."""
    return 4 * fuel + 4


@dataclass(frozen=True)
class GenConfig:
    max_depth: int = 6
    max_vars: int = 4
    literal_range: tuple[int, int] = (-4, 4)
    loop_probability: float = 0.25
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        lo, hi = self.literal_range
        if lo > hi:
            raise ValueError("literal_range must be (lo, hi) with lo <= hi")
        if not 0.0 <= self.loop_probability <= 1.0:
            raise ValueError("loop_probability must be within [0, 1]")
        if self.max_vars < 1:
            raise ValueError("max_vars must be at least 1")

    def variables(self) -> tuple[str, ...]:
        pool = _VAR_POOL + tuple(f"v{i}" for i in range(len(_VAR_POOL), self.max_vars))
        return pool[: self.max_vars]


@dataclass(frozen=True)
class CaseFailure:
    case_index: int
    seed: int
    program_text: str
    initial_state: State
    expectation: str
    observed: str

    def to_json_dict(self) -> dict:
        return {
            "case_index": self.case_index,
            "seed": self.seed,
            "program_text": self.program_text,
            "initial_state": dict(self.initial_state.items()),
            "expectation": self.expectation,
            "observed": self.observed,
        }


@dataclass(frozen=True)
class SuiteResult:
    cases_run: int
    cases_passed: int
    cases_skipped_divergent: int
    failures: tuple[CaseFailure, ...]

    def to_json_dict(self) -> dict:
        return {
            "cases_run": self.cases_run,
            "cases_passed": self.cases_passed,
            "cases_skipped_divergent": self.cases_skipped_divergent,
            "failures": [f.to_json_dict() for f in self.failures],
        }


_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def case_seed(base: int, index: int) -> int:
    """Per-case seed: SplitMix64 finalizer over the stream position."""
    return _mix64(base + 0x9E3779B97F4A7C15 * (index + 1))


# --- generators ---------------------------------------------------------------


def gen_aexp(rng: random.Random, depth: int, variables: tuple[str, ...], literal_range: tuple[int, int]) -> "Plus | NumLit | Var":
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.5:
            return NumLit(rng.randint(*literal_range))
        return Var(rng.choice(variables))
    return Plus(
        gen_aexp(rng, depth - 1, variables, literal_range),
        gen_aexp(rng, depth - 1, variables, literal_range),
    )


def gen_bexp(rng: random.Random, depth: int, variables: tuple[str, ...], literal_range: tuple[int, int]) -> BExp:
    roll = rng.random()
    if depth <= 0 or roll < 0.5:
        if rng.random() < 0.15:
            return BoolLit(rng.random() < 0.5)
        return Less(
            gen_aexp(rng, min(depth, 1), variables, literal_range),
            gen_aexp(rng, min(depth, 1), variables, literal_range),
        )
    if roll < 0.65:
        return Not(gen_bexp(rng, depth - 1, variables, literal_range))
    return And(
        gen_bexp(rng, depth - 1, variables, literal_range),
        gen_bexp(rng, depth - 1, variables, literal_range),
    )


def gen_com(cfg: GenConfig, rng: random.Random) -> Com:
    """A random command.  Sequences are always right-nested, matching the
    concrete syntax, so generated programs round-trip through the printer."""
    return _gen_block(rng, cfg.max_depth, cfg.variables(), cfg.literal_range, cfg.loop_probability)


def _gen_block(
    rng: random.Random,
    depth: int,
    variables: tuple[str, ...],
    literal_range: tuple[int, int],
    loop_probability: float,
) -> Com:
    count = rng.randint(1, 3) if depth > 0 else 1
    return seq_chain(
        [_gen_stmt(rng, depth, variables, literal_range, loop_probability) for _ in range(count)]
    )


def _gen_assign(rng: random.Random, depth: int, variables, literal_range) -> Com:
    target = rng.choice(variables)
    return Assign(target, gen_aexp(rng, min(depth, 2), variables, literal_range))


def _gen_stmt(
    rng: random.Random,
    depth: int,
    variables: tuple[str, ...],
    literal_range: tuple[int, int],
    loop_probability: float,
) -> Com:
    if depth <= 0:
        return _gen_assign(rng, 0, variables, literal_range) if rng.random() < 0.8 else Skip()
    roll = rng.random()
    if roll < loop_probability:
        return _gen_loop(rng, depth, variables, literal_range, loop_probability)
    if roll < loop_probability + 0.2:
        return If(
            gen_bexp(rng, 2, variables, literal_range),
            _gen_block(rng, depth - 1, variables, literal_range, loop_probability),
            _gen_block(rng, depth - 1, variables, literal_range, loop_probability),
        )
    if roll < loop_probability + 0.25:
        return Skip()
    return _gen_assign(rng, depth, variables, literal_range)


def _gen_loop(
    rng: random.Random,
    depth: int,
    variables: tuple[str, ...],
    literal_range: tuple[int, int],
    loop_probability: float,
) -> Com:
    if rng.random() < 0.8:
        # Progress-biased loop: counter climbs to a literal limit, and the
        # rest of the body avoids touching the counter when it can.
        counter = rng.choice(variables)
        others = tuple(v for v in variables if v != counter) or variables
        limit = rng.randint(*literal_range)
        extra = _gen_block(rng, depth - 1, others, literal_range, loop_probability / 2)
        step = Assign(counter, Plus(Var(counter), NumLit(rng.randint(1, 2))))
        return While(Less(Var(counter), NumLit(limit)), seq_chain(seq_spine(extra) + [step]))
    return While(
        gen_bexp(rng, 2, variables, literal_range),
        _gen_block(rng, depth - 1, variables, literal_range, loop_probability / 2),
    )


def gen_state(cfg: GenConfig, rng: random.Random) -> State:
    pairs = []
    for name in cfg.variables():
        if rng.random() < 0.7:
            pairs.append((name, rng.randint(*cfg.literal_range)))
    return State(pairs)


def gen_assertion(
    rng: random.Random,
    depth: int,
    variables: tuple[str, ...],
    literal_range: tuple[int, int],
) -> Assertion:
    roll = rng.random()
    if depth <= 0 or roll < 0.45:
        inner = rng.random()
        if inner < 0.1:
            return ATrue() if rng.random() < 0.5 else AFalse()
        op = rng.choice((CmpOp.LT, CmpOp.LE, CmpOp.EQ))
        return ACmp(
            op,
            gen_aexp(rng, 1, variables, literal_range),
            gen_aexp(rng, 1, variables, literal_range),
        )
    if roll < 0.55:
        return ANot(gen_assertion(rng, depth - 1, variables, literal_range))
    args = (
        gen_assertion(rng, depth - 1, variables, literal_range),
        gen_assertion(rng, depth - 1, variables, literal_range),
    )
    pick = rng.random()
    if pick < 0.5:
        return AAnd(*args)
    if pick < 0.8:
        return AOr(*args)
    return AImp(*args)


# --- suites -----------------------------------------------------------------------


def _state_text(s: State) -> str:
    return ", ".join(f"{k}={v}" for k, v in s.items()) or "(all zero)"


# What a check returns for a case skipped as agreement on divergence; a
# passing case gives None, and a failing one the fields of its CaseFailure
# after the case index and seed.
_SKIPPED = "skipped"


def _run_cases(base_seed: int, families) -> SuiteResult:
    """The case loop of every suite.

    A family is `(stream, count, case)`: its k-th case draws from a generator
    seeded at stream position `stream + k` and returns `case(k, rng)`.  Case
    indices run on across families.
    """
    failures: list[CaseFailure] = []
    passed = skipped = index = 0
    for stream, count, case in families:
        for k in range(count):
            seed = case_seed(base_seed, stream + k)
            outcome = case(k, random.Random(seed))
            if outcome is None:
                passed += 1
            elif outcome is _SKIPPED:
                skipped += 1
            else:
                failures.append(CaseFailure(index, seed, *outcome))
            index += 1
    return SuiteResult(index, passed, skipped, tuple(failures))


def _generated(cfg: GenConfig, check: Callable[[Com, State], object]):
    """A case that runs `check(program, initial)` on a generated program and
    state.  The check returns None, _SKIPPED, or (expectation, observed)."""
    from .parser import pretty_com

    def case(k: int, rng: random.Random):
        program = gen_com(cfg, rng)
        initial = gen_state(cfg, rng)
        verdict = check(program, initial)
        if verdict is None or verdict is _SKIPPED:
            return verdict
        return (pretty_com(program), initial, *verdict)

    return case


def _check_small_big(program: Com, initial: State, fuel: int):
    """star_run and big_step agree on one program and state.

    When one side finishes and the other has not at the base fuel, the slow
    side is re-run at cross_fuel(fuel); only mutual exhaustion is skipped.
    """
    trace = star_run(ProgConfig(program, initial), fuel)
    big = big_step(program, initial, fuel)
    small_done = trace.status is TraceStatus.COMPLETED
    big_done = type(big) is Terminated
    if not small_done and not big_done:
        return _SKIPPED
    if small_done and not big_done:
        big = big_step(program, initial, cross_fuel(fuel))
        big_done = type(big) is Terminated
    elif big_done and not small_done:
        trace = star_run(ProgConfig(program, initial), cross_fuel(fuel))
        small_done = trace.status is TraceStatus.COMPLETED
    if not (small_done and big_done):
        return (
            "both semantics terminate once either does within fuel",
            "small-step terminated: %s; big-step terminated: %s" % (small_done, big_done),
        )
    if trace.last.state != big.final:
        return (
            "small-step and big-step reach the same final state",
            "small-step: %s; big-step: %s" % (_state_text(trace.last.state), _state_text(big.final)),
        )
    return None


def _check_compiler(program: Com, initial: State, fuel: int):
    """The compiled program halts at the end of the code with an empty stack
    in exactly the state big_step computed, and the exec/exec_n/steps_to_halt
    views of the run agree."""
    big = big_step(program, initial, fuel)
    if type(big) is FuelExhausted:
        return _SKIPPED
    code = ccomp(program)
    budget = max(big.rules_applied, 1) * COMPILER_FUEL_FACTOR * (1 + node_count(program))
    start = MachineConfig(0, initial, ())
    outcome = execute(code, start, budget)
    if type(outcome) is not Halted:
        problem = f"machine did not halt: {outcome!r}"
    elif outcome.final.pc != len(code):
        problem = f"halt pc {outcome.final.pc} != program length {len(code)}"
    elif outcome.final.stack != ():
        problem = f"non-empty final stack {list(outcome.final.stack)}"
    elif outcome.final.state != big.final:
        problem = "machine state %s != big-step state %s" % (
            _state_text(outcome.final.state),
            _state_text(big.final),
        )
    elif (halted_in := steps_to_halt(code, start, budget)) != outcome.steps_taken:
        problem = f"steps_to_halt {halted_in} != executed steps {outcome.steps_taken}"
    elif (replay := exec_n(code, start, outcome.steps_taken)) != outcome.final:
        problem = f"exec_n replay {replay!r} != halted config {outcome.final!r}"
    else:
        return None
    return "compiled code simulates the source program", problem


def suite_small_big(cases: int, cfg: GenConfig, fuel: int = SUITE_FUEL) -> SuiteResult:
    """Differential suite: small-step and big-step runs agree on every
    generated case (`_check_small_big`)."""
    return _run_cases(cfg.seed, [(0, cases, _generated(cfg, partial(_check_small_big, fuel=fuel)))])


def suite_compiler(cases: int, cfg: GenConfig, fuel: int = SUITE_FUEL) -> SuiteResult:
    """Differential suite: the compiled code simulates big_step on every
    generated case (`_check_compiler`)."""
    return _run_cases(cfg.seed, [(0, cases, _generated(cfg, partial(_check_compiler, fuel=fuel)))])


# --- Hoare-logic suite ---------------------------------------------------------------


def _hoare_gen_config(cfg: GenConfig) -> GenConfig:
    """Loop-free generation over a small state space keeps the bounded
    enumeration cheap and counterexamples readable."""
    return replace(
        cfg,
        max_depth=min(cfg.max_depth, 3),
        max_vars=min(cfg.max_vars, 3),
        loop_probability=0.0,
    )


LOOP_FIXTURES: tuple[tuple[str, str, str, str], ...] = (
    (
        "countdown",
        "while (0 < x) invariant (0 <= x) measure (x) { x := x + -1 }",
        "0 <= x",
        "x = 0",
    ),
    (
        "countdown-by-two",
        "while (0 < x) invariant (0 <= x + 1) measure (x + 1) { x := x + -2 }",
        "0 <= x + 1",
        "x + 1 = 0 || x + 1 = 1",
    ),
    (
        "two-variable-sum",
        "while (0 < x + y) invariant (0 <= x && 0 <= y) measure (x + y)"
        " { if (0 < x) { x := x + -1 } else { y := y + -1 } }",
        "0 <= x && 0 <= y",
        "x = 0 && y = 0",
    ),
    (
        "branching-decrement",
        "while (0 < x) invariant (0 <= x) measure (x)"
        " { if (x < 3) { x := x + -1 } else { x := x + -3 } }",
        "0 <= x",
        "x = 0",
    ),
    (
        "passenger-accumulator",
        "while (0 < x) invariant (0 <= x && 0 <= w) measure (x)"
        " { w := w + 2; x := x + -1 }",
        "0 <= x && 0 <= w",
        "x = 0",
    ),
    (
        "initialized-countdown",
        "y := 5; while (0 < y) invariant (0 <= y) measure (y) { y := y + -1 }",
        "true",
        "y = 0",
    ),
) + tuple(
    (
        f"countdown-to-{k}",
        f"while ({k} < x) invariant (0 <= x) measure (x) {{ x := x + -1 }}",
        "0 <= x",
        f"0 <= x && !({k} < x)",
    )
    for k in range(1, 4)
)

FIXTURE_BOUND = 8


def _verdict_text(v) -> str:
    t = type(v)
    if t is Valid:
        return "valid"
    if t is CounterexampleFound:
        return f"counterexample at {_state_text(v.state)}"
    return f"unknown ({v.detail})"


def suite_hoare(
    cases: int,
    cfg: GenConfig,
    bound: int = 5,
    fuel: int = SUITE_FUEL,
    fixture_bound: int = FIXTURE_BOUND,
) -> SuiteResult:
    """Three property families.

    Per case: a precondition-strengthening instance and a consequence-rule
    instance over random loop-free programs, with valid triples built from
    weakest preconditions.  On top of that, every annotated loop fixture must
    verify in total mode (all VCs valid and the triple semantically valid)
    at `fixture_bound`.
    """
    from .parser import parse_annotated_com, parse_assertion, pretty_assertion, pretty_com

    gen_cfg = _hoare_gen_config(cfg)
    variables = gen_cfg.variables()

    def triples(weaken: bool):
        """Strengthen the precondition of a valid triple built from the wp
        and, if `weaken`, also weaken its postcondition (the consequence rule)."""

        def case(k: int, rng: random.Random):
            program = gen_com(gen_cfg, rng)
            post = gen_assertion(rng, 2, variables, gen_cfg.literal_range)
            pre = wp_loop_free(program, post)
            stronger = AAnd(pre, gen_assertion(rng, 1, variables, gen_cfg.literal_range))
            weaker = AOr(post, gen_assertion(rng, 1, variables, gen_cfg.literal_range)) if weaken else post
            names = vars_of(program) | assertion_vars(stronger) | assertion_vars(weaker)
            checks = [("entails(P', P)", entails(stronger, pre, names, bound))]
            if weaken:
                checks.append(("entails(Q, Q')", entails(post, weaker, names, bound)))
            checks.append(("{P} c {Q}", check_triple(pre, program, post, names, bound, fuel, Mode.TOTAL)))
            label = "{P'} c {Q'}" if weaken else "{P'} c {Q}"
            checks.append((label, check_triple(stronger, program, weaker, names, bound, fuel, Mode.TOTAL)))
            for label, verdict in checks:
                if type(verdict) is not Valid:
                    return (
                        pretty_com(program),
                        State(),
                        "{%s} c {%s} and derived triples hold"
                        % (pretty_assertion(stronger), pretty_assertion(weaker)),
                        f"{label}: {_verdict_text(verdict)}",
                    )
            return None

        return case

    def fixture(k: int, rng: random.Random):
        name, program_text, pre_text, post_text = LOOP_FIXTURES[k]
        report = verify(
            parse_annotated_com(program_text),
            parse_assertion(pre_text),
            parse_assertion(post_text),
            fixture_bound,
            fuel,
            Mode.TOTAL,
        )
        if report.all_valid:
            return None
        broken = [
            f"{entry.label}: {_verdict_text(entry.verdict)}"
            for entry in report.vcs
            if type(entry.verdict) is not Valid
        ]
        if type(report.triple_verdict) is not Valid:
            broken.append(f"triple: {_verdict_text(report.triple_verdict)}")
        return program_text, State(), f"fixture '{name}' verifies in total mode", "; ".join(broken)

    # The fixtures' stream positions continue from the last case index.
    return _run_cases(
        cfg.seed,
        [
            (1_000_003, cases, triples(weaken=False)),
            (2_000_006, cases, triples(weaken=True)),
            (3_000_009 + 2 * cases, len(LOOP_FIXTURES), fixture),
        ],
    )
