"""Deterministic random-program generation and differential test suites.

Each case derives its own seed from the base seed with a SplitMix64-style
mix, then drives a dedicated Mersenne Twister instance, so suites are pure
functions of (cases, config): same inputs, byte-identical reports.  Integer
draws call `getrandbits` as `Random.randint` and `choice` do, so the streams
are theirs, the same on CPython 3.10 to 3.13; a leaf draws inline, from
methods and bit lengths bound once per program (`_draws`).

Generated loops are biased toward progress (the loop-condition variable gets
incremented toward its limit) so that most loopy programs terminate within
the suite fuel; cases where both semantics run out of fuel are skipped as
agreement-on-divergence and reported.  Where only one side finishes, the
other is re-run with a budget bounded by the finished run's length.  A run
that repeats a configuration returns at once as if it had spent its fuel, so
a case is skipped only when each semantics either proves such a lasso or
exhausts its fuel.
"""

from __future__ import annotations

import random
from dataclasses import replace
from functools import partial
from typing import Callable

from .bigstep import FuelExhausted, Terminated, big_step
from .hoare import CounterexampleFound, Mode, Valid, check_triple, entails, verify, wp_loop_free
# Nothing here calls exec_n or steps_to_halt, but bench/tracing.py wraps both
# by name in this module, so they stay importable from it.
from .machine import Halted, MachineConfig, StopReason, StuckOrExhausted, ccomp, exec_n, execute, steps_to_halt  # noqa: F401
from .smallstep import ProgConfig, TraceStatus, star_run
from .syntax import (
    AAnd,
    ACmp,
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
    Skip,
    State,
    Var,
    While,
    node_count,
    record,
    seq_chain,
    vars_of,
)

DEFAULT_SEED = 0xC0FFEE
SUITE_FUEL = 10_000
COMPILER_FUEL_FACTOR = 16

_VAR_POOL = ("x", "y", "z", "w")


@record
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


@record
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


@record
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


def _below(bits: Callable[[int], int], n: int) -> int:
    """`Random._randbelow(n)`, n >= 1, from a bound `getrandbits`:
    `lo + _below(bits, hi - lo + 1)` draws as `randint(lo, hi)` does, and
    `s[_below(bits, len(s))]` as `choice(s)`."""
    k = n.bit_length()
    while (r := bits(k)) >= n:
        pass
    return r


def _draws(rng: random.Random, variables: tuple[str, ...], literal_range: tuple[int, int]) -> tuple:
    """`(rng.random, rng.getrandbits, lo, n, k, variables, m, j)`: a literal is
    `lo + _below(bits, n)`, a variable `variables[_below(bits, m)]`."""
    lo, hi = literal_range
    n, m = hi - lo + 1, len(variables)
    return rng.random, rng.getrandbits, lo, n, n.bit_length(), variables, m, m.bit_length()


def _leaf(d: tuple) -> "NumLit | Var":
    """An expression at depth 0, its integer drawn by `_below`'s loop inline."""
    random, bits, lo, n, k, variables, m, j = d
    if random() < 0.5:
        while (r := bits(k)) >= n:
            pass
        return NumLit(lo + r)
    while (r := bits(j)) >= m:
        pass
    return Var(variables[r])


def _aexp1(d: tuple) -> "Plus | NumLit | Var":
    return _leaf(d) if d[0]() < 0.4 else Plus(_leaf(d), _leaf(d))


def _aexp2(d: tuple) -> "Plus | NumLit | Var":
    return _leaf(d) if d[0]() < 0.4 else Plus(_aexp1(d), _aexp1(d))


def _bexp(d: tuple, depth: int) -> Assertion:
    roll = d[0]()
    if depth <= 0 or roll < 0.5:
        if d[0]() < 0.15:
            return ATrue() if d[0]() < 0.5 else AFalse()
        side = _aexp1 if depth > 0 else _leaf
        return ACmp(CmpOp.LT, side(d), side(d))
    if roll < 0.65:
        return ANot(_bexp(d, depth - 1))
    return AAnd(_bexp(d, depth - 1), _bexp(d, depth - 1))


def _assertion(d: tuple, depth: int) -> Assertion:
    roll = d[0]()
    if depth <= 0 or roll < 0.45:
        if d[0]() < 0.1:
            return ATrue() if d[0]() < 0.5 else AFalse()
        return ACmp((CmpOp.LT, CmpOp.LE, CmpOp.EQ)[_below(d[1], 3)], _aexp1(d), _aexp1(d))
    if roll < 0.55:
        return ANot(_assertion(d, depth - 1))
    args = _assertion(d, depth - 1), _assertion(d, depth - 1)
    pick = d[0]()
    return (AAnd if pick < 0.5 else AOr if pick < 0.8 else AImp)(*args)


def gen_aexp(rng: random.Random, depth: int, variables: tuple[str, ...], literal_range: tuple[int, int]) -> "Plus | NumLit | Var":
    d = _draws(rng, variables, literal_range)
    if 0 < depth < 3:
        return (_aexp1, _aexp2)[depth - 1](d)
    if depth <= 0 or d[0]() < 0.4:
        return _leaf(d)
    return Plus(gen_aexp(rng, depth - 1, variables, literal_range), gen_aexp(rng, depth - 1, variables, literal_range))


def gen_bexp(rng: random.Random, depth: int, variables: tuple[str, ...], literal_range: tuple[int, int]) -> Assertion:
    """A random condition: an assertion built from true, false, !, && and <."""
    return _bexp(_draws(rng, variables, literal_range), depth)


def _block(d: tuple, depth: int, loop_probability: float) -> list[Com]:
    count = 1 + _below(d[1], 3) if depth > 0 else 1
    return [_stmt(d, depth, loop_probability) for _ in range(count)]


def _stmt(d: tuple, depth: int, loop_probability: float) -> Com:
    random, bits, _, _, _, variables, m, _ = d
    if depth <= 0:
        return Assign(variables[_below(bits, m)], _leaf(d)) if random() < 0.8 else Skip()
    roll = random()
    if roll < loop_probability:
        return _loop(d, depth, loop_probability / 2)
    if roll < loop_probability + 0.2:
        return If(
            _bexp(d, 2),
            seq_chain(_block(d, depth - 1, loop_probability)),
            seq_chain(_block(d, depth - 1, loop_probability)),
        )
    if roll < loop_probability + 0.25:
        return Skip()
    return Assign(variables[_below(bits, m)], _aexp2(d) if depth > 1 else _aexp1(d))


def _loop(d: tuple, depth: int, body_probability: float) -> While:
    random, bits, lo, n, _, variables, m, _ = d
    if random() < 0.8:
        # Progress-biased loop: counter climbs to a literal limit, and the
        # rest of the body avoids touching the counter when it can.
        counter = variables[_below(bits, m)]
        others = tuple(v for v in variables if v != counter) or variables
        limit = NumLit(lo + _below(bits, n))
        body = _block(d[:5] + (others, len(others), len(others).bit_length()), depth - 1, body_probability)
        body.append(Assign(counter, Plus(Var(counter), NumLit(1 + _below(bits, 2)))))
        return While(ACmp(CmpOp.LT, Var(counter), limit), seq_chain(body))
    return While(_bexp(d, 2), seq_chain(_block(d, depth - 1, body_probability)))


def gen_com(cfg: GenConfig, rng: random.Random) -> Com:
    """A random command.  Sequences are always right-nested, matching the
    concrete syntax, so generated programs round-trip through the printer."""
    return seq_chain(_block(_draws(rng, cfg.variables(), cfg.literal_range), cfg.max_depth, cfg.loop_probability))


def gen_state(cfg: GenConfig, rng: random.Random) -> State:
    lo, hi = cfg.literal_range
    bits = rng.getrandbits
    return State([(name, lo + _below(bits, hi - lo + 1)) for name in cfg.variables() if rng.random() < 0.7])


def gen_assertion(rng: random.Random, depth: int, variables: tuple[str, ...], literal_range: tuple[int, int]) -> Assertion:
    return _assertion(_draws(rng, variables, literal_range), depth)


# --- suites -----------------------------------------------------------------------


def _state_text(s: State) -> str:
    return str(s) or "(all zero)"


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

    When one side finishes within the fuel and the other has not, the slow
    side is re-run with a budget derived from the run that finished; only
    mutual exhaustion is skipped.  A run of S small steps applies R big-step
    rules, where S <= 3R and R <= 3S + 1:

    - a `while` whose test holds costs 3 small steps (unfold, branch, drop
      the finished body) for its one rule, and every other rule at most 1;
    - each rule but `skip` maps to a small step of its own, each node visit
      has at most two `skip` children, and the root may be a lone `skip`.

    So 3R + 1 small steps, or 3S + 1 rules, finish the slow side wherever
    the two semantics agree, and both bounds are checked once the final
    states agree.  A run that repeats a configuration stops
    there, so a skip costs only the steps up to the first repeat where there
    is one.
    """
    trace = star_run(ProgConfig(program, initial), fuel)
    big = big_step(program, initial, fuel)
    small_done = trace.status is TraceStatus.COMPLETED
    big_done = type(big) is Terminated
    if not small_done and not big_done:
        return _SKIPPED
    if small_done and not big_done:
        big = big_step(program, initial, 3 * trace.steps_taken + 1)
        big_done = type(big) is Terminated
    elif big_done and not small_done:
        trace = star_run(ProgConfig(program, initial), 3 * big.rules_applied + 1)
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
    small, rules = trace.steps_taken, big.rules_applied
    if small > 3 * rules or rules > 3 * small + 1:
        return (
            "S small steps and R big-step rules satisfy S <= 3R and R <= 3S + 1",
            "small steps: %d; big-step rules: %d" % (small, rules),
        )
    return None


def _check_compiler(program: Com, initial: State, fuel: int):
    """The compiled program halts at the end of the code with an empty stack
    in exactly the state big_step computed.  The halting run is not replayed
    through `exec_n` or `steps_to_halt`: they read their answers off the
    same run loop as `execute`, so they could not disagree with it.

    For R big-step rules the machine runs at max(R, 1) * COMPILER_FUEL_FACTOR
    steps, then at that times 1 + node_count only where that spends its fuel:
    it is deterministic, so a halt or stuck state in the first is the second's.

    Where big_step runs out of fuel, the machine must not halt either (the
    compiler preserves non-termination).  If it stops after m steps anyway,
    big_step is re-run at (m + 1) * (1 + node_count(program)) rules: each
    loop iteration of the compiled code executes at least one backward jump,
    and a loop-free stretch of big-step visits at most node_count nodes, so
    that budget is enough for any program the machine simulates correctly.
    Only a case where both run out of fuel is skipped.
    """
    code = ccomp(program)
    start = MachineConfig(0, initial, ())
    big = big_step(program, initial, fuel)
    if type(big) is FuelExhausted:
        ran = execute(code, start, fuel)
        if type(ran) is StuckOrExhausted and ran.reason is StopReason.FUEL_EXHAUSTED:
            return _SKIPPED
        big = big_step(program, initial, (ran.steps_taken + 1) * (1 + node_count(program)))
        if type(big) is FuelExhausted:
            return "compiled code simulates the source program", f"machine halts where big-step diverges: {ran!r}"
    quick = max(big.rules_applied, 1) * COMPILER_FUEL_FACTOR
    outcome = execute(code, start, quick)
    if type(outcome) is StuckOrExhausted and outcome.reason is StopReason.FUEL_EXHAUSTED:
        outcome = execute(code, start, quick * (1 + node_count(program)))
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

HOARE_BOUND = 5
FIXTURE_BOUND = 8


def _verdict_text(v) -> str:
    t = type(v)
    if t is Valid:
        return "valid"
    if t is CounterexampleFound:
        return f"counterexample at {_state_text(v.state)}"
    return f"unknown ({v.detail})"


def suite_hoare(cases: int, cfg: GenConfig) -> SuiteResult:
    """Three property families, all at SUITE_FUEL.

    Per case: a precondition-strengthening instance and a consequence-rule
    instance over random loop-free programs, with valid triples built from
    weakest preconditions, checked at HOARE_BOUND.  On top of that, every
    annotated loop fixture must verify in total mode (all VCs valid and the
    triple semantically valid) at FIXTURE_BOUND.
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
            names = vars_of(program) | vars_of(stronger) | vars_of(weaker)
            checks = [("entails(P', P)", entails(stronger, pre, names, HOARE_BOUND))]
            if weaken:
                checks.append(("entails(Q, Q')", entails(post, weaker, names, HOARE_BOUND)))
            checks.append(("{P} c {Q}", check_triple(pre, program, post, names, HOARE_BOUND, SUITE_FUEL, Mode.TOTAL)))
            label = "{P'} c {Q'}" if weaken else "{P'} c {Q}"
            checks.append((label, check_triple(stronger, program, weaker, names, HOARE_BOUND, SUITE_FUEL, Mode.TOTAL)))
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
            FIXTURE_BOUND,
            SUITE_FUEL,
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
