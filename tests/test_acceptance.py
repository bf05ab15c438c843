"""Acceptance gate: every go/no-go property at its contractual scale.

Each test prints exactly one PASS/FAIL line on the real stdout so the
verdicts stay visible under pytest's capture.  Tolerances (case counts,
fuel, bounds, wall-clock budgets) are part of the criteria and must not
be reduced to make a red line green.
"""

import random
import time
from itertools import islice

import pytest

import imptool.smallstep as smallstep
from conftest import gen_instrs, swap_branches
from imptool.bigstep import FuelExhausted, Terminated, big_step
from imptool.harness import (
    DEFAULT_SEED,
    FIXTURE_BOUND,
    GenConfig,
    HOARE_BOUND,
    LOOP_FIXTURES,
    SUITE_FUEL,
    case_seed,
    gen_aexp,
    gen_assertion,
    gen_com,
    gen_state,
    suite_compiler,
    suite_hoare,
    suite_small_big,
)
from imptool.hoare import eval_assertion, subst_assertion
from imptool.machine import MachineConfig, ccomp, exec_n, execute, steps_to_halt, Halted
from imptool.parser import parse_asm, parse_com, pretty_asm, pretty_com
from imptool.smallstep import ProgConfig, small_step, small_steps, star_run, TraceStatus
from imptool.syntax import Skip, aval, node_count

_MODULE_T0 = time.perf_counter()


@pytest.fixture
def report(capsys):
    """Run one criterion and print its verdict on the uncaptured stdout."""

    def _report(name, check):
        try:
            check()
        except BaseException:
            with capsys.disabled():
                print(f"\nFAIL: {name}", flush=True)
            raise
        with capsys.disabled():
            print(f"\nPASS: {name}", flush=True)

    return _report


def _case(base, index):
    rng = random.Random(case_seed(base, index))
    cfg = GenConfig()
    return gen_com(cfg, rng), gen_state(cfg, rng), rng


def test_small_big_equivalence_suite(report):
    def check():
        t0 = time.perf_counter()
        res = suite_small_big(1000, GenConfig(), SUITE_FUEL)
        elapsed = time.perf_counter() - t0
        assert res.failures == (), res.failures[:1]
        assert res.cases_run == 1000
        assert res.cases_skipped_divergent < 500
        assert elapsed < 30.0, f"took {elapsed:.1f}s"

    report("small-step and big-step agree on 1000 random programs", check)


def test_one_step_then_big_step_continues(report):
    def check():
        checked = 0
        index = 0
        while checked < 1000:
            assert index < 3000, "generator produced too few usable configs"
            c, s, _ = _case(DEFAULT_SEED + 1, index)
            index += 1
            if type(c) is Skip:
                continue  # final configs have no step to take
            direct = big_step(c, s, SUITE_FUEL)
            if type(direct) is FuelExhausted:
                continue  # divergent within fuel, same skip rule as the suite
            stepped = small_step(ProgConfig(c, s))
            after = big_step(stepped.command, stepped.state, 4 * SUITE_FUEL + 4)
            assert type(after) is Terminated
            assert after.final == direct.final, pretty_com(c)
            checked += 1

    report("stepping once and then running big-step preserves the result (1000 configs)", check)


def test_compiler_correctness_suite(report):
    def check():
        t0 = time.perf_counter()
        res = suite_compiler(1000, GenConfig(), SUITE_FUEL)
        elapsed = time.perf_counter() - t0
        assert res.failures == (), res.failures[:1]
        assert res.cases_run == 1000
        assert elapsed < 30.0, f"took {elapsed:.1f}s"

    report("compiled code reproduces big-step results on 1000 programs", check)


def test_counted_execution_matches_halting_run(report):
    def check():
        checked = 0
        index = 0
        while checked < 1000:
            assert index < 3000, "generator produced too few terminating cases"
            c, s, _ = _case(DEFAULT_SEED + 2, index)
            index += 1
            big = big_step(c, s, SUITE_FUEL)
            if type(big) is FuelExhausted:
                continue
            code = ccomp(c)
            fuel = big.rules_applied * 16 * (1 + node_count(c))
            start = MachineConfig(0, s)
            outcome = execute(code, start, fuel)
            assert type(outcome) is Halted, (pretty_com(c), outcome)
            n = steps_to_halt(code, start, fuel)
            assert n == outcome.steps_taken
            assert exec_n(code, start, n) == outcome.final
            checked += 1

    report("steps_to_halt is a faithful witness for exec over 1000 halting runs", check)


def test_hoare_families_and_loop_fixtures(report):
    def check():
        assert (HOARE_BOUND, FIXTURE_BOUND) == (5, 8)
        res = suite_hoare(200, GenConfig())
        assert res.failures == (), res.failures[:1]
        assert res.cases_run == 400 + len(LOOP_FIXTURES)
        assert len(LOOP_FIXTURES) >= 5
        names = [name for name, *_ in LOOP_FIXTURES]
        assert "countdown" in names

    report(
        "precondition-strengthening and consequence families (200 each, bound 5)"
        " plus total-mode loop fixtures (bound 8) all verify",
        check,
    )


def test_big_step_determinism_suite(report):
    def check():
        for index in range(500):
            c, s, _ = _case(DEFAULT_SEED + 3, index)
            first = big_step(c, s, SUITE_FUEL)
            assert big_step(c, s, SUITE_FUEL) == first
            if type(first) is Terminated:
                richer = big_step(c, s, 4 * SUITE_FUEL + 4)
                assert richer == first

    report("big-step results are unique per (program, state) over 500 cases", check)


def test_small_step_determinism_suite(report):
    def check():
        for index in range(500):
            c, s, _ = _case(DEFAULT_SEED + 4, index)
            configs = list(islice(small_steps(ProgConfig(c, s)), 201))
            for before, after in zip(configs, configs[1:]):
                assert small_step(before) == after
            trace = star_run(ProgConfig(c, s), 200)
            assert trace.last == configs[-1]
            assert trace.steps_taken == len(configs) - 1
            if trace.status is TraceStatus.COMPLETED:
                assert small_step(configs[-1]) is None

    report("small-step successors are unique along 500 random traces", check)


def test_parser_round_trips(report):
    def check():
        cfg = GenConfig()
        for index in range(1000):
            rng = random.Random(case_seed(DEFAULT_SEED + 5, index))
            c = gen_com(cfg, rng)
            assert parse_com(pretty_com(c)) == c, pretty_com(c)
        for index in range(200):
            rng = random.Random(case_seed(DEFAULT_SEED + 6, index))
            prog = gen_instrs(rng, rng.randint(0, 30))
            assert parse_asm(pretty_asm(prog)) == prog

    report("1000 programs and 200 instruction lists survive parse-pretty round trips", check)


def test_substitution_lemma_suite(report):
    def check():
        cfg = GenConfig()
        variables = cfg.variables()
        for index in range(500):
            rng = random.Random(case_seed(DEFAULT_SEED + 7, index))
            assertion = gen_assertion(rng, 3, variables, cfg.literal_range)
            name = rng.choice(variables + ("fresh",))
            replacement = gen_aexp(rng, 3, variables, cfg.literal_range)
            s = gen_state(cfg, rng)
            substituted = eval_assertion(subst_assertion(assertion, name, replacement), s)
            updated = eval_assertion(assertion, s.update(name, aval(replacement, s)))
            assert substituted == updated, (assertion, name, replacement, s)

    report("substitution commutes with state update on 500 random assertions", check)


def test_mutation_sanity_branch_swap_is_caught(report, monkeypatch):
    def check():
        # case seeds are per-index, so a shorter run is an exact prefix of the
        # 1000-case run; a failure inside the prefix is a failure within 1000
        monkeypatch.setattr(smallstep, "_focuses", swap_branches(smallstep._focuses))
        failures = 0
        for cases in (100, 1000):
            res = suite_small_big(cases, GenConfig(), SUITE_FUEL)
            failures = len(res.failures)
            if failures:
                break
        assert failures >= 1, "suite failed to notice swapped branches"

    report("the differential suite detects a swapped-branch interpreter within 1000 cases", check)


def test_total_acceptance_runtime_budget(report):
    def check():
        elapsed = time.perf_counter() - _MODULE_T0
        assert elapsed < 120.0, f"acceptance run took {elapsed:.1f}s"

    report("all acceptance suites finish inside the 120 s budget", check)
