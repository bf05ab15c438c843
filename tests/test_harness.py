import gc
import hashlib
import json
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import imptool.smallstep as smallstep
from conftest import (
    coms,
    gen_instrs,
    mutant,
    reference_gen_aexp,
    reference_gen_assertion,
    reference_gen_bexp,
    reference_gen_com,
    reference_gen_state,
    states,
    swap_branches,
)
from imptool import bigstep, harness
from imptool.bigstep import Terminated, big_step
from imptool.harness import (
    COMPILER_FUEL_FACTOR,
    DEFAULT_SEED,
    FIXTURE_BOUND,
    GenConfig,
    LOOP_FIXTURES,
    SUITE_FUEL,
    case_seed,
    gen_aexp,
    gen_assertion,
    gen_bexp,
    gen_com,
    gen_state,
    suite_compiler,
    suite_hoare,
    suite_small_big,
    _SKIPPED,
    _check_compiler,
    _check_small_big,
    _hoare_gen_config,
)
from imptool.hoare import Mode, verify, wp_loop_free
from imptool.machine import Jmp, MachineConfig, StopReason, ccomp, execute
from imptool.parser import (
    parse_annotated_com,
    parse_asm,
    parse_assertion,
    parse_com,
    pretty_asm,
    pretty_assertion,
    pretty_com,
)
from imptool.smallstep import ProgConfig, TraceStatus, star_run
from imptool.syntax import Assign, Seq, Skip, State, node_count, vars_of


def rng_for(index, seed=DEFAULT_SEED):
    return random.Random(case_seed(seed, index))


# Generator configs: literal ranges of one value, of a power of two values and
# wide ones, one to eight variables, depth 0 and up, and loop probabilities
# at and between 0 and 1.
gen_configs = st.builds(
    GenConfig,
    max_depth=st.integers(min_value=0, max_value=6),
    max_vars=st.integers(min_value=1, max_value=8),
    literal_range=st.sampled_from(((3, 3), (-4, 3), (-1000, 7)))
    | st.tuples(st.integers(-1000, 1000), st.integers(0, 1100)).map(lambda t: (t[0], t[0] + t[1])),
    loop_probability=st.sampled_from((0.0, 1.0)) | st.floats(min_value=0.0, max_value=1.0),
)


class TestGenConfig:
    def test_defaults(self):
        cfg = GenConfig()
        assert cfg.max_depth == 6
        assert cfg.max_vars == 4
        assert cfg.literal_range == (-4, 4)
        assert cfg.loop_probability == 0.25
        assert cfg.seed == DEFAULT_SEED

    def test_variable_pool_extends_past_four(self):
        assert GenConfig(max_vars=2).variables() == ("x", "y")
        assert GenConfig(max_vars=6).variables() == ("x", "y", "z", "w", "v4", "v5")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"literal_range": (3, -3)},
            {"loop_probability": -0.1},
            {"loop_probability": 1.5},
            {"max_vars": 0},
        ],
    )
    def test_rejects_bad_configs(self, kwargs):
        with pytest.raises(ValueError):
            GenConfig(**kwargs)


class TestSeeds:
    def test_case_seed_is_pure(self):
        assert case_seed(1, 0) == case_seed(1, 0)

    def test_case_seeds_spread(self):
        seeds = {case_seed(DEFAULT_SEED, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_nearby_bases_diverge(self):
        assert case_seed(1, 0) != case_seed(2, 0)


class TestGenerators:
    def test_fixed_seed_gives_identical_programs(self):
        cfg = GenConfig(seed=42)
        texts = [
            pretty_com(gen_com(cfg, rng_for(i, 42))) for i in range(20)
        ]
        again = [
            pretty_com(gen_com(cfg, rng_for(i, 42))) for i in range(20)
        ]
        assert texts == again

    def test_depth_zero_gives_single_statement(self):
        cfg = GenConfig(max_depth=0)
        for i in range(50):
            c = gen_com(cfg, rng_for(i))
            assert type(c) in (Skip, Assign)

    def test_programs_use_only_configured_variables(self):
        cfg = GenConfig(max_vars=2)
        for i in range(50):
            c = gen_com(cfg, rng_for(i))
            assert vars_of(c) <= set(cfg.variables())

    def test_sequences_are_right_nested(self):
        cfg = GenConfig()
        for i in range(200):
            todo = [gen_com(cfg, rng_for(i))]
            while todo:
                node = todo.pop()
                if type(node) is Seq:
                    assert type(node.first) is not Seq
                    todo += [node.first, node.second]
                elif hasattr(node, "body"):
                    todo.append(node.body)
                elif hasattr(node, "then_branch"):
                    todo += [node.then_branch, node.else_branch]

    def test_generated_programs_round_trip(self):
        cfg = GenConfig()
        for i in range(200):
            c = gen_com(cfg, rng_for(i))
            assert parse_com(pretty_com(c)) == c

    def test_gen_state_respects_pool_and_range(self):
        cfg = GenConfig(max_vars=3, literal_range=(-2, 2))
        for i in range(50):
            s = gen_state(cfg, rng_for(i))
            assert s.bound_names() <= set(cfg.variables())
            assert all(-2 <= v <= 2 for _, v in s.items())

    def test_gen_instrs_round_trip(self):
        for i in range(50):
            rng = rng_for(i)
            prog = gen_instrs(rng, rng.randint(0, 25))
            assert parse_asm(pretty_asm(prog)) == prog

    def test_generated_programs_are_pinned(self):
        # the text of the first 1000 programs at the default seed
        text = "\n".join(pretty_com(gen_com(GenConfig(), rng_for(k))) for k in range(1000))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "4c6ee5733f8253679f750dc1895e20a7b3b02515cd4675ae7fa9397e19b04066"
        )

    def test_generated_programs_and_states_are_pinned_off_the_defaults(self):
        # the text of 500 programs and their initial states at a config whose
        # every generator parameter differs from the default
        cfg = GenConfig(max_depth=4, max_vars=6, literal_range=(-2, 3), loop_probability=0.6)
        lines = []
        for k in range(500):
            rng = rng_for(k)
            lines.append(pretty_com(gen_com(cfg, rng)) + " | " + str(gen_state(cfg, rng)))
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "26e285451dd3a6297369927a3c78b5c3633d72b81c1a4af84bf45ef900181cfc"
        )

    def test_generation_leaves_no_reference_cycles(self):
        # garbage in a cycle, and the rng it holds, lives until the cyclic
        # collector runs, which then runs several times as often
        cfg = GenConfig()
        variables = cfg.variables()
        gc.collect()
        gc.disable()
        try:
            for k in range(20):
                rng = rng_for(k)
                gen_com(cfg, rng)
                gen_state(cfg, rng)
                gen_aexp(rng, 3, variables, cfg.literal_range)
                gen_bexp(rng, 3, variables, cfg.literal_range)
                gen_assertion(rng, 3, variables, cfg.literal_range)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @given(gen_configs, st.integers(min_value=0, max_value=2**64 - 1))
    @example(GenConfig(literal_range=(3, 3)), 0)
    @example(GenConfig(literal_range=(-1000, 7)), 1)
    @example(GenConfig(max_vars=1), 2)
    @example(GenConfig(max_vars=8), 3)
    @example(GenConfig(max_depth=0), 4)
    @example(GenConfig(max_depth=1), 7)
    @example(GenConfig(max_depth=2), 8)
    @example(GenConfig(max_vars=2), 9)
    @example(GenConfig(max_vars=3), 10)
    @example(GenConfig(loop_probability=0.0), 5)
    @example(GenConfig(loop_probability=1.0), 6)
    def test_draws_are_those_of_randint_and_choice(self, cfg, seed):
        # every generator gives what the randint/choice reference gives, and
        # leaves its generator in the same state
        rng, ref = random.Random(seed), random.Random(seed)
        assert gen_com(cfg, rng) == reference_gen_com(cfg, ref)
        assert gen_state(cfg, rng) == reference_gen_state(cfg, ref)
        assert rng.getstate() == ref.getstate()
        args = (min(cfg.max_depth, 4), cfg.variables(), cfg.literal_range)
        for gen, reference in (
            (gen_aexp, reference_gen_aexp),
            (gen_bexp, reference_gen_bexp),
            (gen_assertion, reference_gen_assertion),
        ):
            assert gen(rng, *args) == reference(ref, *args)
            assert rng.getstate() == ref.getstate()

    @given(st.randoms(use_true_random=False))
    def test_hypothesis_randoms_still_drive_generation(self, rng):
        cfg = GenConfig(max_depth=3)
        program, initial = gen_com(cfg, rng), gen_state(cfg, rng)
        assert parse_com(pretty_com(program)) == program
        assert initial.bound_names() <= set(cfg.variables())

    def test_weakest_preconditions_are_pinned(self):
        # 1000 loop-free programs and postconditions drawn as the hoare suite
        # draws them, each with the text of its weakest precondition
        cfg = _hoare_gen_config(GenConfig())
        lines = []
        for k in range(1000):
            rng = rng_for(1_000_003 + k)
            p = gen_com(cfg, rng)
            post = gen_assertion(rng, 2, cfg.variables(), cfg.literal_range)
            lines.append(pretty_com(p) + " | " + pretty_assertion(wp_loop_free(p, post)))
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "08b3a06a4c8ae5685c85e76dc0b3dce52307f3e465e50bfdec6504ab3531d098"
        )

    def test_expression_generators_are_deterministic(self):
        variables = ("x", "y")
        for gen in (gen_aexp, gen_bexp):
            assert gen(rng_for(3), 3, variables, (-4, 4)) == gen(
                rng_for(3), 3, variables, (-4, 4)
            )
        assert gen_assertion(rng_for(3), 3, variables, (-4, 4)) == gen_assertion(
            rng_for(3), 3, variables, (-4, 4)
        )


class TestSmallBigSuite:
    def test_default_config_run(self):
        res = suite_small_big(150, GenConfig())
        assert res.cases_run == 150
        assert res.failures == ()
        assert res.cases_passed + res.cases_skipped_divergent == 150
        assert res.cases_skipped_divergent < 75

    def test_straight_line_corpus_never_skips(self):
        res = suite_small_big(100, GenConfig(loop_probability=0.0))
        assert res.cases_passed == 100
        assert res.cases_skipped_divergent == 0

    def test_depth_zero_corpus(self):
        res = suite_small_big(50, GenConfig(max_depth=0))
        assert res.cases_passed == 50

    def test_report_is_reproducible(self):
        first = suite_small_big(60, GenConfig())
        second = suite_small_big(60, GenConfig())
        assert json.dumps(first.to_json_dict()) == json.dumps(second.to_json_dict())

    def test_mutation_is_detected(self, monkeypatch):
        monkeypatch.setattr(smallstep, "_focuses", swap_branches(smallstep._focuses))
        res = suite_small_big(200, GenConfig())
        assert res.failures
        failure = res.failures[0].to_json_dict()
        assert set(failure) == {
            "case_index",
            "seed",
            "program_text",
            "initial_state",
            "expectation",
            "observed",
        }
        # the offending program must reproduce from its recorded seed
        rng = random.Random(failure["seed"])
        assert pretty_com(gen_com(GenConfig(), rng)) == failure["program_text"]


class TestRerunBudget:
    """The slow side of a small-big case is re-run for 3 * (the other side's
    length) + 1 steps or rules."""

    def test_a_lone_skip_at_no_fuel(self):
        # No small step and one rule: a budget of 3 * 0 rules would fail it.
        assert _check_small_big(Skip(), State(), 0) is None

    @given(coms(), states())
    def test_steps_and_rules_bound_each_other(self, c, s):
        trace = star_run(ProgConfig(c, s), 2_000)
        big = big_step(c, s, 2_000)
        if trace.status is TraceStatus.COMPLETED and type(big) is Terminated:
            assert trace.steps_taken <= 3 * big.rules_applied
            assert big.rules_applied <= 3 * trace.steps_taken + 1

    @given(coms(), states(), st.integers(min_value=0, max_value=40))
    def test_no_case_fails_at_any_fuel(self, c, s, fuel):
        assert _check_small_big(c, s, fuel) in (None, _SKIPPED)

    # A chain of n skips takes n - 1 small steps and 2n - 1 rules, so one more
    # rule per `Seq` meets R <= 3S + 1 exactly and only two more break it.  A
    # loop pass whose test holds takes 4 small steps here and 2 rules, so with
    # its `while` rule uncounted S > 3R.
    @pytest.mark.parametrize(
        "old, new, text, steps, rules",
        [
            ("todo.append(node.second)", "todo.append(node.second)\n            count += 2", "skip; skip", 1, 5),
            (
                "if bval(node.cond, state):",
                "if bval(node.cond, state):\n                count -= 1",
                "while (x < 5) { x := x + 1 }",
                22,
                6,
            ),
        ],
        ids=["three-rules-per-seq", "loop-test-uncounted"],
    )
    def test_bounds_catch_a_miscounting_big_step(self, monkeypatch, old, new, text, steps, rules):
        program = parse_com(text)
        assert _check_small_big(program, State(), SUITE_FUEL) is None
        monkeypatch.setattr(harness, "big_step", mutant(bigstep.big_step, old, new))
        assert _check_small_big(program, State(), SUITE_FUEL) == (
            "S small steps and R big-step rules satisfy S <= 3R and R <= 3S + 1",
            f"small steps: {steps}; big-step rules: {rules}",
        )


class TestCompilerSuite:
    def test_default_config_run(self):
        res = suite_compiler(150, GenConfig())
        assert res.failures == ()
        assert res.cases_passed + res.cases_skipped_divergent == 150

    def test_straight_line_corpus_all_pass(self):
        res = suite_compiler(100, GenConfig(loop_probability=0.0))
        assert res.cases_passed == 100
        assert res.cases_skipped_divergent == 0

    def test_fuel_factor_is_generous(self):
        assert COMPILER_FUEL_FACTOR >= 8

    def test_same_divergent_cases_as_small_big(self):
        # both suites consult big_step with the same per-case fuel
        a = suite_small_big(120, GenConfig())
        b = suite_compiler(120, GenConfig())
        assert a.cases_skipped_divergent == b.cases_skipped_divergent


class TestCompilerBudget:
    """The machine runs at max(R, 1) * COMPILER_FUEL_FACTOR steps for R
    big-step rules, and again at that times 1 + node_count(program) only
    where the first run spends its fuel."""

    # One rule; its code is 40 instructions, all of them run.
    SUM = parse_com("x := " + " + ".join(["1"] * 20))

    def test_code_longer_than_the_first_budget_passes(self):
        start = MachineConfig(0, State(), ())
        assert big_step(self.SUM, State(), SUITE_FUEL).rules_applied == 1
        assert execute(ccomp(self.SUM), start, COMPILER_FUEL_FACTOR).reason is StopReason.FUEL_EXHAUSTED
        assert _check_compiler(self.SUM, State(), SUITE_FUEL) is None

    def test_code_that_never_halts_reports_the_larger_budget(self, monkeypatch):
        # A jump to itself after the real code: the report is the run at
        # 16 * (1 + node_count) = 656 steps, as with one budget.
        compile_com = harness.ccomp
        monkeypatch.setattr(harness, "ccomp", lambda c: compile_com(c) + [Jmp(-1)])
        assert COMPILER_FUEL_FACTOR * (1 + node_count(self.SUM)) == 656
        assert _check_compiler(self.SUM, State(), SUITE_FUEL) == (
            "compiled code simulates the source program",
            "machine did not halt: StuckOrExhausted(last=MachineConfig(pc=40, state=State(x=20), stack=()),"
            " steps_taken=656, reason=<StopReason.FUEL_EXHAUSTED: 'fuel-exhausted'>)",
        )


class TestHoareSuite:
    def test_small_run_spans_families_and_fixtures(self):
        res = suite_hoare(10, GenConfig())
        assert res.cases_run == 2 * 10 + len(LOOP_FIXTURES)
        assert res.failures == ()
        assert res.cases_passed == res.cases_run

    def test_reproducible(self):
        a = suite_hoare(5, GenConfig())
        b = suite_hoare(5, GenConfig())
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


class TestLoopFixtures:
    def test_enough_fixtures(self):
        assert len(LOOP_FIXTURES) >= 5
        names = [name for name, *_ in LOOP_FIXTURES]
        assert "countdown" in names
        assert len(set(names)) == len(names)

    def test_every_fixture_has_invariant_and_measure(self):
        for _, program_text, _, _ in LOOP_FIXTURES:
            assert "invariant (" in program_text
            assert "measure (" in program_text

    def test_countdown_verifies_totally(self):
        name, program_text, pre, post = LOOP_FIXTURES[0]
        assert name == "countdown"
        report = verify(
            parse_annotated_com(program_text),
            parse_assertion(pre),
            parse_assertion(post),
            FIXTURE_BOUND,
            SUITE_FUEL,
            Mode.TOTAL,
        )
        assert report.all_valid
