import json
import random

import pytest

import imptool.smallstep as smallstep
from conftest import gen_instrs, swapped_small_step
from imptool.harness import (
    COMPILER_FUEL_FACTOR,
    DEFAULT_SEED,
    FIXTURE_BOUND,
    GenConfig,
    LOOP_FIXTURES,
    SUITE_FUEL,
    case_seed,
    cross_fuel,
    gen_aexp,
    gen_assertion,
    gen_bexp,
    gen_com,
    gen_state,
    suite_compiler,
    suite_hoare,
    suite_small_big,
)
from imptool.hoare import Mode, verify
from imptool.parser import parse_annotated_com, parse_asm, parse_assertion, parse_com, pretty_asm, pretty_com
from imptool.syntax import Assign, Seq, Skip, vars_of


def rng_for(index, seed=DEFAULT_SEED):
    return random.Random(case_seed(seed, index))


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

    def test_cross_fuel(self):
        assert cross_fuel(10) == 44
        assert cross_fuel(0) == 4


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
        monkeypatch.setattr(smallstep, "small_step", swapped_small_step)
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
