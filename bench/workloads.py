"""The benchmark's three workloads: seeded inputs, one batch of calls into
imptool's public API, and the check of every outcome.

A workload is split into batches.  `run_batch(inputs, i, tick)` makes the
calls of batch `i`, times them, and checks their results; the checks run
outside the timed regions.  `tick` is called between timed regions, where
the runner samples the machine's speed.  Batch `i` depends only on the seed and `i`, so rerunning a
batch must reproduce its signature (the deterministic counts it returned).

Every imptool function is called through this module's globals, so the traced
pass can replace them here with timing wrappers (see tracing.py).
"""

from __future__ import annotations

import itertools
import random
import re
import statistics
import time
from dataclasses import dataclass, field

from imptool import (
    CounterexampleFound,
    GenConfig,
    Halted,
    MachineConfig,
    Mode,
    ProgConfig,
    State,
    Terminated,
    TraceStatus,
    Valid,
    big_step,
    ccomp,
    erase,
    eval_assertion,
    execute,
    parse_annotated_com,
    parse_assertion,
    parse_com,
    star_run,
    suite_compiler,
    suite_hoare,
    suite_small_big,
    vars_of,
    verify,
)
from imptool.harness import LOOP_FIXTURES, SUITE_FUEL

clock = time.perf_counter

# Fuel for the long runs: far above what any longrun program needs, so an
# exhausted run is a wrong outcome rather than a budget choice.
LONG_FUEL = 10**8


@dataclass(frozen=True)
class Sizes:
    """Input sizes.  FULL is what the benchmark measures; TINY keeps the smoke
    test fast."""

    small_big_cases: int = 100
    compiler_cases: int = 300
    hoare_cases: int = 10
    verify_bound: int = 20
    k_ifs: int = 12
    loop_iterations: int = 8_000
    source_bytes: int = 120_000


FULL = Sizes()
TINY = Sizes(
    small_big_cases=4,
    compiler_cases=8,
    hoare_cases=1,
    verify_bound=4,
    k_ifs=3,
    loop_iterations=40,
    source_bytes=3_000,
)


@dataclass
class BatchResult:
    seconds: float  # sum of the timed regions
    scaled_s: float = 0.0  # `seconds` at the reference speed, set by the runner
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    signature: list = field(default_factory=list)  # deterministic counts
    parts: dict[str, float] = field(default_factory=dict)  # seconds per part
    work: dict[str, int] = field(default_factory=dict)  # units of work per part
    call_ms: list[float] = field(default_factory=list)  # per verify() call

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


def sub_seed(seed: int, label: str, index: int = 0) -> int:
    """A seed for one input, derived from the workload seed."""
    return random.Random(f"{seed}:{label}:{index}").getrandbits(62)


def _no_tick() -> None:
    pass


def verdict_name(v) -> str:
    return type(v).__name__


# --- differential ---------------------------------------------------------------


@dataclass(frozen=True)
class DifferentialInputs:
    seed: int
    sizes: Sizes


def build_differential(seed: int, sizes: Sizes) -> DifferentialInputs:
    return DifferentialInputs(seed, sizes)


def run_differential(inputs: DifferentialInputs, index: int, tick=_no_tick) -> BatchResult:
    sizes = inputs.sizes
    cfg_sb = GenConfig(seed=sub_seed(inputs.seed, "small_big", index))
    cfg_c = GenConfig(seed=sub_seed(inputs.seed, "compiler", index))
    t0 = clock()
    sb = suite_small_big(sizes.small_big_cases, cfg_sb, SUITE_FUEL)
    t1 = clock()
    tick()
    t2 = clock()
    comp = suite_compiler(sizes.compiler_cases, cfg_c, SUITE_FUEL)
    t3 = clock()
    out = BatchResult(t1 - t0 + t3 - t2, parts={"small_big": t1 - t0, "compiler": t3 - t2})
    out.work = {"small_big": sb.cases_run, "compiler": comp.cases_run}
    for name, result, cases in (("small_big", sb, sizes.small_big_cases), ("compiler", comp, sizes.compiler_cases)):
        out.attempted += result.cases_run
        out.failed += len(result.failures)
        out.errors += [f"{name} case {f.case_index}: {f.observed}" for f in result.failures]
        out.check(result.cases_run == cases, f"{name}: ran {result.cases_run} of {cases} cases")
        out.signature.append([name, result.cases_run, result.cases_passed, result.cases_skipped_divergent])
    return out


# --- verify -------------------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    name: str
    annotated: object
    pre: object
    post: object
    expect_valid: bool
    expect_cex: State | None  # first counterexample of the triple, if invalid


@dataclass(frozen=True)
class VerifyInputs:
    seed: int
    sizes: Sizes
    jobs: tuple[Job, ...]


_IDENT = re.compile(r"[A-Za-z_]\w*")


def _assertion_names(text: str) -> set[str]:
    return set(_IDENT.findall(text)) - {"true", "false"}


def _first_state_satisfying(pre, names: set[str], bound: int) -> State:
    """First state in the verifier's enumeration order (sorted names, values
    ascending from -bound) that satisfies `pre`."""
    ordered = sorted(names)
    for combo in itertools.product(range(-bound, bound + 1), repeat=len(ordered)):
        s = State(zip(ordered, combo))
        if eval_assertion(pre, s):
            return s
    raise ValueError("precondition is unsatisfiable within the bound")


def _sequential_ifs(seed: int, k: int, bound: int) -> tuple[str, str, str]:
    """k sequential ifs: wp copies the postcondition into both branches of
    each, so the computed precondition has 2**k copies of it."""
    rng = random.Random(seed)
    stmts = []
    most = 0
    for _ in range(k):
        c, a, b = rng.randint(-bound, bound), rng.randint(1, 3), rng.randint(1, 3)
        most += max(a, b)
        stmts.append(f"if (x < {c}) {{ y := y + {a} }} else {{ z := z + {b} }}")
    return "; ".join(stmts), "y = 0 && z = 0", f"0 <= y && 0 <= z && y + z <= {most}"


def build_verify(seed: int, sizes: Sizes) -> VerifyInputs:
    jobs = []
    for name, program, pre_text, post_text in LOOP_FIXTURES:
        annotated = parse_annotated_com(program)
        pre = parse_assertion(pre_text)
        jobs.append(Job(name, annotated, pre, parse_assertion(post_text), True, None))
        # The negated postcondition fails on every terminating run, so the
        # triple's first counterexample is the first state satisfying pre.
        names = vars_of(erase(annotated)) | _assertion_names(pre_text) | _assertion_names(post_text)
        cex = _first_state_satisfying(pre, names, sizes.verify_bound)
        jobs.append(Job(f"{name}/invalid", annotated, pre, parse_assertion(f"!({post_text})"), False, cex))
    program, pre_text, post_text = _sequential_ifs(sub_seed(seed, "ifs"), sizes.k_ifs, sizes.verify_bound)
    jobs.append(
        Job(f"sequential-ifs-{sizes.k_ifs}", parse_annotated_com(program), parse_assertion(pre_text),
            parse_assertion(post_text), True, None)
    )
    return VerifyInputs(seed, sizes, tuple(jobs))


def run_verify(inputs: VerifyInputs, index: int, tick=_no_tick) -> BatchResult:
    sizes = inputs.sizes
    cfg = GenConfig(seed=sub_seed(inputs.seed, "hoare", index))
    t0 = clock()
    suite = suite_hoare(sizes.hoare_cases, cfg)
    t1 = clock()
    reports = []
    call_ms = []
    for job in inputs.jobs:
        tick()
        start = clock()
        reports.append(verify(job.annotated, job.pre, job.post, sizes.verify_bound, SUITE_FUEL, Mode.TOTAL))
        call_ms.append((clock() - start) * 1000.0)
    jobs_s = sum(call_ms) / 1000.0
    out = BatchResult(t1 - t0 + jobs_s, parts={"suite": t1 - t0, "jobs": jobs_s}, call_ms=call_ms)
    out.work = {"suite": suite.cases_run, "jobs": len(inputs.jobs)}
    out.attempted += suite.cases_run
    out.failed += len(suite.failures)
    out.errors += [f"hoare case {f.case_index}: {f.observed}" for f in suite.failures]
    out.signature.append(["hoare", suite.cases_run, suite.cases_passed])
    for job, report in zip(inputs.jobs, reports):
        triple = report.triple_verdict
        if job.expect_valid:
            ok = report.all_valid and type(triple) is Valid
        else:
            ok = (not report.all_valid) and type(triple) is CounterexampleFound and triple.state == job.expect_cex
        out.check(ok, f"verify {job.name}: all_valid={report.all_valid}, triple={triple!r}")
        out.signature.append([job.name, [verdict_name(e.verdict) for e in report.vcs], verdict_name(triple)])
    return out


def verdict_counts(result: BatchResult) -> dict[str, int]:
    """Per-VC and triple verdicts of the verify() jobs in one batch."""
    counts = {"Valid": 0, "CounterexampleFound": 0, "Unknown": 0}
    for entry in result.signature[1:]:
        for name in entry[1] + [entry[2]]:
            counts[name] += 1
    return counts


# --- longrun --------------------------------------------------------------------------


@dataclass(frozen=True)
class LongProgram:
    name: str
    text: str
    expected: State


@dataclass(frozen=True)
class LongrunInputs:
    programs: tuple[LongProgram, ...]


def _loop_programs(rng: random.Random, n: int) -> list[LongProgram]:
    """Loop-heavy programs whose final states have a closed form.  Parameters
    vary with the seed within a few units, so the step counts barely do."""
    out = []
    iters, s0, k = n + rng.randint(0, 9), rng.randint(-50, 50), rng.randint(1, 9)
    out.append(LongProgram(
        "sum",
        f"i := 0; s := {s0}; while (i < {iters}) {{ s := s + i + {k}; i := i + 1 }}",
        State({"i": iters, "s": s0 + iters * (iters - 1) // 2 + k * iters}),
    ))
    b = max(2, int(n**0.5) + rng.randint(0, 3))
    a = max(1, n // b)
    out.append(LongProgram(
        "nested",
        f"i := 0; t := 0; while (i < {a}) {{ j := 0;"
        f" while (j < {b}) {{ t := t + j; j := j + 1 }}; i := i + 1 }}",
        State({"i": a, "j": b, "t": a * b * (b - 1) // 2}),
    ))
    top, h = n + rng.randint(0, 9), rng.randint(0, n)
    evens = max(0, min(top, h - 1))
    out.append(LongProgram(
        "branching",
        f"x := {top}; e := 0; o := 0; while (0 < x)"
        f" {{ if (x < {h}) {{ e := e + 1 }} else {{ o := o + 2 }}; x := x + -1 }}",
        State({"e": evens, "o": 2 * (top - evens)}),
    ))
    return out


def _straight_line(rng: random.Random, target_bytes: int) -> LongProgram:
    """A large loop-free source; its final state is tracked while generating."""
    names = [f"r{i}" for i in range(8)]
    env = dict.fromkeys(names, 0)
    stmts = []
    size = 0
    while size < target_bytes:
        v, w = rng.choice(names), rng.choice(names)
        if rng.random() < 0.8:
            c = rng.randint(-9, 9)
            stmts.append(f"{v} := {w} + {c}")
            env[v] = env[w] + c
        else:
            c, d, e = rng.randint(-20, 20), rng.randint(-9, 9), rng.randint(-9, 9)
            stmts.append(f"if ({w} < {c}) {{ {v} := {v} + {d} }} else {{ {v} := {v} + {e} }}")
            env[v] += d if env[w] < c else e
        size += len(stmts[-1]) + 2
    return LongProgram("straight-line", "; ".join(stmts), State(env))


def build_longrun(seed: int, sizes: Sizes) -> LongrunInputs:
    rng = random.Random(sub_seed(seed, "longrun"))
    programs = _loop_programs(rng, sizes.loop_iterations) + [_straight_line(rng, sizes.source_bytes)]
    return LongrunInputs(tuple(programs))


def run_longrun(inputs: LongrunInputs, index: int, tick=_no_tick) -> BatchResult:
    """Each program goes through parse + big_step, parse + star_run, and
    parse + ccomp + execute.  `index` is unused: every batch repeats the
    same programs."""
    parts = {"run": 0.0, "trace": 0.0, "exec": 0.0}
    outcomes = []
    for prog in inputs.programs:
        tick()
        t0 = clock()
        big = big_step(parse_com(prog.text), State(), LONG_FUEL)
        parts["run"] += clock() - t0
        tick()
        t0 = clock()
        trace = star_run(ProgConfig(parse_com(prog.text), State()), LONG_FUEL)
        last, steps, status = trace.last, trace.steps_taken, trace.status
        del trace  # the trace keeps every configuration
        parts["trace"] += clock() - t0
        tick()
        t0 = clock()
        code = ccomp(parse_com(prog.text))
        machine = execute(code, MachineConfig(0, State(), ()), LONG_FUEL)
        parts["exec"] += clock() - t0
        outcomes.append((prog, big, last, steps, status, code, machine))
    out = BatchResult(sum(parts.values()), parts=parts)
    for prog, big, last, steps, status, code, machine in outcomes:
        out.check(type(big) is Terminated and big.final == prog.expected, f"{prog.name}: big_step gave {big!r}")
        out.check(status is TraceStatus.COMPLETED and last.state == prog.expected,
                  f"{prog.name}: star_run ended {status} in {last.state!r}")
        out.check(
            type(machine) is Halted and machine.final.pc == len(code) and machine.final.stack == ()
            and machine.final.state == prog.expected,
            f"{prog.name}: machine ended {machine!r}",
        )
        rules = big.rules_applied if type(big) is Terminated else None
        out.signature.append([prog.name, rules, steps, len(code), machine.steps_taken])
    return out


# --- registry -----------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    build: object
    run_batch: object
    repeats_content: bool  # every batch makes the same calls
    trace_batches: int  # batches per cycle of the traced run


WORKLOADS = {
    "differential": Workload(build_differential, run_differential, False, 4),
    "verify": Workload(build_verify, run_verify, False, 2),
    "longrun": Workload(build_longrun, run_longrun, True, 1),
}


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def report_metrics(name: str, results: list[BatchResult]) -> dict[str, dict]:
    """The workload's own end-to-end figures, named as in bench/README.md."""

    def total(key: str, attr: str) -> float:
        return sum(getattr(r, attr)[key] for r in results)

    def metric(value, unit):
        return {"value": value, "unit": unit}

    if name == "differential":
        return {
            "differential.small_big_cases_per_s": metric(_rate(total("small_big", "work"), total("small_big", "parts")), "1/s"),
            "differential.compiler_cases_per_s": metric(_rate(total("compiler", "work"), total("compiler", "parts")), "1/s"),
        }
    if name == "verify":
        calls = [ms for r in results for ms in r.call_ms]
        verdicts = verdict_counts(results[0])
        return {
            "verify.suite_cases_per_s": metric(_rate(total("suite", "work"), total("suite", "parts")), "1/s"),
            "verify.call_p50_ms": metric(statistics.median(calls), "ms"),
            "verify.call_p90_ms": metric(statistics.quantiles(calls, n=10)[8], "ms"),
            "verify.call_samples": metric(len(calls), "count"),
            "verify.verdicts_valid": metric(verdicts["Valid"], "count"),
            "verify.verdicts_cex": metric(verdicts["CounterexampleFound"], "count"),
            "verify.verdicts_unknown": metric(verdicts["Unknown"], "count"),
        }
    return {
        f"longrun.{part}_s": metric(statistics.median(r.parts[part] for r in results), "s")
        for part in ("run", "trace", "exec")
    }
