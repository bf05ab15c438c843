"""Traced pass: spans around the calls into each imptool layer.

`Tracer.installed()` replaces each public function listed in TARGETS by a
timing wrapper, in the namespace of the module that calls it (for example
`imptool.harness.star_run` and `imptool.hoare.big_step`), and restores the
originals on exit.  No probe goes inside `src/`: every count comes from a
call's arguments and return value.

Each span records its name, start, end and parent.  A call made while a span
of the same name is innermost is not wrapped again, so recursion through a
wrapped name is timed once, at its outermost call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys
import time
from collections import Counter

import imptool  # noqa: F401  (loads every module that TARGETS names)
from imptool import CounterexampleFound, MachineConfig, Terminated, TraceStatus, Unknown

clock = time.perf_counter


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


_NODE_FIELDS: dict[type, tuple[str, ...]] = {}


def formula_nodes(root) -> int:
    """Tree size of an assertion with its arithmetic leaves: a shared subtree
    counts once per occurrence, as in the printed formula."""
    total = 0
    stack = [root]
    while stack:
        node = stack.pop()
        total += 1
        t = type(node)
        names = _NODE_FIELDS.get(t)
        if names is None:  # which fields hold nodes is fixed per class
            names = _NODE_FIELDS[t] = tuple(
                f.name for f in dataclasses.fields(t) if dataclasses.is_dataclass(getattr(node, f.name))
            )
        for name in names:
            stack.append(getattr(node, name))
    return total


def _states_enumerated(verdict, variables, bound: int) -> int:
    """States a bounded check enumerated, read from its verdict: all of them
    unless it stopped at a counterexample, whose position in the enumeration
    order (sorted names, values ascending from -bound) gives the count."""
    names = sorted(set(variables))
    width = 2 * bound + 1
    if type(verdict) is CounterexampleFound:
        index = 0
        for name in names:
            index = index * width + verdict.state.read(name) + bound
        return index + 1
    if type(verdict) is Unknown and "exceeds" in verdict.detail:
        return 0
    return width ** len(names)


# --- count extractors: (counts, args, kwargs, result) -> None -------------------


def _count_parse(c, args, kwargs, result):
    c["parser.bytes"] += len(_arg(args, kwargs, 0, "text"))


def _count_big_step(c, args, kwargs, result):
    if type(result) is Terminated:
        c["bigstep.rules"] += result.rules_applied
    else:  # fuel exhaustion happens after exactly `fuel` rules
        fuel = _arg(args, kwargs, 2, "fuel")
        c["bigstep.rules"] += fuel
        c["bigstep.exhausted_rules"] += fuel


def _count_star_run(c, args, kwargs, result):
    c["smallstep.steps"] += result.steps_taken
    if result.status is TraceStatus.FUEL_EXHAUSTED:
        c["smallstep.exhausted_steps"] += result.steps_taken


def _count_ccomp(c, args, kwargs, result):
    c["machine.code_instrs"] += len(result)


def _count_execute(c, args, kwargs, result):
    c["machine.exec_steps"] += result.steps_taken


def _count_exec_n(c, args, kwargs, result):
    c["machine.exec_steps"] += _arg(args, kwargs, 2, "n") if type(result) is MachineConfig else result.steps_taken


def _count_steps_to_halt(c, args, kwargs, result):
    c["machine.exec_steps"] += _arg(args, kwargs, 2, "fuel") if result is None else result


def _count_entails(c, args, kwargs, result):
    c["hoare.entail_states"] += _states_enumerated(
        result, _arg(args, kwargs, 2, "variables"), _arg(args, kwargs, 3, "bound")
    )


def _count_check_triple(c, args, kwargs, result):
    c["hoare.triple_states"] += _states_enumerated(
        result, _arg(args, kwargs, 3, "variables"), _arg(args, kwargs, 4, "bound")
    )


def _count_wp(c, args, kwargs, result):
    c["hoare.formula_nodes"] += formula_nodes(result)


def _count_vcgen(c, args, kwargs, result):
    c["hoare.formula_nodes"] += formula_nodes(result.precondition) + sum(
        formula_nodes(vc.formula) for vc in result.conditions
    )


def _count_verify(c, args, kwargs, result):
    for verdict in [entry.verdict for entry in result.vcs] + [result.triple_verdict]:
        c[f"hoare.verdicts.{type(verdict).__name__}"] += 1


def _count_suite_small_big(c, args, kwargs, result):
    c["harness.small_big_cases"] += result.cases_run
    c["harness.skipped_divergent"] += result.cases_skipped_divergent


def _count_suite(c, args, kwargs, result):
    c["harness.skipped_divergent"] += result.cases_skipped_divergent


# function name -> (span name, count extractor)
SPANS = {
    "parse_com": ("parser.parse_com", _count_parse),
    "parse_annotated_com": ("parser.parse_annotated_com", _count_parse),
    "parse_assertion": ("parser.parse_assertion", _count_parse),
    "big_step": ("bigstep.big_step", _count_big_step),
    "star_run": ("smallstep.star_run", _count_star_run),
    "ccomp": ("machine.ccomp", _count_ccomp),
    "execute": ("machine.execute", _count_execute),
    "exec_n": ("machine.exec_n", _count_exec_n),
    "steps_to_halt": ("machine.steps_to_halt", _count_steps_to_halt),
    "entails": ("hoare.entails", _count_entails),
    "check_triple": ("hoare.check_triple", _count_check_triple),
    "wp_loop_free": ("hoare.wp_loop_free", _count_wp),
    "vcgen": ("hoare.vcgen", _count_vcgen),
    "verify": ("hoare.verify", _count_verify),
    "gen_com": ("harness.gen_com", None),
    "gen_state": ("harness.gen_state", None),
    "gen_assertion": ("harness.gen_assertion", None),
    "suite_small_big": ("harness.suite_small_big", _count_suite_small_big),
    "suite_compiler": ("harness.suite_compiler", _count_suite),
    "suite_hoare": ("harness.suite_hoare", _count_suite),
}

# calling module -> the functions it calls through its own namespace.  The
# parser entry points are imported inside harness functions at call time, so
# they are looked up in imptool.parser.
TARGETS = {
    "imptool.harness": (
        "big_step", "star_run", "ccomp", "execute", "exec_n", "steps_to_halt", "gen_com",
        "gen_state", "gen_assertion", "entails", "check_triple", "wp_loop_free", "verify",
    ),
    "imptool.hoare": ("big_step", "entails", "vcgen", "check_triple"),
    "imptool.parser": ("parse_com", "parse_annotated_com", "parse_assertion"),
    "workloads": (
        "parse_com", "big_step", "star_run", "ccomp", "execute", "verify",
        "suite_small_big", "suite_compiler", "suite_hoare",
    ),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.excluded: Counter = Counter()  # span -> seconds of count extraction inside it
        self.counts: Counter = Counter()
        self.stack: list[int] = []
        self.missing: list[str] = []

    def wrap(self, span: str, fn, count):
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self.stack
        counts, excluded = self.counts, self.excluded

        def traced(*args, **kwargs):
            if stack and names[stack[-1]] == span:
                return fn(*args, **kwargs)
            sid = len(names)
            names.append(span)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
                if stack:
                    excluded[stack[-1]] += clock() - ends[sid]
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, functions in TARGETS.items():
                module = sys.modules[module_name]
                for fn_name in functions:
                    original = getattr(module, fn_name, None)
                    if original is None:
                        self.missing.append(f"{module_name}.{fn_name}")
                        continue
                    saved.append((module, fn_name, original))
                    span, count = SPANS[fn_name]
                    setattr(module, fn_name, self.wrap(span, original, count))
            yield self
        finally:
            for module, fn_name, original in reversed(saved):
                setattr(module, fn_name, original)

    def summary(self) -> "Summary":
        n = len(self.names)
        covered = [0.0] * n
        child_calls: Counter = Counter()
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                covered[p] += self.ends[i] - self.starts[i]
                child_calls[self.names[p], self.names[i]] += 1
        busy: Counter = Counter()
        own: Counter = Counter()
        calls: Counter = Counter()
        for i, name in enumerate(self.names):
            d = self.ends[i] - self.starts[i]
            busy[name] += d
            own[name] += d - covered[i] - self.excluded[i]
            calls[name] += 1
        return Summary(busy, own, calls, Counter(self.counts), child_calls)


@dataclasses.dataclass
class Summary:
    busy: Counter  # span name -> total duration
    own: Counter  # span name -> self time
    calls: Counter
    counts: Counter
    child_calls: Counter  # (parent span, child span) -> calls

    def layer_counts(self) -> dict[str, int]:
        """Deterministic per-layer counts; two passes over the same inputs
        must give the same values."""
        c, calls, kids = self.counts, self.calls, self.child_calls
        sb_calls = kids["harness.suite_small_big", "bigstep.big_step"] + kids["harness.suite_small_big", "smallstep.star_run"]
        return {
            "parser.calls": calls["parser.parse_com"] + calls["parser.parse_annotated_com"] + calls["parser.parse_assertion"],
            "parser.bytes": c["parser.bytes"],
            "bigstep.calls": calls["bigstep.big_step"],
            "bigstep.rules": c["bigstep.rules"],
            "bigstep.exhausted_rules": c["bigstep.exhausted_rules"],
            "smallstep.calls": calls["smallstep.star_run"],
            "smallstep.steps": c["smallstep.steps"],
            "smallstep.exhausted_steps": c["smallstep.exhausted_steps"],
            "machine.code_instrs": c["machine.code_instrs"],
            "machine.exec_calls": calls["machine.execute"] + calls["machine.exec_n"] + calls["machine.steps_to_halt"],
            "machine.exec_steps": c["machine.exec_steps"],
            "hoare.formula_nodes": c["hoare.formula_nodes"],
            "hoare.entail_calls": calls["hoare.entails"],
            "hoare.entail_states": c["hoare.entail_states"],
            "hoare.triple_states": c["hoare.triple_states"],
            "hoare.premise_hits": kids["hoare.check_triple", "bigstep.big_step"],
            "hoare.verdicts_valid": c["hoare.verdicts.Valid"],
            "hoare.verdicts_cex": c["hoare.verdicts.CounterexampleFound"],
            "hoare.verdicts_unknown": c["hoare.verdicts.Unknown"],
            "harness.skipped_divergent": c["harness.skipped_divergent"],
            # every small-big case runs each semantics once; more is a cross_fuel re-run
            "harness.reruns": sb_calls - 2 * c["harness.small_big_cases"],
        }

    def layer_times(self) -> dict[str, float]:
        busy, own = self.busy, self.own
        return {
            "parser.busy_s": busy["parser.parse_com"] + busy["parser.parse_annotated_com"] + busy["parser.parse_assertion"],
            "bigstep.busy_s": busy["bigstep.big_step"],
            "smallstep.busy_s": busy["smallstep.star_run"],
            "machine.ccomp_busy_s": busy["machine.ccomp"],
            "machine.exec_busy_s": busy["machine.execute"] + busy["machine.exec_n"] + busy["machine.steps_to_halt"],
            "hoare.vcgen_busy_s": busy["hoare.vcgen"] + busy["hoare.wp_loop_free"],
            "hoare.entail_busy_s": busy["hoare.entails"],
            "hoare.triple_busy_s": own["hoare.check_triple"],
            "harness.gen_busy_s": busy["harness.gen_com"] + busy["harness.gen_state"] + busy["harness.gen_assertion"],
            "harness.self_s": own["harness.suite_small_big"] + own["harness.suite_compiler"] + own["harness.suite_hoare"],
        }


def layer_metrics(counts: dict[str, int], times: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one cycle, from its counts and (median) times."""

    def rate(a: float, b: float) -> float:
        return a / b if b > 0 else 0.0

    out = {k: v for k, v in counts.items() if k not in (
        "parser.bytes", "bigstep.exhausted_rules", "smallstep.exhausted_steps", "hoare.premise_hits")}
    out.update(times)
    out["parser.mb_per_s"] = rate(counts["parser.bytes"] / 1e6, times["parser.busy_s"])
    out["bigstep.rules_per_s"] = rate(counts["bigstep.rules"], times["bigstep.busy_s"])
    out["bigstep.exhausted_rules_frac"] = rate(counts["bigstep.exhausted_rules"], counts["bigstep.rules"])
    out["smallstep.steps_per_s"] = rate(counts["smallstep.steps"], times["smallstep.busy_s"])
    out["smallstep.exhausted_steps_frac"] = rate(counts["smallstep.exhausted_steps"], counts["smallstep.steps"])
    out["machine.ccomp_instrs_per_s"] = rate(counts["machine.code_instrs"], times["machine.ccomp_busy_s"])
    out["machine.steps_per_s"] = rate(counts["machine.exec_steps"], times["machine.exec_busy_s"])
    out["hoare.entail_states_per_s"] = rate(counts["hoare.entail_states"], times["hoare.entail_busy_s"])
    out["hoare.premise_hit_frac"] = rate(counts["hoare.premise_hits"], counts["hoare.triple_states"])
    return out



def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, name in (("mb_per_s", "MB/s"), ("_per_s", "1/s"), ("_s", "s"), ("_frac", "ratio"), ("_pct", "%"), ("_mb", "MB")):
        if metric.endswith(suffix):
            return name
    return "count"
