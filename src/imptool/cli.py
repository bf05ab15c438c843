"""Command-line interface.

Subcommands: run, trace, compile, exec, verify, quickcheck.

Exit codes: 0 success, 1 parse/input error, 2 fuel exhausted, 3 stack
underflow, 4 counterexample found, 5 verdict unknown.  Setting IMP_COLOR=0
disables output styling.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

from .bigstep import FuelExhausted, big_step
from .harness import DEFAULT_SEED, GenConfig, SuiteResult, suite_compiler, suite_hoare, suite_small_big
from .hoare import (
    CounterexampleFound,
    MissingAnnotationError,
    Mode,
    Unknown,
    Valid,
    erase,
    verify,
)
from .machine import (
    Load,
    MachineConfig,
    StopReason,
    Store,
    StuckOrExhausted,
    ccomp,
    execute,
)
from .parser import (
    IDENT_RE,
    INTEGER_RE,
    KEYWORDS,
    ParseError,
    parse_annotated_com,
    parse_asm,
    parse_assertion,
    pretty_asm,
    pretty_assertion,
    pretty_com,
)
from .smallstep import ProgConfig, TraceStatus, small_steps
from .syntax import State, vars_of

EXIT_OK = 0
EXIT_PARSE_ERROR = 1
EXIT_FUEL_EXHAUSTED = 2
EXIT_STACK_UNDERFLOW = 3
EXIT_COUNTEREXAMPLE = 4
EXIT_UNKNOWN = 5

_HEX_RE = re.compile(r"0x[0-9A-Fa-f]+")
_LAYOUT = " \t\r\n"  # all that IMP source and assembly skip between words


def _color_enabled() -> bool:
    if os.environ.get("IMP_COLOR", "") == "0":
        return False
    return hasattr(sys.stdout, "isatty") and sys.stdout.isatty()


def _style(text: str, code: str) -> str:
    if _color_enabled():
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _good(text: str) -> str:
    return _style(text, "32")


def _bad(text: str) -> str:
    return _style(text, "31")


def parse_state_spec(spec: str) -> State:
    """Parse `x=1,y=-2` into a state.  Duplicate names are rejected, and so
    are names no program can mention: keywords and the reserved `__` prefix.
    Only IMP layout is skipped around names and values."""
    pairs: list[tuple[str, int]] = []
    seen: set[str] = set()
    if not spec.strip(_LAYOUT):
        return State()
    for chunk in spec.split(","):
        chunk = chunk.strip(_LAYOUT)
        if "=" not in chunk:
            raise ValueError(f"bad state binding {chunk!r}, expected name=value")
        name, _, value_text = chunk.partition("=")
        name = name.strip(_LAYOUT)
        value_text = value_text.strip(_LAYOUT)
        if not IDENT_RE.fullmatch(name):
            raise ValueError(f"bad identifier {name!r} in state spec")
        if name in KEYWORDS:
            raise ValueError(f"identifier {name!r} in state spec is a keyword")
        if name.startswith("__"):
            raise ValueError(f"identifier {name!r} in state spec uses the reserved '__' prefix")
        if name in seen:
            raise ValueError(f"duplicate identifier {name!r} in state spec")
        seen.add(name)
        if not INTEGER_RE.fullmatch(value_text):
            raise ValueError(f"bad integer {value_text!r} for {name!r} in state spec")
        pairs.append((name, int(value_text)))
    return State(pairs)


class _InputError(Exception):
    """An input a command cannot use, as `FILE: message`: `main` prints it as
    one line and exits with EXIT_PARSE_ERROR."""


def _read_file(path: str, parse):
    """`parse` applied to the text of input file `path`."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, ParseError) as err:
        raise _InputError(f"{path}: {err}") from None


def _initial_state(args: argparse.Namespace) -> State:
    """The `--state` bindings; a bad spec is reported against the input file."""
    try:
        return parse_state_spec(args.state)
    except ValueError as err:
        raise _InputError(f"{args.file}: {err}") from None


def _print_state_lines(names: set[str], state: State) -> None:
    for name in sorted(names):
        print(f"{name}={state.read(name)}")


def _fail(message: str) -> int:
    print(_bad(message), file=sys.stderr)
    return EXIT_PARSE_ERROR


class _BadOptionValue(Exception):
    """Raised by an option's type.  argparse lets it through, so `main` can
    exit with EXIT_PARSE_ERROR rather than argparse's usage-error code."""


def _non_negative(option: str):
    def parse(text: str) -> int:
        value = int(text) if INTEGER_RE.fullmatch(text) else -1
        if value < 0:
            raise _BadOptionValue(f"{option} must be a non-negative integer, got {text!r}")
        return value

    return parse


def _seed(text: str) -> int:
    if INTEGER_RE.fullmatch(text):
        return int(text)
    if _HEX_RE.fullmatch(text):
        return int(text, 16)
    raise _BadOptionValue(f"--seed must be an integer or 0x and hex digits, got {text!r}")


# --- subcommands ----------------------------------------------------------------


def cmd_run(args: argparse.Namespace) -> int:
    command = _read_file(args.file, parse_annotated_com)
    initial = _initial_state(args)
    outcome = big_step(command, initial, args.fuel)
    if type(outcome) is FuelExhausted:
        print(f"fuel exhausted after {args.fuel} rule applications", file=sys.stderr)
        return EXIT_FUEL_EXHAUSTED
    _print_state_lines(vars_of(command) | initial.bound_names(), outcome.final)
    return EXIT_OK


def cmd_trace(args: argparse.Namespace) -> int:
    command = erase(_read_file(args.file, parse_annotated_com))
    initial = _initial_state(args)
    for index, last in zip(range(args.max_steps + 1), small_steps(ProgConfig(command, initial))):
        if args.format == "machine-readable":
            record = {
                "step_index": index,
                "command_text": pretty_com(last.command),
                "state_bindings": dict(last.state.items()),
            }
            print(json.dumps(record, sort_keys=True))
        else:
            print(f"{index}: {pretty_com(last.command)} | {last.state}")
    status = TraceStatus.COMPLETED if last.is_final else TraceStatus.FUEL_EXHAUSTED
    if args.format == "machine-readable":
        print(json.dumps({"status": status.value}, sort_keys=True))
    else:
        print(f"status: {status.value}")
    if status is TraceStatus.FUEL_EXHAUSTED:
        return EXIT_FUEL_EXHAUSTED
    return EXIT_OK


def cmd_compile(args: argparse.Namespace) -> int:
    asm_text = pretty_asm(ccomp(_read_file(args.file, parse_annotated_com)))
    if args.output:
        try:
            Path(args.output).write_text(asm_text, encoding="utf-8")
        except OSError as err:
            return _fail(f"{args.output}: {err}")
    else:
        sys.stdout.write(asm_text)
    return EXIT_OK


def cmd_exec(args: argparse.Namespace) -> int:
    program = _read_file(args.file, parse_asm)
    initial = _initial_state(args)
    start = MachineConfig(args.pc, initial, ())
    outcome = execute(program, start, args.max_steps)
    if type(outcome) is StuckOrExhausted:
        if outcome.reason is StopReason.STACK_UNDERFLOW:
            print(
                f"stack underflow at pc={outcome.last.pc}"
                f" after {outcome.steps_taken} steps",
                file=sys.stderr,
            )
            return EXIT_STACK_UNDERFLOW
        print(
            f"fuel exhausted after {outcome.steps_taken} steps at pc={outcome.last.pc}",
            file=sys.stderr,
        )
        return EXIT_FUEL_EXHAUSTED
    names = {
        instr.name for instr in program if type(instr) in (Load, Store)
    } | initial.bound_names()
    print(f"pc={outcome.final.pc}")
    _print_state_lines(names, outcome.final.state)
    print(f"stack={list(outcome.final.stack)}")
    return EXIT_OK


def _verdict_lines(verdict) -> tuple[str, list[str]]:
    t = type(verdict)
    if t is Valid:
        return _good("valid"), []
    if t is CounterexampleFound:
        return _bad("counterexample"), [f"  counterexample: {str(verdict.state) or 'all variables = 0'}"]
    return _bad("unknown"), [f"  detail: {verdict.detail}"]


def cmd_verify(args: argparse.Namespace) -> int:
    command = _read_file(args.file, parse_annotated_com)
    assertions = []
    for option, source in (("--pre", args.pre), ("--post", args.post)):
        try:
            assertions.append(parse_assertion(source))
        except ParseError as err:
            return _fail(f"{option}: {err}")
    pre, post = assertions
    mode = Mode.TOTAL if args.total else Mode.PARTIAL
    try:
        report = verify(command, pre, post, args.bound, args.fuel, mode)
    except MissingAnnotationError as err:
        return _fail(f"{args.file}: {err}")
    # Render the whole report before printing, so that a report too deep to
    # render prints nothing to stdout.
    out = [
        f"mode: {report.mode.value}",
        f"bound: {report.bound}",
        f"computed precondition: {pretty_assertion(report.precondition)}",
    ]
    for entry in report.vcs:
        word, extra = _verdict_lines(entry.verdict)
        out.append(f"vc {entry.label}: {pretty_assertion(entry.formula)} -- {word}")
        out.extend(extra)
    word, extra = _verdict_lines(report.triple_verdict)
    out.append(f"triple: {word}")
    out.extend(extra)
    print("\n".join(out))
    verdicts = {type(entry.verdict) for entry in report.vcs} | {type(report.triple_verdict)}
    if CounterexampleFound in verdicts:
        return EXIT_COUNTEREXAMPLE
    if Unknown in verdicts:
        return EXIT_UNKNOWN
    return EXIT_OK


def _print_suite(name: str, result: SuiteResult) -> None:
    line = (
        f"[{name}] run={result.cases_run} passed={result.cases_passed}"
        f" skipped-divergent={result.cases_skipped_divergent}"
        f" failures={len(result.failures)}"
    )
    print(line if not result.failures else _bad(line))
    for failure in result.failures:
        print(f"  failure case={failure.case_index} seed={failure.seed}")
        print(f"    program: {failure.program_text}")
        print(f"    initial state: {failure.initial_state!r}")
        print(f"    expected: {failure.expectation}")
        print(f"    observed: {failure.observed}")


def cmd_quickcheck(args: argparse.Namespace) -> int:
    cfg = GenConfig(seed=args.seed)
    suites = {"small-big": suite_small_big, "compiler": suite_compiler, "hoare": suite_hoare}
    total_failures = 0
    for name in suites if args.suite == "all" else (args.suite,):
        result = suites[name](args.cases, cfg)
        _print_suite(name, result)
        total_failures += len(result.failures)
    return EXIT_OK if total_failures == 0 else EXIT_COUNTEREXAMPLE


# --- argument parsing ---------------------------------------------------------------


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="imptool",
        description="Run, trace, compile, execute, and verify IMP programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="evaluate a program with the big-step semantics")
    run_p.add_argument("file")
    run_p.add_argument("--state", default="", help="initial bindings, e.g. x=1,y=-2")
    run_p.add_argument("--fuel", type=_non_negative("--fuel"), default=1_000_000)
    run_p.set_defaults(func=cmd_run)

    trace_p = sub.add_parser("trace", help="print the small-step trace of a program")
    trace_p.add_argument("file")
    trace_p.add_argument("--state", default="")
    trace_p.add_argument("--max-steps", type=_non_negative("--max-steps"), default=10_000)
    trace_p.add_argument("--format", choices=("text", "machine-readable"), default="text")
    trace_p.set_defaults(func=cmd_trace)

    compile_p = sub.add_parser("compile", help="compile a program to stack-machine assembly")
    compile_p.add_argument("file")
    compile_p.add_argument("-o", "--output", default=None)
    compile_p.set_defaults(func=cmd_compile)

    exec_p = sub.add_parser("exec", help="execute a stack-machine assembly file")
    exec_p.add_argument("file")
    exec_p.add_argument("--state", default="")
    exec_p.add_argument("--max-steps", type=_non_negative("--max-steps"), default=1_000_000)
    exec_p.add_argument("--pc", type=_non_negative("--pc"), default=0)
    exec_p.set_defaults(func=cmd_exec)

    verify_p = sub.add_parser("verify", help="check Hoare triples for an annotated program")
    verify_p.add_argument("file")
    verify_p.add_argument("--pre", default="true")
    verify_p.add_argument("--post", default="true")
    verify_p.add_argument("--bound", type=_non_negative("--bound"), default=5)
    verify_p.add_argument("--fuel", type=_non_negative("--fuel"), default=10_000)
    verify_p.add_argument("--total", action="store_true")
    verify_p.set_defaults(func=cmd_verify)

    quick_p = sub.add_parser("quickcheck", help="run the differential property suites")
    quick_p.add_argument("--suite", choices=("small-big", "compiler", "hoare", "all"), default="all")
    quick_p.add_argument("--cases", type=_non_negative("--cases"), default=100)
    quick_p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    quick_p.set_defaults(func=cmd_quickcheck)

    return parser, sub.choices


def _named_action(options: dict[str, argparse.Action], arg: str) -> argparse.Action | None:
    """The option `arg` names: exactly, or as argparse resolves a unique prefix
    of a long option (`--bou` for `--bound`)."""
    if arg in options:
        return options[arg]
    hits = {action for name, action in options.items() if arg.startswith("--") and name.startswith(arg)}
    return hits.pop() if len(hits) == 1 else None


def _attach_dash_values(argv: list[str], commands: dict[str, argparse.ArgumentParser]) -> list[str]:
    """argparse takes a value that starts with `-` and is no plain negative number
    (`--pre -1<x`) for a missing value: join each value after a value-taking option
    to it (`--pre=-1<x`), unless it is itself one of the subcommand's options."""
    options = commands[argv[0]]._option_string_actions if argv and argv[0] in commands else {}
    out: list[str] = []
    for arg in argv:
        after = _named_action(options, out[-1]) if out and "--" not in out else None
        dash_value = arg.startswith("-") and not _named_action(options, arg.split("=", 1)[0])
        if after and after.nargs is None and dash_value:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(_attach_dash_values(sys.argv[1:] if argv is None else argv, commands))
    except _BadOptionValue as err:
        return _fail(f"imptool: error: {err}")
    # IMP integers are unbounded: lift the int-to-text digit limit while the
    # command runs, and give the caller its own limit back afterwards.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except _InputError as err:
        return _fail(str(err))
    except RecursionError:
        return _fail(f"{getattr(args, 'file', 'imptool')}: nesting too deep")
    except BrokenPipeError:
        # The reader went away (`imptool trace ... | head`).  Point stdout at
        # devnull so that the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    raise SystemExit(main())
