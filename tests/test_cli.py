import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import imptool
from conftest import reference_run, swap_branches
from imptool import cli, smallstep
from imptool.cli import (
    EXIT_COUNTEREXAMPLE,
    EXIT_FUEL_EXHAUSTED,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_STACK_UNDERFLOW,
    EXIT_UNKNOWN,
    main,
    parse_state_spec,
)
from imptool.machine import MachineConfig, ccomp
from imptool.parser import parse_com, pretty_asm
from imptool.syntax import State

# A sum nested 5,000 deep to the left, and 300 nested `if`s.
LONG_SUM = "x := " + " + ".join(["1"] * 5000)
NESTED_IFS = "x := 1; " + "if (x < 2) { " * 300 + "skip" + " } else { skip }" * 300


@pytest.fixture(autouse=True)
def plain_output(monkeypatch):
    monkeypatch.setenv("IMP_COLOR", "0")


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return _write


def cli_env():
    """The environment for running this imptool's CLI in a fresh interpreter."""
    src = str(Path(imptool.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_cli(*args, timeout):
    """Run the CLI in a fresh interpreter, failing past `timeout` seconds."""
    return subprocess.run(
        [sys.executable, "-m", "imptool", *args], capture_output=True, text=True, env=cli_env(), timeout=timeout
    )


class TestStateSpec:
    def test_bindings(self):
        assert parse_state_spec("x=1,y=-2") == State.of(x=1, y=-2)

    def test_empty_spec(self):
        assert parse_state_spec("") == State()
        assert parse_state_spec("  ") == State()

    def test_spaces_tolerated(self):
        assert parse_state_spec(" x = 1 , y = 2 ") == State.of(x=1, y=2)

    @pytest.mark.parametrize(
        "spec", ["x", "x=1,x=2", "1x=3", "x=one", "=4", "x=1,,y=2"]
    )
    def test_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_state_spec(spec)

    @pytest.mark.parametrize(
        "name, reason",
        [("__z0", "uses the reserved '__' prefix"), ("__", "uses the reserved '__' prefix"),
         ("while", "is a keyword"), ("invariant", "is a keyword"), ("true", "is a keyword")],
    )
    def test_names_no_program_can_mention(self, write, capsys, name, reason):
        path = write("skip.imp", "skip")
        assert main(["run", path, "--state", f"x=1,{name}=4"]) == EXIT_PARSE_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{path}: identifier {name!r} in state spec {reason}\n"

    def test_underscore_names_stay_legal(self):
        assert parse_state_spec("_x=1,x_=2") == State.of(_x=1, x_=2)


class TestRun:
    def test_skip_prints_nothing(self, write, capsys):
        assert main(["run", write("skip.imp", "skip")]) == EXIT_OK
        assert capsys.readouterr().out == ""

    def test_increment(self, write, capsys):
        path = write("incr.imp", "x := x + 1")
        assert main(["run", path, "--state", "x=4"]) == EXIT_OK
        assert capsys.readouterr().out == "x=5\n"

    def test_prints_all_touched_and_initial_names(self, write, capsys):
        path = write("p.imp", "y := x + 1")
        assert main(["run", path, "--state", "z=7"]) == EXIT_OK
        assert capsys.readouterr().out == "x=0\ny=1\nz=7\n"

    def test_fuel_exhaustion(self, write, capsys):
        path = write("loop.imp", "while (true) { skip }")
        assert main(["run", path, "--fuel", "10"]) == EXIT_FUEL_EXHAUSTED
        err = capsys.readouterr().err
        assert "fuel" in err

    def test_looping_program_returns_at_once(self, write):
        # The configuration repeats, which proves the run never ends: no need
        # to spend a billion rule applications to say so.
        path = write("loop.imp", "while (0 < 1) { x := x }")
        done = run_cli("run", path, "--fuel", "1000000000", timeout=10)
        assert (done.returncode, done.stdout) == (EXIT_FUEL_EXHAUSTED, "")
        assert done.stderr == "fuel exhausted after 1000000000 rule applications\n"

    def test_parse_error_names_file_and_position(self, write, capsys):
        path = write("bad.imp", "x := := 1")
        assert main(["run", path]) == EXIT_PARSE_ERROR
        err = capsys.readouterr().err
        assert path in err
        assert "1:6" in err

    def test_bad_state_spec(self, write, capsys):
        path = write("skip.imp", "skip")
        assert main(["run", path, "--state", "x=1,x=2"]) == EXIT_PARSE_ERROR

    def test_missing_file(self, capsys):
        assert main(["run", "no-such-file.imp"]) == EXIT_PARSE_ERROR

    def test_annotations_accepted_and_ignored(self, write, capsys):
        path = write(
            "ann.imp", "while (0 < x) invariant (0 <= x) { x := x + -1 }"
        )
        assert main(["run", path, "--state", "x=2"]) == EXIT_OK
        assert capsys.readouterr().out == "x=0\n"


class TestTrace:
    def test_text_format(self, write, capsys):
        path = write("seq2.imp", "x := 1; y := x")
        assert main(["trace", path]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "0: x := 1; y := x | "
        assert lines[1] == "1: skip; y := x | x=1"
        assert lines[3] == "3: skip | x=1, y=1"
        assert lines[4] == "status: completed"
        assert len(lines) == 5

    def test_machine_readable_format(self, write, capsys):
        path = write("seq2.imp", "x := 1; y := x")
        assert main(["trace", path, "--format", "machine-readable"]) == EXIT_OK
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(records) == 5
        assert records[0] == {
            "command_text": "x := 1; y := x",
            "state_bindings": {},
            "step_index": 0,
        }
        assert records[-1] == {"status": "completed"}
        # keys are sorted for byte-stable output
        assert all(list(r) == sorted(r) for r in records)

    def test_machine_readable_records_schema(self, write, capsys):
        path = write("seq2.imp", "x := 1; y := x")
        assert main(["trace", path, "--format", "machine-readable"]) == EXIT_OK
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()[:-1]]
        assert [r["step_index"] for r in records] == [0, 1, 2, 3]
        assert records[-1] == {
            "step_index": 3,
            "command_text": "skip",
            "state_bindings": {"x": 1, "y": 1},
        }
        # command_text stays parseable at every step
        for r in records:
            parse_com(r["command_text"])

    def test_max_steps_exhaustion(self, write, capsys):
        path = write("loop.imp", "while (true) { skip }")
        assert main(["trace", path, "--max-steps", "3"]) == EXIT_FUEL_EXHAUSTED
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5  # 4 configs + status line
        assert lines[-1] == "status: fuel-exhausted"

    def test_single_config_for_skip(self, write, capsys):
        path = write("skip.imp", "skip")
        assert main(["trace", path]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["0: skip | ", "status: completed"]

    @pytest.mark.parametrize("fmt", ["text", "machine-readable"])
    def test_any_non_negative_bound_is_a_bound(self, write, capsys, fmt):
        path = write("one.imp", "x := 1")
        outputs = []
        for bound in (10, sys.maxsize, 10**30):
            assert main(["trace", path, "--max-steps", str(bound), "--format", fmt]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]


class TestCompile:
    def test_stdout_listing(self, write, capsys):
        path = write("incr.imp", "x := x + 1")
        assert main(["compile", path]) == EXIT_OK
        assert capsys.readouterr().out == "LOAD x\nLOADI 1\nADD\nSTORE x\n"

    def test_output_file(self, write, tmp_path, capsys):
        src = write("incr.imp", "x := x + 1")
        out = tmp_path / "incr.asm"
        assert main(["compile", src, "-o", str(out)]) == EXIT_OK
        assert out.read_text() == "LOAD x\nLOADI 1\nADD\nSTORE x\n"
        assert capsys.readouterr().out == ""

    def test_parse_error(self, write, capsys):
        path = write("bad.imp", "x +")
        assert main(["compile", path]) == EXIT_PARSE_ERROR

    def test_unwritable_output_file(self, write, tmp_path, capsys):
        src = write("incr.imp", "x := x + 1")
        out = tmp_path / "no-such-dir" / "incr.asm"
        assert main(["compile", src, "-o", str(out)]) == EXIT_PARSE_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{out}: [Errno 2] No such file or directory: '{out}'\n"


class TestExec:
    def test_compiled_increment(self, write, capsys):
        path = write("incr.asm", "LOAD x\nLOADI 1\nADD\nSTORE x\n")
        assert main(["exec", path, "--state", "x=4"]) == EXIT_OK
        assert capsys.readouterr().out == "pc=4\nx=5\nstack=[]\n"

    def test_start_pc_flag(self, write, capsys):
        path = write("p.asm", "LOADI 9\nSTORE y\n")
        assert main(["exec", path, "--pc", "2"]) == EXIT_OK
        assert capsys.readouterr().out == "pc=2\ny=0\nstack=[]\n"

    def test_fuel_exhaustion(self, write, capsys):
        path = write("spin.asm", "JMP -1")
        assert main(["exec", path, "--max-steps", "5"]) == EXIT_FUEL_EXHAUSTED
        assert "5" in capsys.readouterr().err

    def test_looping_program_returns_at_once(self, write):
        code = ccomp(parse_com("while (0 < 1) { x := x }"))
        # Each iteration runs each of the six instructions once.
        period = len(code)
        assert period == 6
        fuel = 10**12
        small = 10 * period + fuel % period
        pc = reference_run(code, MachineConfig(0, State(), ()), small)[0].pc
        done = run_cli("exec", write("loop.asm", pretty_asm(code)), "--max-steps", str(fuel), timeout=10)
        assert (done.returncode, done.stdout) == (EXIT_FUEL_EXHAUSTED, "")
        assert done.stderr == f"fuel exhausted after {fuel} steps at pc={pc}\n"

    def test_stack_underflow(self, write, capsys):
        path = write("broken.asm", "ADD")
        assert main(["exec", path]) == EXIT_STACK_UNDERFLOW
        assert "pc=0" in capsys.readouterr().err

    def test_unknown_mnemonic(self, write, capsys):
        path = write("bad.asm", "FOO 1")
        assert main(["exec", path]) == EXIT_PARSE_ERROR


COUNTDOWN_ANN = "while (0 < x) invariant (0 <= x) measure (x) { x := x + -1 }"


class TestVerify:
    def test_total_countdown_valid(self, write, capsys):
        path = write("cd.imp", COUNTDOWN_ANN)
        code = main(
            ["verify", path, "--pre", "0 <= x", "--post", "x = 0", "--total", "--bound", "8"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "mode: total" in out
        assert "triple: valid" in out
        assert out.count("-- valid") == 4  # entry VC + three loop VCs

    def test_counterexample_exit_and_state(self, write, capsys):
        path = write("cd.imp", COUNTDOWN_ANN)
        code = main(["verify", path, "--pre", "true", "--post", "x = 1", "--bound", "4"])
        assert code == EXIT_COUNTEREXAMPLE
        out = capsys.readouterr().out
        assert "counterexample" in out

    def test_fuel_running_out_is_unknown_in_total_mode(self, write, capsys):
        # every run from the box ends in x = 0, after 10,003 rules: past the
        # default fuel, which is no evidence against the triple
        path = write("long.imp", "x := 5000; " + COUNTDOWN_ANN)
        args = ["verify", path, "--total", "--pre", "true", "--post", "x = 0", "--bound", "2"]
        assert main(args) == EXIT_UNKNOWN
        out = capsys.readouterr().out
        assert out.endswith("triple: unknown\n  detail: 5 initial state(s) ran out of fuel\n")
        assert "counterexample" not in out
        assert main([*args, "--fuel", "20000"]) == EXIT_OK
        assert capsys.readouterr().out.endswith("triple: valid\n")

    def test_a_repeated_state_stays_a_counterexample_in_total_mode(self, write, capsys):
        # a run that comes back to a state at a loop head never ends
        path = write("loop.imp", "while (0 < 1) invariant (true) measure (1) { x := x }")
        assert main(["verify", path, "--total", "--bound", "1", "--fuel", "100000000"]) == EXIT_COUNTEREXAMPLE
        assert capsys.readouterr().out.endswith("triple: counterexample\n  counterexample: x=-1\n")

    def test_oversized_state_space_is_unknown(self, write, capsys):
        path = write("wide.imp", "skip")
        pre = "a + b + c + d + e + f + g < 1"
        code = main(["verify", path, "--pre", pre, "--post", pre, "--bound", "5"])
        assert code == EXIT_UNKNOWN
        assert "unknown" in capsys.readouterr().out

    def test_missing_invariant_is_an_input_error(self, write, capsys):
        path = write("bare.imp", "while (0 < x) { x := x + -1 }")
        assert main(["verify", path, "--post", "true"]) == EXIT_PARSE_ERROR
        assert "invariant" in capsys.readouterr().err

    def test_missing_measure_in_total_mode(self, write, capsys):
        path = write("par.imp", "while (0 < x) invariant (0 <= x) { x := x + -1 }")
        assert main(["verify", path, "--post", "true", "--total"]) == EXIT_PARSE_ERROR
        assert "measure" in capsys.readouterr().err

    def test_defaults_are_true_pre_and_post(self, write, capsys):
        path = write("skip.imp", "skip")
        assert main(["verify", path]) == EXIT_OK
        assert "triple: valid" in capsys.readouterr().out

    def test_looping_program_returns_at_once(self, write):
        # Each run from an enumerated state repeats a state at the loop head,
        # which proves it never ends: no need to spend the fuel to say so.
        path = write("loop.imp", "while (0 < 1) invariant (true) { x := x }")
        done = run_cli("verify", path, "--bound", "3", "--fuel", "100000000", timeout=10)
        assert (done.returncode, done.stderr) == (EXIT_UNKNOWN, "")
        assert done.stdout == (
            "mode: partial\n"
            "bound: 3\n"
            "computed precondition: true\n"
            "vc entry: precondition establishes computed precondition: true -> true -- valid\n"
            "vc loop@1:1: invariant preserved: true && 0 < 1 -> true -- valid\n"
            "vc loop@1:1: exit establishes postcondition: true && !(0 < 1) -> true -- valid\n"
            "triple: unknown\n"
            "  detail: 7 initial state(s) ran out of fuel\n"
        )

    def test_unsatisfiable_precondition_is_unknown(self, write, capsys):
        # x = 1 holds on no state with x in [-0, 0]: no triple was checked
        path = write("skip.imp", "skip")
        code = main(["verify", path, "--pre", "x = 1", "--post", "x = 2", "--bound", "0"])
        assert code == EXIT_UNKNOWN
        assert capsys.readouterr().out == (
            "mode: partial\n"
            "bound: 0\n"
            "computed precondition: x = 2\n"
            "vc entry: precondition establishes computed precondition: x = 1 -> x = 2 -- valid\n"
            "triple: unknown\n"
            "  detail: precondition holds on no enumerated state\n"
        )


class TestNegativeBudgets:
    """A negative bound, fuel or case count is an input error, never a
    vacuous success."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "{path}", "--pre", "x = 1", "--post", "x = 2", "--bound", "-1"],
            ["verify", "{path}", "--fuel", "-5"],
            ["verify", "{path}", "--bound", "two"],
            ["run", "{path}", "--fuel", "-5"],
            ["quickcheck", "--suite", "compiler", "--cases", "-3"],
            ["exec", "{path}", "--pc", "-1"],
            ["exec", "{path}", "--max-steps", "-4"],
            ["trace", "{path}", "--max-steps", "-2"],
        ],
        ids=[
            "verify-bound", "verify-fuel", "verify-bound-text", "run-fuel", "quickcheck-cases",
            "exec-pc", "exec-max-steps", "trace-max-steps",
        ],
    )
    def test_rejected_with_one_line(self, write, capsys, argv):
        path = write("skip.imp", "skip")
        assert main([arg.replace("{path}", path) for arg in argv]) == EXIT_PARSE_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "non-negative" in captured.err

    def test_zero_is_accepted(self, write, capsys):
        path = write("skip.imp", "skip")
        assert main(["verify", path, "--bound", "0"]) == EXIT_OK
        # zero fuel is a budget, exhausted before the first rule
        assert main(["run", path, "--fuel", "0"]) == EXIT_FUEL_EXHAUSTED
        assert main(["quickcheck", "--suite", "compiler", "--cases", "0"]) == EXIT_OK

    def test_zero_start_pc_and_step_budgets_are_accepted(self, write, capsys):
        asm = write("p.asm", "LOADI 1\nSTORE x\n")
        assert main(["exec", asm, "--pc", "0", "--max-steps", "2"]) == EXIT_OK
        assert main(["exec", asm, "--max-steps", "0"]) == EXIT_FUEL_EXHAUSTED
        assert main(["trace", write("skip.imp", "skip"), "--max-steps", "0"]) == EXIT_OK


class TestBadSource:
    """Every subcommand that reads IMP source reports a source it cannot
    parse as one positioned line on stderr and exit 1, never a traceback."""

    # '²' is a digit to str.isdigit but not to int(); '٣' is an Arabic-Indic 3
    @pytest.mark.parametrize("digit", ["²", "٣"])
    @pytest.mark.parametrize("command", ["run", "compile", "verify"])
    def test_non_ascii_digit(self, write, capsys, command, digit):
        path = write("digit.imp", f"x := {digit}\n")
        assert main([command, path]) == EXIT_PARSE_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{path}: 1:6: unexpected character '{digit}'\n"

    @pytest.mark.parametrize("command", ["run", "trace", "compile", "exec", "verify"])
    def test_not_utf8(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.imp"
        path.write_bytes("x := 1 // café\n".encode("latin-1"))
        assert main([command, str(path)]) == EXIT_PARSE_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"{path}: 'utf-8' codec can't decode byte 0xe9 in position 13: invalid continuation byte\n"
        )

    def test_non_ascii_digit_in_postcondition(self, write, capsys):
        path = write("ok.imp", "x := 1")
        assert main(["verify", path, "--post", "x = ²"]) == EXIT_PARSE_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "--post: 1:5: unexpected character '²'\n"

    @pytest.mark.parametrize("option", ["--pre", "--post"])
    def test_assertion_error_names_its_option(self, write, capsys, option):
        path = write("ok.imp", "x := 1")
        assert main(["verify", path, option, "x = (1"]) == EXIT_PARSE_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{option}: 1:6: unexpected end of input (expected ')')\n"

    @pytest.mark.parametrize(
        "text",
        [
            "if (true) { " * 1500 + "skip" + " } else { skip }" * 1500,
            "x := " + "(" * 2000 + "1" + ")" * 2000,
        ],
        ids=["nested-if", "nested-parens"],
    )
    @pytest.mark.parametrize("command", ["run", "compile", "verify"])
    def test_nesting_too_deep(self, write, capsys, command, text):
        path = write("deep.imp", text)
        assert main([command, path]) == EXIT_PARSE_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{path}: 1:")
        assert captured.err.endswith(": nesting too deep\n")
        assert captured.err.count("\n") == 1


    def test_nested_ifs_verify(self, write, capsys):
        # printing the formulas takes one frame per connective
        path = write("deep.imp", NESTED_IFS)
        assert main(["verify", path]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.endswith("\ntriple: valid\n")

    def test_deeply_parenthesised_postcondition_verifies(self, write, capsys):
        # an assertion parses at two frames per parenthesis
        path = write("one.imp", "x := 1")
        assert main(["verify", path, "--post", "(" * 400 + "x = 1" + ")" * 400]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.endswith(
            "computed precondition: 1 = 1\n"
            "vc entry: precondition establishes computed precondition: true -> 1 = 1 -- valid\n"
            "triple: valid\n"
        )

    def test_a_postcondition_deeper_than_the_stack_prints(self, write, capsys):
        # 1,200 `&&` nest the formula 2,400 connectives deep; printing walks
        # it by an explicit stack, so the report prints in full
        path = write("one.imp", "skip")
        post = " && ".join(["(x = 1 || y < i)"] * 1200)
        assert main(["verify", path, "--post", post]) == EXIT_COUNTEREXAMPLE
        captured = capsys.readouterr()
        assert captured.err == ""
        cex = "  counterexample: i=-5, x=-5, y=-5\n"
        assert captured.out == (
            f"mode: partial\nbound: 5\ncomputed precondition: {post}\n"
            f"vc entry: precondition establishes computed precondition: true -> {post} -- counterexample\n{cex}"
            f"triple: counterexample\n{cex}"
        )

    def test_deep_input_that_parses(self, write, capsys):
        # The parser takes one frame per `->` of a chain; substitution into
        # it walks the chain without recursing, so the longest chain that
        # parses, and the one before it, verify rather than overflow and
        # blame the one-line program
        path = write("one.imp", "x := 1")

        def verify(n):
            code = main(["verify", path, "--post", " -> ".join(["x = 1"] * n)])
            return code, capsys.readouterr()

        parses, too_deep = 1, 5000
        while too_deep - parses > 1:
            n = (parses + too_deep) // 2
            code, captured = verify(n)
            parse_error = code == EXIT_PARSE_ERROR and captured.err.startswith("--post: ")
            parses, too_deep = (parses, n) if parse_error else (n, too_deep)
        for n in (parses - 1, parses):
            code, captured = verify(n)
            assert (code, captured.err) == (EXIT_OK, "")
            assert captured.out.endswith("triple: valid\n")

    @pytest.mark.parametrize("command", ["run", "compile", "trace"])
    def test_long_sum(self, write, capsys, command):
        # the sum nests 5,000 deep to the left; evaluating, compiling and
        # printing it walk down that spine without recursing
        path = write("sum.imp", LONG_SUM)
        assert main([command, path]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == {
            "run": "x=5000\n",
            "compile": "LOADI 1\n" + "LOADI 1\nADD\n" * 4999 + "STORE x\n",
            "trace": f"0: {LONG_SUM} | \n1: skip | x=5000\nstatus: completed\n",
        }[command]

    def test_long_sum_verifies(self, write, capsys):
        # the triple's compiled run adds the sum as one flat expression, and
        # nothing else evaluates or prints it
        path = write("sum.imp", LONG_SUM)
        assert main(["verify", path]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == (
            "mode: partial\n"
            "bound: 5\n"
            "computed precondition: true\n"
            "vc entry: precondition establishes computed precondition: true -> true -- valid\n"
            "triple: valid\n"
        )

    def test_long_sum_in_the_postcondition_verifies(self, write, capsys):
        # substituting into the sum walks its left spine without recursing,
        # so the one-line program is not blamed for a nesting too deep
        path = write("one.imp", "x := 1")
        post = "x" + " + 1" * 5000 + " = 5001"
        assert main(["verify", path, "--post", post]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.endswith(" -- valid\ntriple: valid\n")


class TestQuickcheck:
    def test_zero_cases(self, capsys):
        assert main(["quickcheck", "--suite", "small-big", "--cases", "0"]) == EXIT_OK
        assert "run=0" in capsys.readouterr().out

    def test_compiler_suite(self, capsys):
        assert main(["quickcheck", "--suite", "compiler", "--cases", "25"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[compiler]" in out
        assert "failures=0" in out

    def test_all_suites_reported(self, capsys):
        code = main(
            ["quickcheck", "--suite", "all", "--cases", "5", "--seed", "1"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        for tag in ("[small-big]", "[compiler]", "[hoare]"):
            assert tag in out

    def test_byte_identical_reruns(self, capsys):
        args = ["quickcheck", "--suite", "all", "--cases", "10", "--seed", "1"]
        assert main(args) == EXIT_OK
        first = capsys.readouterr().out
        assert main(args) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_hex_seed_accepted(self, capsys):
        assert main(["quickcheck", "--suite", "small-big", "--cases", "5", "--seed", "0xC0FFEE"]) == EXIT_OK

    @pytest.mark.parametrize("hex_text, decimal", [("0xC0FFEE", "12648430"), ("0x1f", "31")])
    def test_hex_and_decimal_seeds_agree(self, capsys, hex_text, decimal):
        outputs = []
        for seed in (hex_text, decimal):
            assert main(["quickcheck", "--suite", "hoare", "--cases", "3", "--seed", seed]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "seed",
        ["\u0663", "1_0", "0X1F", "0x", "0o17", "0b11", "+5", "1e3", "", "-0x1"],
        ids=["arabic-indic", "underscore", "upper-x", "bare-0x", "octal", "binary", "plus", "exponent", "empty", "negative-hex"],
    )
    def test_seed_outside_the_grammar_is_an_input_error(self, capsys, seed):
        assert main(["quickcheck", "--suite", "small-big", "--cases", "1", f"--seed={seed}"]) == EXIT_PARSE_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"imptool: error: --seed must be an integer or 0x and hex digits, got {seed!r}\n"

    def test_suite_failure_exits_with_counterexample_code(self, capsys, monkeypatch):
        # the branch-swap mutation makes the small-big suite fail fast
        monkeypatch.setattr(smallstep, "_focuses", swap_branches(smallstep._focuses))
        code = main(["quickcheck", "--suite", "small-big", "--cases", "50"])
        assert code == EXIT_COUNTEREXAMPLE
        out = capsys.readouterr().out
        assert "failures=0" not in out


class TestAsciiIntegers:
    """An integer the CLI reads is ASCII digits with an optional minus, as in
    IMP source; anything else is one line on stderr and exit 1."""

    @pytest.mark.parametrize("value", ["\u0663", "1_000", "+5"], ids=["arabic-indic", "underscore", "plus"])
    def test_state_value(self, write, capsys, value):
        path = write("p.asm", "LOAD x\nSTORE y\n")
        assert main(["exec", path, "--state", f"x={value}"]) == EXIT_PARSE_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{path}: bad integer {value!r} for 'x' in state spec\n"

    @pytest.mark.parametrize("value", ["\u0663", "\uff13"], ids=["arabic-indic", "fullwidth"])
    def test_assembly_operand(self, write, capsys, value):
        path = write("p.asm", f"LOADI {value}\nSTORE x\n")
        assert main(["exec", path]) == EXIT_PARSE_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{path}: 1:1: LOADI needs one integer operand\n"

    def test_budget_option(self, write, capsys):
        path = write("skip.imp", "skip")
        assert main(["verify", path, "--bound", "\u0663"]) == EXIT_PARSE_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "non-negative" in captured.err


class TestDashValues:
    """A value after a value-taking option reaches that option even when it
    starts with `-`, unless it is itself one of the subcommand's options."""

    def test_precondition_starting_with_minus(self, write, capsys):
        path = write("inc.imp", "x := x + 1")
        outputs = []
        abbreviated = ["--pr", "-1<x", "--pos", "0<x"]
        for args in (["--pre", "-1<x", "--post", "0<x"], ["--pre=-1<x", "--post=0<x"], abbreviated):
            assert main(["verify", path, *args]) == EXIT_OK
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0].err == ""
        assert "triple: valid" in outputs[0].out

    @pytest.mark.parametrize(
        "args, message",
        [
            (["quickcheck", "--seed", "-0x1"], "--seed must be an integer or 0x and hex digits, got '-0x1'"),
            (["verify", "{path}", "--bound", "-x"], "--bound must be a non-negative integer, got '-x'"),
            (
                ["verify", "{path}", "--pre", "true", "--post", "true", "--bou", "-x"],
                "--bound must be a non-negative integer, got '-x'",
            ),
        ],
        ids=["seed", "bound", "abbreviated-bound"],
    )
    def test_malformed_value_is_one_line(self, write, capsys, args, message):
        path = write("skip.imp", "skip")
        assert main([arg.format(path=path) for arg in args]) == EXIT_PARSE_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"imptool: error: {message}\n"

    def test_an_abbreviated_option_is_not_taken_as_a_value(self, write, capsys):
        path = write("skip.imp", "skip")
        with pytest.raises(SystemExit) as exited:
            main(["verify", path, "--pre", "--pos", "true"])
        assert exited.value.code == 2
        assert "argument --pre: expected one argument" in capsys.readouterr().err

    def test_an_option_is_not_taken_as_a_value(self, write, capsys):
        path = write("skip.imp", "skip")
        with pytest.raises(SystemExit) as exited:
            main(["verify", path, "--pre", "--post", "true"])
        assert exited.value.code == 2
        assert "argument --pre: expected one argument" in capsys.readouterr().err


def test_prints_integers_of_any_size(write, capsys):
    # 2**14500 has 4,365 decimal digits, past CPython's default limit of 4,300
    path = write("double.imp", "x := 1; i := 0; while (i < 14500) { x := x + x; i := i + 1 }")
    assert main(["run", path]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    i_line, x_line = captured.out.splitlines()
    assert i_line == "i=14500"
    digits = x_line.removeprefix("x=")
    assert len(digits) == 4365
    assert digits == _str_of_any_size(2**14500)


def _str_of_any_size(n):
    """str(n) past CPython's int-to-text digit limit, which `main` restores
    when it returns."""
    if not hasattr(sys, "get_int_max_str_digits"):
        return str(n)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="this CPython has no int-to-text limit")
class TestIntTextLimit:
    """`main` lifts the int-to-text digit limit only while its command runs."""

    def _limit_after(self, args):
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4321)
        try:
            code = main(args)
            return code, sys.get_int_max_str_digits()
        finally:
            sys.set_int_max_str_digits(before)

    def test_restored_after_a_run(self, write, capsys):
        # the run prints 4,365 digits, so the limit is lifted while it runs
        path = write("double.imp", "x := 1; i := 0; while (i < 14500) { x := x + x; i := i + 1 }")
        assert self._limit_after(["run", path]) == (EXIT_OK, 4321)
        assert len(capsys.readouterr().out.splitlines()[1]) == len("x=") + 4365

    def test_restored_after_nesting_too_deep(self, write, capsys, monkeypatch):
        def too_deep(args):
            raise RecursionError

        monkeypatch.setattr(cli, "cmd_verify", too_deep)
        path = write("skip.imp", "skip")
        assert self._limit_after(["verify", path]) == (EXIT_PARSE_ERROR, 4321)
        assert capsys.readouterr().err == f"{path}: nesting too deep\n"

    def test_restored_after_a_closed_pipe(self, write, monkeypatch):
        def closed_pipe(args):
            raise BrokenPipeError

        monkeypatch.setattr(cli, "cmd_run", closed_pipe)
        redirected = []
        monkeypatch.setattr(os, "open", lambda *args: -1)
        monkeypatch.setattr(os, "dup2", lambda *fds: redirected.append(fds))
        monkeypatch.setattr(sys, "stdout", SimpleNamespace(fileno=lambda: 1))
        assert self._limit_after(["run", write("skip.imp", "skip")]) == (EXIT_OK, 4321)
        assert redirected == [(-1, 1)]


def test_closed_pipe_exits_quietly(write):
    path = write("loop.imp", "while (true) { x := x + 1 }")
    proc = subprocess.Popen(
        [sys.executable, "-m", "imptool", "trace", path],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=cli_env(),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_OK
    assert first == b"0: while (true) { x := x + 1 } | \n"
    assert err == b""


def test_no_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
