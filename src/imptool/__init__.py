"""IMP toolchain: interpreter, stepper, compiler + stack machine, Hoare-logic
verifier, and a deterministic differential-testing harness."""

from .bigstep import BigStepOutcome, FuelExhausted, Terminated, big_step
from .harness import (
    DEFAULT_SEED,
    CaseFailure,
    GenConfig,
    SuiteResult,
    gen_com,
    gen_state,
    suite_compiler,
    suite_hoare,
    suite_small_big,
)
from .hoare import (
    Assertion,
    CounterexampleFound,
    Mode,
    Unknown,
    Valid,
    VerificationReport,
    check_triple,
    entails,
    erase,
    eval_assertion,
    subst_assertion,
    vcgen,
    verify,
    wp_loop_free,
)
from .machine import (
    Halted,
    Instr,
    MachineConfig,
    MachineOutcome,
    StuckOrExhausted,
    acomp,
    bcomp,
    ccomp,
    exec1,
    exec_n,
    execute,
    steps_to_halt,
)
from .parser import (
    ParseError,
    SourceSpan,
    parse_annotated_com,
    parse_asm,
    parse_assertion,
    parse_com,
    pretty_asm,
    pretty_assertion,
    pretty_com,
)
from .smallstep import ProgConfig, StepTrace, TraceStatus, small_step, small_steps, star_run
from .syntax import (
    AExp,
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
    Seq,
    Skip,
    State,
    Var,
    While,
    aval,
    bval,
    vars_of,
)

__version__ = "0.1.0"
