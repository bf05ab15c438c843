"""Failure reports pinned byte for byte.

Each suite runs at a fixed seed and case count under one mutant that makes
it fail, and the SHA-256 of its JSON report must match the recorded digest.
A refactoring of the case loop that changes any byte of a report (a case
index, a seed, a program text, a message) fails here.
"""

import hashlib
import json

import pytest

from conftest import swap_branches
from imptool import hoare, machine, smallstep
from imptool.harness import GenConfig, suite_compiler, suite_hoare, suite_small_big

CASES = 20


def _flipped_bcomp(original):
    return lambda b, jump_if, offset: original(b, not jump_if, offset)


MUTANTS = {
    "small-big": (suite_small_big, smallstep, "_focuses", swap_branches),
    "compiler": (suite_compiler, machine, "bcomp", _flipped_bcomp),
    # Breaks the wp trees, so the loop-free triple families fail; the loop
    # fixtures pass, since verify decides VCs without building their trees.
    "hoare": (suite_hoare, hoare, "subst_assertion", lambda _: lambda a, name, replacement: a),
}

DIGESTS = {
    "small-big": "7427e07e5452bb57dc86fcc1bd5f63337f623e8b9f1a4bb6170f2f1052bae20e",
    "compiler": "62c7aad4aef9a595ba4e53023746ae354046c27dd4bcd935f564ab862d272fa6",
    "hoare": "78ed48d2db6fdb3a84c0bf71001f740180ce29c31dbbfd44093118139151ca86",
}


@pytest.mark.parametrize("suite", sorted(MUTANTS))
def test_failure_report_bytes(suite, monkeypatch):
    run, module, name, mutant = MUTANTS[suite]
    monkeypatch.setattr(module, name, mutant(getattr(module, name)))
    result = run(CASES, GenConfig())
    assert result.failures
    text = json.dumps(result.to_json_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[suite]
